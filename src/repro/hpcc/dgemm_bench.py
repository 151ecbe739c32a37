"""HPCC SP/EP DGEMM (Figure 5)."""

from __future__ import annotations

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine


class DGEMMBench:
    """Per-core matrix-multiply rate: high temporal + spatial locality."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Built once per instance.
        self.core = CoreModel(machine)

    def sp_gflops(self) -> float:
        """Single-process rate: one busy core per socket."""
        return self.core.dgemm_gflops(active_cores=1)

    def ep_gflops(self) -> float:
        """Embarrassingly-parallel per-core rate: every core busy."""
        return self.core.dgemm_gflops(active_cores=self.machine.active_cores_per_node)

    def run_numeric(self, n: int = 256):
        """Execute the real kernel and return (verified, modelled seconds).

        ``verified`` confirms the blocked kernel matches ``A @ B``; the
        modelled time charges ``2n³`` flops at the SP rate.
        """
        import numpy as np

        from repro.kernels.dgemm import dgemm, dgemm_flops

        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = dgemm(a, b)
        verified = bool(np.allclose(c, a @ b))
        modelled_s = dgemm_flops(n, n, n) / (self.sp_gflops() * 1.0e9)
        return verified, modelled_s
