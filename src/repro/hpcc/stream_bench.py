"""HPCC SP/EP STREAM triad (Figure 7)."""

from __future__ import annotations

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine


class StreamBench:
    """Per-core memory bandwidth: low temporal, high spatial locality."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Built once per instance.
        self.core = CoreModel(machine)

    def sp_GBs(self) -> float:
        """Single busy core: nearly the full socket bandwidth."""
        return self.core.stream_triad_GBs(active_cores=1)

    def ep_GBs(self) -> float:
        """Every core busy: fair shares of the socket bandwidth."""
        return self.core.stream_triad_GBs(active_cores=self.machine.active_cores_per_node)

    def run_numeric(self, n: int = 100_000):
        """Run the real triad, validate, return modelled seconds (SP)."""
        import numpy as np

        from repro.kernels.stream import stream_triad

        rng = np.random.default_rng(11)
        a = np.empty(n)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        nbytes = stream_triad(a, b, c, 3.0)
        verified = bool(np.allclose(a, b + 3.0 * c))
        modelled_s = nbytes / (self.sp_GBs() * 1.0e9)
        return verified, modelled_s
