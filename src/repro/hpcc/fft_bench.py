"""HPCC SP/EP FFT (Figure 4)."""

from __future__ import annotations

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine


class FFTBench:
    """Per-core 1D FFT rate: high temporal, low spatial locality."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Built once per instance.
        self.core = CoreModel(machine)

    def sp_gflops(self) -> float:
        return self.core.fft_gflops(active_cores=1)

    def ep_gflops(self) -> float:
        return self.core.fft_gflops(active_cores=self.machine.active_cores_per_node)

    def run_numeric(self, n: int = 1 << 12):
        """Run the real FFT, validate against NumPy, return modelled seconds."""
        import numpy as np

        from repro.kernels.fft import fft, fft_flops

        rng = np.random.default_rng(7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = fft(x)
        verified = bool(np.allclose(y, np.fft.fft(x)))
        modelled_s = fft_flops(n) / (self.sp_gflops() * 1.0e9)
        return verified, modelled_s
