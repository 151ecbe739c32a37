"""Global MPI-FFT model (Figure 9).

A distributed 1D FFT is compute (local FFT passes) plus three global
transposes (alltoalls). Per socket the XT4 beats the XT3; per *core* in VN
mode it is much worse — the alltoalls hit the shared-NIC injection path
(the paper's "NIC bottleneck ... in VN mode").
"""

from __future__ import annotations

import math

from repro.machine.processor import CoreModel
from repro.machine.specs import GIGA, Machine
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.model import NetworkModel

#: Complex double element size.
_ITEM = 16
#: Working set: input + output + twiddle/scratch vectors.
_VECTORS = 3


class MPIFFTModel:
    """HPCC global FFT on ``ntasks`` tasks.

    The core and collective cost models are built once per instance.
    """

    def __init__(
        self, machine: Machine, ntasks: int, fill_fraction: float = 0.25
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        self.machine = machine
        self.ntasks = ntasks
        self.fill_fraction = fill_fraction
        self.core = CoreModel(machine)
        self.costs = CollectiveCostModel.for_machine(NetworkModel(machine), ntasks)

    def problem_size(self) -> int:
        """Largest power-of-two N fitting the working set in memory."""
        mem_per_task = (
            self.machine.node.memory_capacity_gb
            / self.machine.tasks_per_node
            * GIGA
        )
        max_n = self.fill_fraction * mem_per_task * self.ntasks / (_ITEM * _VECTORS)
        return 1 << max(4, int(math.floor(math.log2(max_n))))

    def flops(self) -> float:
        n = self.problem_size()
        return 5.0 * n * math.log2(n)

    def time_s(self) -> float:
        n = self.problem_size()
        p = self.ntasks
        comp = self.flops() / (p * self.core.fft_gflops() * GIGA)
        if p == 1:
            return comp
        per_pair = _ITEM * n / (float(p) * p)
        return comp + 3.0 * self.costs.alltoall_s(per_pair)

    def gflops(self) -> float:
        return self.flops() / self.time_s() / GIGA
