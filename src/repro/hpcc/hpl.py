"""Global High-Performance LINPACK model (Figure 8; AORSA's solver, Fig. 23).

Time model for a blocked right-looking distributed LU on a √p × √p grid:

* compute: ``(2/3)·N³`` flops (×4 complex) at the per-core ``hpl`` roofline
  rate, inflated by a calibrated solver overhead (pivot search, row swaps,
  triangular solves off the critical GEMM path);
* bandwidth: panel broadcasts and row swaps move ``O(N²·log2 p / √p)``
  bytes per process at the task's NIC share;
* latency: one broadcast chain per panel: ``(N/nb)·log2 p`` messages.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.machine.processor import CoreModel
from repro.machine.specs import GIGA, Machine
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.model import NetworkModel

#: CAL: non-GEMM solver work (pivoting, swaps, triangular solves); with the
#: ``hpl`` roofline this lands HPL at ≈78% of peak on 4096 XT4 cores (§6.5).
HPL_SOLVER_OVERHEAD = 0.02


class HPLModel:
    """HPL (or the AORSA complex solver) on ``ntasks`` tasks.

    :param n: explicit matrix order; default fills ``fill_fraction`` of the
        job's aggregate memory (the HPL tuning convention).
    :param complex_valued: AORSA's locally-modified HPL solves a complex
        system (4× the flops, 2× the bytes per element).

    The core, network and collective cost models are built once per
    instance.
    """

    def __init__(
        self,
        machine: Machine,
        ntasks: int,
        n: Optional[int] = None,
        fill_fraction: float = 0.8,
        block: int = 128,
        complex_valued: bool = False,
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if not 0 < fill_fraction <= 1:
            raise ValueError("fill_fraction must be in (0, 1]")
        self.machine = machine
        self.ntasks = ntasks
        self.n = n
        self.fill_fraction = fill_fraction
        self.block = block
        self.complex_valued = complex_valued
        self.core = CoreModel(machine)
        self.net = NetworkModel(machine)
        self.costs = CollectiveCostModel.for_machine(self.net, ntasks)

    # -- problem size -----------------------------------------------------
    @property
    def itemsize(self) -> int:
        return 16 if self.complex_valued else 8

    def problem_size(self) -> int:
        if self.n is not None:
            return int(self.n)
        mem_per_task = (
            self.machine.node.memory_capacity_gb
            / self.machine.tasks_per_node
            * GIGA
        )
        total = self.fill_fraction * mem_per_task * self.ntasks
        return int(math.sqrt(total / self.itemsize))

    def flops(self) -> float:
        n = float(self.problem_size())
        base = (2.0 / 3.0) * n**3 + 2.0 * n**2
        return base * (4.0 if self.complex_valued else 1.0)

    # -- time ------------------------------------------------------------------
    def compute_time_s(self) -> float:
        rate = self.core.rate_gflops("hpl") * 1.0e9
        return self.flops() * (1.0 + HPL_SOLVER_OVERHEAD) / (self.ntasks * rate)

    def comm_time_s(self) -> float:
        n = float(self.problem_size())
        p = self.ntasks
        if p == 1:
            return 0.0
        log2p = max(1.0, math.log2(p))
        # Panel broadcasts (log2 p forwarding depth along process rows)
        # plus row swaps: ~ N²·log2(p)/√p elements per process overall.
        bw_bytes = n * n * self.itemsize * log2p / math.sqrt(p)
        t_bw = bw_bytes / (self.net.task_bandwidth_GBs() * GIGA)
        t_lat = (n / self.block) * log2p * self.costs.latency_s
        return t_bw + t_lat

    def time_s(self) -> float:
        return self.compute_time_s() + self.comm_time_s()

    # -- reported metrics ----------------------------------------------------
    def tflops(self) -> float:
        return self.flops() / self.time_s() / 1.0e12

    def efficiency(self) -> float:
        """Fraction of the job's aggregate peak (the paper's % of peak)."""
        peak = self.ntasks * self.machine.node.processor.peak_gflops_per_core
        return self.tflops() * 1.0e3 / peak
