"""Global PTRANS model (Figure 10).

PTRANS (``A ← Aᵀ + C``) is a whole-machine transpose: nearly every matrix
element crosses the job partition's bisection. Its rate is therefore a
function of the SeaStar *link* bandwidth — which did not change from XT3
to XT4 — so per-socket PTRANS is essentially flat across the upgrade, the
paper's headline "multi-core is not a panacea" data point.
"""

from __future__ import annotations

import math

from repro.machine.specs import GIGA, Machine
from repro.network.model import NetworkModel

#: CAL: transpose traffic schedules at about half the realisable all-to-all
#: bisection rate (every message crosses simultaneously, worst alignment).
PTRANS_SCHEDULE_EFF = 0.5


class PTRANSModel:
    """Distributed matrix transpose on ``ntasks`` tasks.

    The network model is built once per instance.
    """

    def __init__(
        self, machine: Machine, ntasks: int, fill_fraction: float = 0.3
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        self.machine = machine
        self.ntasks = ntasks
        self.fill_fraction = fill_fraction
        self.net = NetworkModel(machine)

    def matrix_order(self) -> int:
        """N for the two N×N work matrices filling the memory budget."""
        mem_per_task = (
            self.machine.node.memory_capacity_gb
            / self.machine.tasks_per_node
            * GIGA
        )
        total = self.fill_fraction * mem_per_task * self.ntasks
        return int(math.sqrt(total / (2 * 8)))

    def time_s(self) -> float:
        n = float(self.matrix_order())
        p = self.ntasks
        if p == 1:
            # Single task: a local blocked transpose at memory speed.
            from repro.machine.memorymodel import MemoryModel

            mem = MemoryModel(self.machine.node.memory, self.machine.node.cores)
            return mem.bytes_time_s(2 * 8 * n * n, self.machine.active_cores_per_node)
        job_nodes = -(-p // self.machine.tasks_per_node)
        cross_bytes = 8.0 * n * n / 2.0  # half the matrix crosses the bisection
        bis_rate = self.net.bisection_bw_GBs(job_nodes) * GIGA * PTRANS_SCHEDULE_EFF
        inj_rate = p * self.net.task_bandwidth_GBs() * GIGA / 2.0
        return cross_bytes / min(bis_rate, inj_rate)

    def gbs(self) -> float:
        """Reported PTRANS rate: matrix bytes over transpose time."""
        n = float(self.matrix_order())
        return 8.0 * n * n / self.time_s() / GIGA
