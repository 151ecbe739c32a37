"""Global MPI RandomAccess model (Figure 11).

Every update targets a uniformly random task, so the benchmark degenerates
to a stream of tiny remote messages: the per-task rate is set by effective
small-message latency, not by bandwidth or local GUPS. This is where VN
mode loses outright — "the increased network latency of VN mode ...
overwhelms all other factors", making XT4-VN slower than XT3 per core
*and* per socket.
"""

from __future__ import annotations

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine
from repro.network.model import NetworkModel


class MPIRandomAccessModel:
    """HPCC global RandomAccess (GUPS) on ``ntasks`` tasks.

    The core and network models are built once per instance.
    """

    def __init__(self, machine: Machine, ntasks: int) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        self.machine = machine
        self.ntasks = ntasks
        self.core = CoreModel(machine)
        self.net = NetworkModel(machine)

    def _job_nodes(self) -> int:
        return -(-self.ntasks // self.machine.tasks_per_node)

    def per_task_gups(self) -> float:
        """Update rate of one task: one small message per remote update."""
        if self.ntasks == 1:
            return self.core.random_access_gups()
        nodes = self._job_nodes()
        vn = self.machine.tasks_per_node > 1
        latency = self.net.base_latency_s(
            hops=self.net.partition(nodes).hops,
            contended_fraction=1.0 if vn else 0.0,
            job_nodes=nodes,
        )
        network_rate = 1.0e-9 / latency  # one update per effective latency
        local_rate = self.core.random_access_gups()
        return min(network_rate, local_rate)

    def gups(self) -> float:
        """Whole-job giga-updates per second."""
        return self.ntasks * self.per_task_gups()
