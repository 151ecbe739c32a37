"""S3D performance model (Figure 22).

Key metric: **cost per grid point per timestep in microseconds** for a
weak-scaling run with 50³ points per MPI task.

Cost per step = 6 RK stages × (RHS computation + ghost exchange) +
filter pass. The RHS is bandwidth-hungry (many 3D fields streamed through
9/11-point stencils plus pointwise chemistry) — the ``s3d`` profile's
bytes/flop is calibrated so running two tasks per socket (VN) costs
≈ +30% per task, the paper's memory-contention observation. The ghost
exchanges are nearest-neighbour only, so weak scaling is nearly flat out
to 12,000 cores; collectives appear only in (ignored) diagnostics.
"""

from __future__ import annotations

from typing import Tuple

from repro.machine.processor import CoreModel
from repro.machine.specs import GIGA, Machine, WorkloadProfile
from repro.network.model import NetworkModel

#: Points per task per dimension in the paper's weak-scaling test.
POINTS_PER_TASK_SIDE = 50
#: RK stages per timestep (six-stage fourth-order scheme, §6.4).
RK_STAGES = 6
#: CAL: flops per grid point per RK stage (derivatives + chemistry).
FLOPS_PER_POINT_STAGE = 2_500.0
#: Fields exchanged in each ghost swap; ghost width 4 (9-point stencils).
GHOST_FIELDS = 9
GHOST_WIDTH = 4

#: CAL: S3D locality — β fitted so VN costs ≈ +30% per task over SN
#: (paper: "the 30% increase ... can be attributed to memory bandwidth
#: contention between cores").
S3D_PROFILE = WorkloadProfile("s3d", bytes_per_flop=3.69, compute_efficiency=0.15)


class S3DModel:
    """S3D weak scaling on ``ntasks`` tasks (50³ points each).

    The core and network models are built once per instance.
    """

    def __init__(
        self, machine: Machine, ntasks: int, points_per_side: int = POINTS_PER_TASK_SIDE
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        self.machine = machine
        self.ntasks = ntasks
        self.points_per_side = points_per_side
        self.core = CoreModel(machine)
        self.net = NetworkModel(machine)

    @property
    def points_per_task(self) -> int:
        return self.points_per_side**3

    def compute_seconds_per_step(self) -> float:
        rate = self.core.rate_gflops(S3D_PROFILE) * GIGA
        return RK_STAGES * self.points_per_task * FLOPS_PER_POINT_STAGE / rate

    def comm_seconds_per_step(self) -> float:
        if self.ntasks == 1:
            return 0.0
        n = self.points_per_side
        face_bytes = n * n * GHOST_WIDTH * 8 * GHOST_FIELDS
        vn = self.machine.tasks_per_node > 1
        nodes = -(-self.ntasks // self.machine.tasks_per_node)
        latency = self.net.base_latency_s(
            hops=1, contended_fraction=0.5 if vn else 0.0, job_nodes=nodes
        )
        bw = self.net.task_bandwidth_GBs() * GIGA
        # Three dimension-pair exchanges per stage (x, y, z), overlapped
        # send/recv per face.
        per_stage = 3 * (2 * latency + face_bytes / bw)
        return RK_STAGES * per_stage

    def seconds_per_step(self) -> float:
        return self.compute_seconds_per_step() + self.comm_seconds_per_step()

    def cost_per_point_us(self) -> float:
        """Fig. 22's metric: µs per grid point per timestep (per task)."""
        return self.seconds_per_step() / self.points_per_task * 1.0e6

    def weak_scaling_series(self, task_counts: Tuple[int, ...]) -> list:
        return [
            S3DModel(self.machine, p, self.points_per_side).cost_per_point_us()
            for p in task_counts
        ]
