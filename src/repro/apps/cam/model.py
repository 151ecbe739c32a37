"""CAM performance model (Figures 14–16).

Structure per simulated day (paper §6.1):

* 48 physics steps (30-minute physics timestep) — per-column computation
  with high temporal locality, load-balanced (and coupled to the embedded
  land model) through **four MPI_Alltoallv calls per step**;
* 4 dynamics substeps per physics step (192/day) — per-cell computation
  plus nearest-neighbour ghost exchanges, and on the 2D decomposition
  **two domain-decomposition remaps per substep** (each an Alltoallv).

Calibrated constants (CAL) target the paper's qualitative statements:
dynamics ≈ 2× the physics cost; SN ≈ 10% faster than VN per task at high
task counts with ~70% of the physics gap inside MPI_Alltoallv; equal-node
VN (960) ≈ +30% throughput over SN (504).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.apps.cam.decomp import CAMGrid, D_GRID, decompose
from repro.machine.platforms import Platform
from repro.machine.processor import CoreModel
from repro.machine.specs import Machine, WorkloadProfile
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.model import NetworkModel

Target = Union[Machine, Platform]

#: CAL: flops per column per physics step (radiation, clouds, precip, ...).
PHYS_FLOPS_PER_COLUMN = 1.2e6
#: CAL: flops per cell per dynamics substep (C/D-grid winds, tracers, remap).
DYN_FLOPS_PER_CELL = 1.5e4
#: Physics steps per simulated day (30-minute timestep).
PHYS_STEPS_PER_DAY = 48
#: Dynamics substeps per physics step.
DYN_SUBSTEPS = 4
#: Alltoallv calls per physics step: load-balance out/in + land model out/in.
PHYS_ALLTOALLV_PER_STEP = 4
#: Bytes per column per physics Alltoallv (state + tendencies).
PHYS_LB_BYTES_PER_COLUMN = 26 * 8 * 12
#: Fields moved by each dynamics remap.
REMAP_FIELDS = 16

#: Locality profiles on the XTs (CAL): physics is column-local (tiny
#: working set per column → high temporal locality); dynamics streams
#: fields through stencils and remaps (more memory traffic).
CAM_PHYSICS_PROFILE = WorkloadProfile("cam_physics", 0.05, 0.090)
CAM_DYNAMICS_PROFILE = WorkloadProfile("cam_dynamics", 0.40, 0.095)

#: CAL: sustained fraction of per-processor peak on the comparison
#: platforms for CAM-class code (Fig. 15 orderings).
CAM_PLATFORM_EFFICIENCY: Dict[str, float] = {
    "X1E": 0.050,
    "EarthSimulator": 0.085,
    "p690": 0.045,
    "p575": 0.058,
    "SP": 0.075,
}

#: CAL: effective vector length proxy: columns strip-mined per processor
#: shrink as processors grow; below 128 the X1E/ES kernels derate (§6.1).
VECTOR_LENGTH_CONSTANT = 96_000.0

#: CAL: OpenMP thread efficiency on the hybrid platforms.
OPENMP_EFFICIENCY = 0.85


class CAMModel:
    """CAM D-grid benchmark on ``ntasks`` MPI tasks (× ``threads``).

    The decomposition, the collective costs and (on an XT) the core model
    are built once per instance; an illegal task count raises
    ``ValueError`` here.
    """

    def __init__(
        self, target: Target, ntasks: int, threads: int = 1, grid: CAMGrid = D_GRID
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if isinstance(target, Machine) and threads > 1:
            # Paper: OpenMP "is not used on the Cray systems".
            raise ValueError("OpenMP is not available on the XT systems here")
        self.target = target
        self.ntasks = ntasks
        self.threads = threads
        self.grid = grid
        self.decomp = decompose(grid, ntasks)
        if isinstance(target, Machine):
            self.core: Optional[CoreModel] = CoreModel(target)
            self.costs = CollectiveCostModel.for_machine(NetworkModel(target), ntasks)
        else:
            self.core = None  # a comparison platform
            self.costs = CollectiveCostModel.for_platform(target, ntasks)

    # -- shared pieces -----------------------------------------------------
    @property
    def processors(self) -> int:
        return self.ntasks * self.threads

    def _task_rate_gflops(self, profile: WorkloadProfile) -> float:
        """Effective compute rate of one MPI task (incl. threads)."""
        if self.core is not None:
            return self.core.rate_gflops(profile)
        plat = self.target
        rate = plat.peak_gflops_per_proc * CAM_PLATFORM_EFFICIENCY[plat.name]
        vl = VECTOR_LENGTH_CONSTANT / self.processors
        rate *= plat.vector_penalty(vl)
        if self.threads > 1:
            rate *= self.threads * OPENMP_EFFICIENCY
        return rate

    # -- physics -------------------------------------------------------------
    def physics_compute_seconds_per_day(self) -> float:
        rate = self._task_rate_gflops(CAM_PHYSICS_PROFILE) * 1.0e9
        per_step = self.decomp.phys_block_columns * PHYS_FLOPS_PER_COLUMN / rate
        return PHYS_STEPS_PER_DAY * per_step

    def physics_alltoallv_seconds_per_day(self) -> float:
        bytes_per_task = (
            self.decomp.phys_block_columns * PHYS_LB_BYTES_PER_COLUMN
        )
        per_call = self.costs.alltoallv_s(bytes_per_task)
        return PHYS_STEPS_PER_DAY * PHYS_ALLTOALLV_PER_STEP * per_call

    def physics_seconds_per_day(self) -> float:
        return (
            self.physics_compute_seconds_per_day()
            + self.physics_alltoallv_seconds_per_day()
        )

    # -- dynamics ---------------------------------------------------------------
    def dynamics_compute_seconds_per_day(self) -> float:
        rate = self._task_rate_gflops(CAM_DYNAMICS_PROFILE) * 1.0e9
        per_step = self.decomp.dyn_block_cells * DYN_FLOPS_PER_CELL / rate
        return PHYS_STEPS_PER_DAY * DYN_SUBSTEPS * per_step

    def dynamics_comm_seconds_per_day(self) -> float:
        d = self.decomp
        # Ghost exchanges: 4 neighbour messages per substep.
        halo = 4 * (
            self.costs.latency_s + d.halo_bytes() / self.costs.bw_Bs
        )
        # 2D remaps: the whole block changes decomposition, twice per substep.
        remap = 0.0
        if d.remaps_per_step:
            remap_bytes = d.dyn_block_cells * 8 * REMAP_FIELDS
            remap = d.remaps_per_step * self.costs.alltoallv_s(remap_bytes)
        return PHYS_STEPS_PER_DAY * DYN_SUBSTEPS * (halo + remap)

    def dynamics_seconds_per_day(self) -> float:
        return (
            self.dynamics_compute_seconds_per_day()
            + self.dynamics_comm_seconds_per_day()
        )

    # -- totals ----------------------------------------------------------------
    def seconds_per_simulated_day(self) -> float:
        return self.physics_seconds_per_day() + self.dynamics_seconds_per_day()

    def throughput_years_per_day(self) -> float:
        """Simulated years per wall-clock day — the paper's Figs 14-15 axis."""
        return 86400.0 / (365.0 * self.seconds_per_simulated_day())


def best_configuration(target: Target, processors: int, grid: CAMGrid = D_GRID) -> CAMModel:
    """Best (tasks × threads) split of ``processors`` for a platform.

    Mirrors the paper's per-point optimization "over the available virtual
    processor grids ... and the number of OpenMP threads per MPI task".
    XT targets always use threads=1.
    """
    if processors < 1:
        raise ValueError("processors must be >= 1")
    max_threads = 1
    if isinstance(target, Platform):
        max_threads = max(1, target.openmp_threads)
    from repro.apps.cam.decomp import max_tasks

    best: CAMModel | None = None
    # The incumbent's time, evaluated at its first comparison: a platform
    # with a single legal candidate never pays for one.
    best_s: float | None = None
    threads = 1
    while threads <= max_threads:
        # Idle any processors beyond the decomposition limit (the paper's
        # 960-task ceiling on the D-grid).
        ntasks = min(processors // threads, max_tasks(grid))
        if ntasks >= 1:
            try:
                cand = CAMModel(target, ntasks, threads=threads, grid=grid)
            except ValueError:  # an illegal task count
                cand = None
            if cand is not None:
                if best is None:
                    best = cand
                else:
                    if best_s is None:
                        best_s = best.seconds_per_simulated_day()
                    cand_s = cand.seconds_per_simulated_day()
                    if cand_s < best_s:
                        best, best_s = cand, cand_s
        threads *= 2
    if best is None:
        raise ValueError(
            f"no legal CAM configuration for {processors} processors"
        )
    return best
