"""POP performance model (Figures 17–19).

Per simulated day: ``BAROCLINIC_STEPS_PER_DAY`` timesteps, each one

* **baroclinic** 3D update — memory-bandwidth-bound stencils over the
  task's block (the paper notes the single→dual-core XT3 clock bump
  "did not improve performance measurably": the phase is bandwidth
  limited), plus nearest-neighbour halo exchanges; scales well.
* **barotropic** 2D implicit solve — ``CG_ITERS_PER_STEP`` conjugate-
  gradient iterations, each costing a 5-point stencil, a halo exchange,
  and the MPI_Allreduce inner products: **two** fused reductions per
  iteration for standard CG, **one** for the Chronopoulos–Gear variant
  (half the Allreduce calls — paper §6.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.apps.pop.grid import POP_01_GRID, POPGrid, decompose
from repro.machine.platforms import Platform
from repro.machine.processor import CoreModel
from repro.machine.specs import Machine, WorkloadProfile
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.model import NetworkModel

Target = Union[Machine, Platform]

#: Baroclinic (tracer/momentum) timesteps per simulated day.
BAROCLINIC_STEPS_PER_DAY = 250
#: CAL: flops per 3D grid point per baroclinic step.
BAROCLINIC_FLOPS_PER_POINT = 600.0
#: Halo exchanges per baroclinic step (momentum, tracers, ...).
BAROCLINIC_EXCHANGES_PER_STEP = 3
#: Fields carried by each halo exchange.
HALO_FIELDS = 3

#: CAL: CG iterations per barotropic solve.
CG_ITERS_PER_STEP = 150
#: Flops per 2D point per CG iteration (5-point operator + axpys).
BAROTROPIC_FLOPS_PER_POINT = 17.0

#: CAL: baroclinic locality — strongly bandwidth-bound (β=4 bytes/flop):
#: the XT3 single→dual-core clock bump barely moves it, the XT4's DDR2
#: does (paper §6.2).
POP_BAROCLINIC_PROFILE = WorkloadProfile("pop_baroclinic", 4.0, 0.10)
POP_BAROTROPIC_PROFILE = WorkloadProfile("pop_barotropic", 2.0, 0.08)

#: CAL: sustained fractions for the Fig. 18 comparison platforms.
POP_PLATFORM_EFFICIENCY: Dict[str, float] = {
    "X1E": 0.08,
    "EarthSimulator": 0.10,
    "p690": 0.05,
    "p575": 0.06,
    "SP": 0.07,
}

#: CAL: the X1E result uses a Co-Array Fortran halo/reduction path with
#: much lower effective latency than its MPI (paper §6.2).
X1E_CAF_LATENCY_FACTOR = 0.35


class POPModel:
    """POP 0.1° benchmark on ``ntasks`` tasks.

    :param solver: ``"cg"`` (two Allreduces/iter) or ``"cgcg"`` for the
        backported Chronopoulos–Gear variant (one fused Allreduce/iter).

    The decomposition, the collective costs and (on an XT) the core model
    are built once per instance.
    """

    def __init__(
        self,
        target: Target,
        ntasks: int,
        solver: str = "cg",
        grid: POPGrid = POP_01_GRID,
    ) -> None:
        if solver not in ("cg", "cgcg"):
            raise ValueError("solver must be 'cg' or 'cgcg'")
        self.target = target
        self.ntasks = ntasks
        self.solver = solver
        self.grid = grid
        self.decomp = decompose(grid, ntasks)
        if isinstance(target, Machine):
            self.core: Optional[CoreModel] = CoreModel(target)
            self.costs = CollectiveCostModel.for_machine(NetworkModel(target), ntasks)
            return
        self.core = None  # a comparison platform
        c = CollectiveCostModel.for_platform(target, ntasks)
        if target.name == "X1E":
            # CAF halo update implementation (paper §6.2).
            c = CollectiveCostModel(
                ntasks=c.ntasks,
                latency_s=c.latency_s * X1E_CAF_LATENCY_FACTOR,
                bw_Bs=c.bw_Bs,
                memcpy_Bs=c.memcpy_Bs,
                bisection_Bs=c.bisection_Bs,
            )
        self.costs = c

    def _rate_gflops(self, profile: WorkloadProfile) -> float:
        if self.core is not None:
            return self.core.rate_gflops(profile)
        plat = self.target
        rate = plat.peak_gflops_per_proc * POP_PLATFORM_EFFICIENCY[plat.name]
        # Vector length on the 2D blocks: the inner (x) extent.
        rate *= plat.vector_penalty(self.decomp.block_nx)
        return rate

    # -- baroclinic ---------------------------------------------------------
    def baroclinic_compute_s_per_day(self) -> float:
        rate = self._rate_gflops(POP_BAROCLINIC_PROFILE) * 1.0e9
        per_step = self.decomp.block_points * BAROCLINIC_FLOPS_PER_POINT / rate
        return BAROCLINIC_STEPS_PER_DAY * per_step

    def baroclinic_halo_s_per_day(self) -> float:
        d = self.decomp
        nbytes = d.halo_perimeter * self.grid.nz * 8 * HALO_FIELDS
        per_exchange = 4 * self.costs.latency_s + nbytes / self.costs.bw_Bs
        return (
            BAROCLINIC_STEPS_PER_DAY
            * BAROCLINIC_EXCHANGES_PER_STEP
            * per_exchange
        )

    def baroclinic_s_per_day(self) -> float:
        return self.baroclinic_compute_s_per_day() + self.baroclinic_halo_s_per_day()

    # -- barotropic -----------------------------------------------------------
    @property
    def allreduces_per_iteration(self) -> int:
        """Two for standard CG, one fused for Chronopoulos–Gear."""
        return 2 if self.solver == "cg" else 1

    def barotropic_allreduce_s_per_day(self) -> float:
        per_iter = self.allreduces_per_iteration * self.costs.allreduce_s(16)
        return BAROCLINIC_STEPS_PER_DAY * CG_ITERS_PER_STEP * per_iter

    def barotropic_other_s_per_day(self) -> float:
        d = self.decomp
        rate = self._rate_gflops(POP_BAROTROPIC_PROFILE) * 1.0e9
        compute = d.block_columns * BAROTROPIC_FLOPS_PER_POINT / rate
        halo_bytes = d.halo_perimeter * 8
        halo = 4 * self.costs.latency_s + halo_bytes / self.costs.bw_Bs
        return BAROCLINIC_STEPS_PER_DAY * CG_ITERS_PER_STEP * (compute + halo)

    def barotropic_s_per_day(self) -> float:
        return (
            self.barotropic_allreduce_s_per_day()
            + self.barotropic_other_s_per_day()
        )

    # -- totals -----------------------------------------------------------------
    def seconds_per_simulated_day(self) -> float:
        return self.baroclinic_s_per_day() + self.barotropic_s_per_day()

    def throughput_years_per_day(self) -> float:
        """Simulated years per wall-clock day (Figs 17-18 axis)."""
        return 86400.0 / (365.0 * self.seconds_per_simulated_day())
