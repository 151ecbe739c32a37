"""AORSA performance model (Figure 23).

The benchmark decomposes into:

* **Ax=b** — the dense complex LU solve, modelled by
  :class:`~repro.hpcc.hpl.HPLModel` with ``complex_valued=True`` and the
  fixed matrix order ``3·nx·ny`` (three field components per spatial
  mode). The paper's locally-modified complex HPL hit 16.7 TFLOPS
  (78.4% of peak) on 4,096 XT4 cores, ~65% at 22,500 cores for this
  grid, and ~74.8% for the 500×500 grid that only fits at ≥16k cores.
* **Calc QL operator** — evaluation of the quasi-linear diffusion
  operator from the solved fields: embarrassingly parallel over modes,
  so it strong-scales cleanly.
"""

from __future__ import annotations

from repro.hpcc.hpl import HPLModel
from repro.machine.specs import GIGA, Machine

#: CAL: QL-operator work as a fraction of the solve's flops.
QL_FLOPS_FRACTION = 0.30
#: CAL: workspace overhead over the bare matrix when checking memory fit.
MEMORY_OVERHEAD_FACTOR = 2.5


class AORSAModel:
    """AORSA on ``ntasks`` cores with an ``nx × ny`` spectral grid.

    The Ax=b solver model (and with it the core and network models) is
    built once per instance.
    """

    def __init__(
        self, machine: Machine, ntasks: int, nx: int = 300, ny: int = 300
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if min(nx, ny) < 1:
            raise ValueError("grid extents must be positive")
        self.machine = machine
        self.ntasks = ntasks
        self.nx = nx
        self.ny = ny
        self._solver = HPLModel(
            machine, ntasks, n=self.matrix_order, complex_valued=True
        )

    @property
    def matrix_order(self) -> int:
        """Three field components per spatial mode."""
        return 3 * self.nx * self.ny

    # -- memory feasibility ----------------------------------------------------
    def memory_required_gb(self) -> float:
        n = float(self.matrix_order)
        return n * n * 16 * MEMORY_OVERHEAD_FACTOR / GIGA

    def fits_in_memory(self) -> bool:
        """The paper notes the 500×500 grid "cannot be run on fewer than
        16k cores" — a memory constraint this check reproduces."""
        per_task = (
            self.machine.node.memory_capacity_gb / self.machine.tasks_per_node
        )
        return self.memory_required_gb() <= per_task * self.ntasks

    # -- phases ---------------------------------------------------------------
    def solve_minutes(self) -> float:
        """Grind time of the Ax=b phase."""
        if not self.fits_in_memory():
            raise ValueError(
                f"{self.nx}x{self.ny} grid needs "
                f"{self.memory_required_gb():.0f} GB; does not fit on "
                f"{self.ntasks} tasks of {self.machine}"
            )
        return self._solver.time_s() / 60.0

    def ql_minutes(self) -> float:
        """Grind time of the quasi-linear operator evaluation."""
        flops = QL_FLOPS_FRACTION * self._solver.flops()
        rate = self._solver.core.rate_gflops("hpl") * GIGA
        return flops / (self.ntasks * rate) / 60.0

    def total_minutes(self) -> float:
        return self.solve_minutes() + self.ql_minutes()

    # -- reported metrics ----------------------------------------------------
    def solver_tflops(self) -> float:
        return self._solver.tflops()

    def solver_efficiency(self) -> float:
        """Fraction of aggregate peak achieved by the Ax=b phase."""
        return self._solver.efficiency()
