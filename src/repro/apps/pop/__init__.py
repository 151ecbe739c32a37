"""POP — Parallel Ocean Program (paper §6.2).

The 0.1° benchmark: a 3600×2400×40 displaced-pole grid. POP's time is a
well-scaling 3D **baroclinic** phase (nearest-neighbour halo exchanges)
plus a latency-bound 2D **barotropic** phase (conjugate-gradient solve
with MPI_Allreduce inner products). :mod:`~repro.apps.pop.barotropic`
contains a real distributed CG — standard and Chronopoulos–Gear — on the
simulated MPI.
"""

from repro.core.lazy import lazy_exports

__all__ = [
    "BaroclinicStep",
    "DistributedCG",
    "MiniPOP",
    "POP_01_GRID",
    "POPDecomposition",
    "POPGrid",
    "POPModel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.pop.baroclinic": ("BaroclinicStep",),
    "repro.apps.pop.barotropic": ("DistributedCG",),
    "repro.apps.pop.minipop": ("MiniPOP",),
    "repro.apps.pop.grid": ("POP_01_GRID", "POPDecomposition", "POPGrid"),
    "repro.apps.pop.model": ("POPModel",),
})
