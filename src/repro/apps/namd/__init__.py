"""NAMD — scalable biomolecular molecular dynamics (paper §6.3).

Petascale benchmark systems of ~1M and ~3M atoms.
:class:`~repro.apps.namd.model.NAMDModel` reproduces Figures 20–21;
:mod:`~repro.apps.namd.minimd` is a real cell-list MD engine (Lennard-
Jones + velocity Verlet) with a spatial-decomposition step on the
simulated MPI.
"""

from repro.core.lazy import lazy_exports

__all__ = ["MiniMD", "NAMDModel", "NAMDSystem", "NAMD_1M", "NAMD_3M"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.namd.minimd": ("MiniMD",),
    "repro.apps.namd.model": ("NAMD_1M", "NAMD_3M", "NAMDModel", "NAMDSystem"),
})
