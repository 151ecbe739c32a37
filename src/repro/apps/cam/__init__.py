"""CAM — Community Atmosphere Model (paper §6.1).

The D-grid benchmark: the finite-volume dycore on a 361×576 horizontal
grid with 26 levels. :class:`~repro.apps.cam.model.CAMModel` reproduces
Figures 14–16; :mod:`~repro.apps.cam.dycore` is a real finite-volume
advection mini-dycore runnable on the simulated MPI.
"""

from repro.core.lazy import lazy_exports

__all__ = [
    "CAMDecomposition",
    "CAMGrid",
    "CAMModel",
    "D_GRID",
    "MiniCAM",
    "MiniDycore",
    "PhysicsProxy",
    "RemapStudy",
    "best_configuration",
    "decompose",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.cam.decomp": ("D_GRID", "CAMDecomposition", "CAMGrid", "decompose"),
    "repro.apps.cam.dycore": ("MiniDycore",),
    "repro.apps.cam.model": ("CAMModel", "best_configuration"),
    "repro.apps.cam.physics": ("PhysicsProxy",),
    "repro.apps.cam.minicam": ("MiniCAM",),
    "repro.apps.cam.remap": ("RemapStudy",),
})
