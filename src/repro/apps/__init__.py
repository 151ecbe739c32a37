"""Application proxies and performance models (paper §6).

One subpackage per NCCS application benchmark:

* :mod:`repro.apps.cam`   — Community Atmosphere Model (FV dycore, D-grid)
* :mod:`repro.apps.pop`   — Parallel Ocean Program (0.1° benchmark)
* :mod:`repro.apps.namd`  — NAMD biomolecular MD (1M / 3M atom systems)
* :mod:`repro.apps.s3d`   — S3D turbulent-combustion DNS (weak scaling)
* :mod:`repro.apps.aorsa` — AORSA fusion full-wave solver (dense complex LU)

Each pairs a *mini-app* with real numerics (validated in tests, runnable
on the simulated MPI at small scale) with a *performance model* (shared
decomposition and cost-model code, evaluated at paper scale).
"""

from repro.core.lazy import lazy_exports

__all__ = ["AORSAModel", "CAMModel", "NAMDModel", "POPModel", "S3DModel"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.aorsa.model": ("AORSAModel",),
    "repro.apps.cam.model": ("CAMModel",),
    "repro.apps.namd.model": ("NAMDModel",),
    "repro.apps.pop.model": ("POPModel",),
    "repro.apps.s3d.model": ("S3DModel",),
})
