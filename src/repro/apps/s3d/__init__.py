"""S3D — direct numerical simulation of turbulent combustion (paper §6.4).

Weak-scaling benchmark: 50³ grid points per MPI task, eighth-order finite
differences, tenth-order filters, six-stage fourth-order Runge–Kutta,
nearest-neighbour ghost exchange only.
:class:`~repro.apps.s3d.model.S3DModel` reproduces Figure 22;
:class:`~repro.apps.s3d.solver.MiniDNS` is a real advection–diffusion
DNS proxy using the same discretization on the simulated MPI.
"""

from repro.core.lazy import lazy_exports

__all__ = ["CheckpointStudy", "MiniDNS", "S3DModel", "S3DWeakScalingRun"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.s3d.checkpoint": ("CheckpointStudy",),
    "repro.apps.s3d.model": ("S3DModel",),
    "repro.apps.s3d.solver": ("MiniDNS",),
    "repro.apps.s3d.weak": ("S3DWeakScalingRun",),
})
