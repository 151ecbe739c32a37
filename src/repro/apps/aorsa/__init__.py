"""AORSA — all-orders spectral algorithm for RF plasma heating (paper §6.5).

AORSA builds a dense complex linear system from a Fourier (all-orders)
representation of the wave field, solves it with a ScaLAPACK/HPL-class
LU, then evaluates the quasi-linear (QL) operator.
:class:`~repro.apps.aorsa.model.AORSAModel` reproduces Figure 23;
:mod:`~repro.apps.aorsa.spectral` assembles and solves a real (small)
spectral system with the from-scratch FFT and blocked LU kernels.
"""

from repro.core.lazy import lazy_exports

__all__ = ["AORSAModel", "AORSAPipeline", "SpectralProblem"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.aorsa.model": ("AORSAModel",),
    "repro.apps.aorsa.pipeline": ("AORSAPipeline",),
    "repro.apps.aorsa.spectral": ("SpectralProblem",),
})
