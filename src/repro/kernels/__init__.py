"""Real numerical kernels.

These implement the actual mathematics exercised by the HPCC benchmarks and
the application proxies — matrix multiply, FFT, STREAM, RandomAccess,
high-order finite-difference stencils, conjugate-gradient solvers (standard
and Chronopoulos–Gear), low-storage Runge–Kutta, block transpose, and
blocked LU — so tests validate numerics, while *timing* always comes from
the machine models.

Unlike :mod:`repro.apps` and :mod:`repro.hpcc`, this package imports its
exports eagerly. No analytic path reaches it (the HPCC benches import
their kernels inside ``run_numeric``), and it exports ``dgemm`` and
``fft``, the names of its own submodules: with lazy exports, importing
``repro.kernels.dgemm`` would bind the module over the function.
"""

from repro.kernels.cg import CGResult, chronopoulos_gear_cg, conjugate_gradient
from repro.kernels.dgemm import dgemm, dgemm_flops
from repro.kernels.fft import fft, fft_flops, ifft
from repro.kernels.linsolve import lu_factor, lu_flops, lu_solve
from repro.kernels.randomaccess import (
    hpcc_random_stream,
    random_access_update,
    verify_random_access,
)
from repro.kernels.rk import LowStorageRK, RK4_CK5
from repro.kernels.stencil import (
    FD8_COEFFS,
    FILTER10_COEFFS,
    apply_filter10,
    deriv8,
)
from repro.kernels.stream import stream_add, stream_copy, stream_scale, stream_triad
from repro.kernels.transpose import block_transpose, ptrans_bytes

__all__ = [
    "CGResult",
    "FD8_COEFFS",
    "FILTER10_COEFFS",
    "LowStorageRK",
    "RK4_CK5",
    "apply_filter10",
    "block_transpose",
    "chronopoulos_gear_cg",
    "conjugate_gradient",
    "deriv8",
    "dgemm",
    "dgemm_flops",
    "fft",
    "fft_flops",
    "hpcc_random_stream",
    "ifft",
    "lu_factor",
    "lu_flops",
    "lu_solve",
    "ptrans_bytes",
    "random_access_update",
    "stream_add",
    "stream_copy",
    "stream_scale",
    "stream_triad",
    "verify_random_access",
]
