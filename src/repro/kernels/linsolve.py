"""Blocked LU factorization with partial pivoting (the HPL / AORSA solver).

Right-looking blocked algorithm: factor a panel with row pivoting, apply
the pivots and triangular solve to the trailing matrix, then a rank-``nb``
update — the same structure HPL and ScaLAPACK's ``pgesv`` distribute.
Supports real and complex matrices (AORSA's system is complex; paper §6.5
notes HPL was "locally modified for use with complex coefficients").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def solve_triangular(
    t: np.ndarray, b: np.ndarray, lower: bool, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve ``T·x = b`` by forward (``lower``) or back substitution.

    Reads only ``t``'s lower or upper triangle, so the packed output of
    :func:`lu_factor` can be passed as is; with ``unit_diagonal`` the
    diagonal is not read either. ``b`` may be 1-D or 2-D (one column per
    right-hand side); real and complex inputs both work.
    """
    n = t.shape[0]
    x = np.array(b, dtype=np.result_type(t, b, np.float64), copy=True)
    for i in range(n) if lower else range(n - 1, -1, -1):
        if lower:
            x[i] -= t[i, :i] @ x[:i]
        else:
            x[i] -= t[i, i + 1 :] @ x[i + 1 :]
        if not unit_diagonal:
            x[i] /= t[i, i]
    return x


def lu_factor(a: np.ndarray, block: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Factor ``P·A = L·U`` in place on a copy.

    :returns: ``(lu, piv)`` where ``lu`` packs unit-lower L below the
        diagonal and U on/above it, and ``piv[k]`` is the row swapped with
        row ``k`` at step ``k`` (LAPACK convention).
    """
    a = np.array(a, dtype=np.result_type(a, np.float64), copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor expects a square matrix")
    n = a.shape[0]
    piv = np.arange(n)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        # -- unblocked panel factorization with partial pivoting ----------
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if a[p, k] == 0:
                raise np.linalg.LinAlgError("matrix is singular")
            if p != k:
                a[[k, p], :] = a[[p, k], :]
                piv[k], piv[p] = piv[p], piv[k]
            a[k + 1 :, k] /= a[k, k]
            if k + 1 < k1:
                a[k + 1 :, k + 1 : k1] -= np.outer(a[k + 1 :, k], a[k, k + 1 : k1])
        if k1 < n:
            # -- triangular solve on the panel's row block -----------------
            a[k0:k1, k1:] = solve_triangular(
                a[k0:k1, k0:k1], a[k0:k1, k1:], lower=True, unit_diagonal=True
            )
            # -- trailing rank-nb update -------------------------------------
            a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
    return a, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A·x = b`` given :func:`lu_factor` output.

    ``piv[i]`` is the original row index that ended up at position ``i``,
    so the permuted system is ``(P·A)·x = b[piv]``.
    """
    n = lu.shape[0]
    x = np.array(b, dtype=np.result_type(lu, b), copy=True)
    if x.shape[0] != n:
        raise ValueError("rhs size mismatch")
    x = x[np.asarray(piv, dtype=np.intp)]
    x = solve_triangular(lu, x, lower=True, unit_diagonal=True)
    x = solve_triangular(lu, x, lower=False)
    return x


def lu_flops(n: int, complex_valued: bool = False) -> float:
    """Flops of LU + two triangular solves: (2/3)n³ + 2n², ×4 if complex."""
    if n < 0:
        raise ValueError("n must be >= 0")
    base = (2.0 / 3.0) * n**3 + 2.0 * n**2
    return base * (4.0 if complex_valued else 1.0)
