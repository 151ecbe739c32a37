"""Tests for block transpose and blocked LU."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import block_transpose, lu_factor, lu_flops, lu_solve, ptrans_bytes
from repro.kernels.linsolve import solve_triangular


def test_block_transpose_matches_T():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((37, 53))
    assert np.array_equal(block_transpose(a, block=8), a.T)


def test_block_transpose_validation():
    with pytest.raises(ValueError):
        block_transpose(np.zeros(5))


def test_ptrans_bytes():
    assert ptrans_bytes(1000) == 1000 * 1000 * 8
    with pytest.raises(ValueError):
        ptrans_bytes(-1)


def test_lu_factor_solve_real():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((60, 60)) + 60 * np.eye(60)
    x_true = rng.standard_normal(60)
    b = a @ x_true
    lu, piv = lu_factor(a, block=16)
    x = lu_solve(lu, piv, b)
    assert np.allclose(x, x_true, atol=1e-8)


def test_lu_factor_solve_complex():
    """AORSA's system is complex-valued (paper §6.5)."""
    rng = np.random.default_rng(2)
    a = (
        rng.standard_normal((40, 40))
        + 1j * rng.standard_normal((40, 40))
        + 40 * np.eye(40)
    )
    x_true = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    b = a @ x_true
    lu, piv = lu_factor(a, block=8)
    x = lu_solve(lu, piv, b)
    assert np.allclose(x, x_true, atol=1e-8)


def test_lu_requires_pivoting():
    # Zero on the diagonal: only correct with row pivoting.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, np.array([2.0, 3.0]))
    assert np.allclose(x, [3.0, 2.0])


def test_lu_matches_numpy_solve():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
    b = rng.standard_normal(30)
    lu, piv = lu_factor(a, block=7)
    x_ours = lu_solve(lu, piv, b)
    x_ref = np.linalg.solve(a, b)
    assert np.allclose(x_ours, x_ref, atol=1e-9)


def _triangular_case(n, lower, unit, dtype, rhs_cols, seed):
    """A well-conditioned triangle whose other triangle (and, for a unit
    diagonal, the diagonal too) holds large junk, the reference matrix
    that junk must not leak into, and a right-hand side."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape)
        if dtype == np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        return x

    strict = np.tril(draw((n, n)), -1) / n
    junk = np.triu(1e6 * draw((n, n)), 1)
    if not lower:
        strict, junk = strict.T, junk.T
    good = strict + n * np.eye(n)
    t = good + junk
    if unit:
        np.fill_diagonal(t, 1e6)
        np.fill_diagonal(good, 1.0)
    b = draw(n if rhs_cols is None else (n, rhs_cols))
    return t, good, b


@pytest.mark.parametrize("rhs_cols", [None, 3], ids=["b1d", "b2d"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
@pytest.mark.parametrize("unit", [False, True], ids=["nonunit", "unit"])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_solve_triangular_matches_numpy(lower, unit, dtype, rhs_cols):
    t, good, b = _triangular_case(12, lower, unit, dtype, rhs_cols, seed=4)
    x = solve_triangular(t, b, lower=lower, unit_diagonal=unit)
    assert x.shape == b.shape
    assert x.dtype == np.result_type(t, b)
    assert np.allclose(x, np.linalg.solve(good, b), atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 40),
    lower=st.booleans(),
    unit=st.booleans(),
    seed=st.integers(0, 50),
)
def test_solve_triangular_property(n, lower, unit, seed):
    """T·x == b, reading only the requested triangle."""
    t, good, b = _triangular_case(n, lower, unit, np.float64, 2, seed)
    x = solve_triangular(t, b, lower=lower, unit_diagonal=unit)
    assert np.allclose(good @ x, b, atol=1e-10)


def test_lu_singular_detected():
    with pytest.raises(np.linalg.LinAlgError):
        lu_factor(np.zeros((4, 4)))


def test_lu_nonsquare_rejected():
    with pytest.raises(ValueError):
        lu_factor(np.zeros((3, 4)))


def test_lu_flops():
    assert lu_flops(100) == pytest.approx((2 / 3) * 1e6 + 2 * 1e4)
    assert lu_flops(100, complex_valued=True) == pytest.approx(4 * lu_flops(100))
    with pytest.raises(ValueError):
        lu_flops(-2)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 40), block=st.integers(1, 16), seed=st.integers(0, 50))
def test_lu_reconstruction_property(n, block, seed):
    """P·A == L·U for random well-conditioned matrices."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    lu, piv = lu_factor(a, block=block)
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    assert np.allclose(lower @ upper, a[np.asarray(piv, dtype=np.intp)], atol=1e-8)
