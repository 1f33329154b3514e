"""The LAPACK LU path against the row-loop oracles in ``lu_reference``.

Tolerances are fixed from the dtype's unit roundoff and the matrix size
(and, for forward errors, the matrix's SVD condition number), never tuned to
the observed differences.
"""

import warnings

import numpy as np
import pytest

from qdoubling import (
    CayleyParams,
    Idea,
    SingularMatrixError,
    Variant,
    cayley,
    gen_random_split,
    lu_factor,
    lu_solve,
    thin_qr,
)
from qdoubling.linalg import solve_transposed
from qdoubling.reduction import _Reducer, _schedule

from conftest import complex_normal
from lu_reference import (
    loop_lu_factor,
    loop_lu_solve,
    loop_solve_lower,
    loop_solve_upper,
)

EPS = np.finfo(np.complex128).eps


def backward_error(a, x, b):
    return np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x))


def graded(rng, n, decades):
    """A matrix with singular values spread log-evenly over ``decades``."""
    u, _ = thin_qr(complex_normal(rng, n, n))
    v, _ = thin_qr(complex_normal(rng, n, n))
    return (u * np.logspace(0, -decades, n)) @ v.conj().T


def matrices(rng):
    for n in (1, 2, 7, 40, 120):
        yield complex_normal(rng, n, n)
    for decades in (3, 7, 11):
        yield graded(rng, 30, decades)
    # rows graded over 12 decades: the pivot order matters
    yield np.logspace(0, -12, 25)[:, None] * complex_normal(rng, 25, 25)


class TestAgainstLoops:
    def test_solves_agree(self, rng):
        for a in matrices(rng):
            n = a.shape[0]
            b = complex_normal(rng, n, 3)
            x = lu_solve(a, b)
            ref = loop_lu_solve(a, b)
            assert backward_error(a, x, b) <= 16 * n * EPS
            assert backward_error(a, ref, b) <= 16 * n * EPS
            bound = 16 * n * EPS * np.linalg.cond(a)
            assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)

    def test_pivots_agree_on_real_entries(self, rng):
        # |Re| + |Im| and the modulus coincide on real entries, so LAPACK and
        # the loop pick the same pivot rows.
        for n in (3, 30, 90):
            a = rng.standard_normal((n, n)).astype(np.complex128)
            factors = lu_factor(a)
            _, _, ref = loop_lu_factor(a)
            tol = 16 * n * EPS * ref.max()
            np.testing.assert_allclose(factors.pivot_mags, ref, rtol=0, atol=tol)
            assert factors.min_pivot == factors.pivot_mags.min()
            assert factors.condition_estimate == pytest.approx(ref.max() / ref.min(),
                                                               rel=64 * n * EPS)

    def test_pivot_mags_are_diag_u(self, rng):
        a = complex_normal(rng, 12, 12)
        factors = lu_factor(a)
        np.testing.assert_array_equal(factors.pivot_mags, np.abs(np.diag(factors.lu)))

    def test_solve_transposed(self, rng):
        for a in matrices(rng):
            n = a.shape[0]
            c = complex_normal(rng, 4, n)
            x = solve_transposed(a, c)
            ref = loop_lu_solve(a.T, c.T).T
            assert backward_error(a.T, x.T, c.T) <= 16 * n * EPS
            bound = 16 * n * EPS * np.linalg.cond(a)
            assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)

    def test_reduction_triangular_solves(self):
        g = cayley(gen_random_split(12, 15, 8.0, 1e-3, seed=3).pencil, CayleyParams(-1.0))
        red = _Reducer(g, banded=False, stage="test")
        for step in _schedule(Idea.IDEA3, Variant.A_FIRST, [red.a_step] * g.n, [red.b_step] * g.m):
            step()
        p, _ = red.finish()
        m = g.m
        aw, bw = red.w[:, :g.size], red.w[:, g.size:]
        lower, upper = aw[m:, m:], bw[:m, :m]
        for got, tri, rhs, solver in (
            (p.E, upper, aw[:m, :m], loop_solve_upper),
            (-p.Y, upper, bw[:m, m:], loop_solve_upper),
            (-p.X, lower, aw[m:, :m], loop_solve_lower),
            (p.F, lower, bw[m:, m:], loop_solve_lower),
        ):
            ref = solver(tri, rhs)
            bound = 16 * tri.shape[0] * EPS * np.linalg.cond(tri)
            assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)


class TestSingularity:
    @pytest.mark.parametrize("a,index", [
        (np.diag([1.0, 1.0, 0.0]), 2),            # exact zero pivot
        (np.diag([1.0, 1e-14, 1.0]), 1),          # below 1e-13 relative
        (np.zeros((3, 3)), 0),                    # zero matrix
        (np.array([[1.0, 2.0], [2.0, 4.0]]), 1),  # rank one, zero after elimination
    ])
    def test_first_small_pivot_index(self, a, index):
        with pytest.raises(SingularMatrixError) as exc:
            lu_factor(a)
        assert exc.value.pivot_index == index
        with pytest.raises(SingularMatrixError) as ref:
            loop_lu_factor(a)
        assert ref.value.pivot_index == index

    def test_relative_pivot_above_tolerance_passes(self):
        factors = lu_factor(np.diag([1.0, 1e-12, 1.0]))
        assert factors.min_pivot == 1e-12

    def test_no_warning_escapes(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for a in (np.zeros((4, 4)), np.diag([1.0, 0.0, 1.0]), np.ones((5, 5))):
                with pytest.raises(SingularMatrixError):
                    lu_factor(a)
                with pytest.raises(SingularMatrixError):
                    lu_solve(a, np.eye(a.shape[0]))
        assert not caught, [str(w.message) for w in caught]


class TestShapes:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            lu_factor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            lu_solve(np.ones((3, 2)), np.ones((3, 1)))

    def test_mismatched_rhs_rejected(self, rng):
        factors = lu_factor(complex_normal(rng, 3, 3))
        with pytest.raises(ValueError, match="rows"):
            factors.solve(np.ones((2, 1)))
        with pytest.raises(ValueError, match="rows"):
            solve_transposed(complex_normal(rng, 3, 3), np.ones((1, 4)))

    def test_empty_rhs(self, rng):
        factors = lu_factor(complex_normal(rng, 3, 3))
        assert factors.solve(np.ones((3, 0))).shape == (3, 0)

