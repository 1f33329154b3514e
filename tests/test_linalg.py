import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdoubling import (
    Permutation,
    SfqPencil,
    RankDeficientError,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    permute_rows,
    thin_qr,
)
from qdoubling.linalg import (
    ROW_BLOCK,
    AbsSums,
    abs_sums,
    frozen,
    qr_in_place,
    row_blocks,
    sealed,
    solve_transposed,
    two_est,
)

from conftest import complex_normal


class TestLuSolve:
    def test_identity(self, rng):
        b = complex_normal(rng, 4, 2)
        np.testing.assert_allclose(lu_solve(np.eye(4), b), b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0]).astype(complex)
        b = np.array([[2.0], [8.0]], dtype=complex)
        np.testing.assert_allclose(lu_solve(a, b), [[1.0], [2.0]])

    def test_residual_random(self, rng):
        a = complex_normal(rng, 6, 6)
        b = complex_normal(rng, 6, 2)
        x = lu_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_raises_with_pivot_index(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        a[1, 1] = 1.0
        with pytest.raises(SingularMatrixError) as exc:
            lu_solve(a, np.eye(3))
        assert exc.value.pivot_index == 2

    def test_recovers_solution_controlled_condition(self, rng):
        # a = U diag V^H with condition 1e6 via orthonormal factors
        u, _ = thin_qr(complex_normal(rng, 8, 8))
        v, _ = thin_qr(complex_normal(rng, 8, 8))
        d = np.diag(np.logspace(0, -6, 8)).astype(complex)
        a = u @ d @ v.conj().T
        y = complex_normal(rng, 8, 3)
        x = lu_solve(a, a @ y)
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)

    def test_solve_transposed(self, rng):
        a = complex_normal(rng, 5, 5)
        c = complex_normal(rng, 3, 5)
        x = solve_transposed(a, c)
        assert np.linalg.norm(x @ a - c) <= 1e-12 * np.linalg.norm(c)

    def test_overwriting_solve_takes_a_fortran_rhs_storage(self, rng):
        factors = lu_factor(complex_normal(rng, 6, 6))
        b = complex_normal(rng, 6, 4)
        want = factors.solve(b)
        fortran = np.array(b, order="F")
        got = factors.solve(fortran, overwrite_b=True)
        assert np.shares_memory(got, fortran)
        assert got.tobytes() == want.tobytes()
        kept = b.copy()     # a C-ordered right-hand side is copied and left alone
        assert factors.solve(b, overwrite_b=True).tobytes() == want.tobytes()
        np.testing.assert_array_equal(b, kept)

    def test_condition_estimate_finite(self, rng):
        factors = lu_factor(complex_normal(rng, 6, 6))
        assert 1.0 <= factors.condition_estimate < np.inf
        assert factors.min_pivot > 0


class TestThinQr:
    def test_already_orthonormal(self):
        z = np.zeros((4, 2), dtype=complex)
        z[0, 0] = 1.0
        z[1, 1] = 1.0
        u, r = thin_qr(z)
        np.testing.assert_allclose(np.abs(u), np.abs(z), atol=1e-15)
        np.testing.assert_allclose(np.abs(r), np.eye(2), atol=1e-15)

    def test_single_column_up_to_phase(self):
        z = np.array([[2.0], [0.0]], dtype=complex)
        u, r = thin_qr(z)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-15
        assert abs(u[1, 0]) <= 1e-15
        assert abs(abs(r[0, 0]) - 2.0) <= 1e-15

    def test_reconstruction(self, rng):
        z = complex_normal(rng, 8, 3)
        u, r = thin_qr(z)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12
        assert np.linalg.norm(u @ r - z) <= 1e-12 * np.linalg.norm(z)

    def test_rank_deficient(self, rng):
        col = complex_normal(rng, 5, 1)
        z = np.hstack([col, 2 * col])
        with pytest.raises(RankDeficientError):
            thin_qr(z)

    def test_leaves_its_input_alone(self, rng):
        z = complex_normal(rng, 8, 3)
        kept = z.copy()
        thin_qr(z)
        np.testing.assert_array_equal(z, kept)

    def test_in_place_factor_reuses_the_storage(self, rng):
        # the basis and its Q factor are never held at once
        z = complex_normal(rng, 40, 7)
        a = np.array(z, order="F")
        u, r = qr_in_place(a)
        assert np.shares_memory(u, a)
        assert np.linalg.norm(u @ r - z) <= 1e-12 * np.linalg.norm(z)


class TestNorms:
    def test_row_blocked_sums_keep_the_bits(self, rng):
        rows = 2 * ROW_BLOCK + 7
        a = complex_normal(rng, rows, 9) * 10.0 ** rng.uniform(-8, 8, size=(rows, 9))
        col, row = abs_sums(a)
        assert col.tobytes() == np.abs(a).sum(axis=0).tobytes()
        assert row.tobytes() == np.abs(a).sum(axis=1).tobytes()

    @pytest.mark.parametrize("block", [1, 32, 100, 263])
    def test_sums_fed_in_any_blocks_keep_the_bits(self, rng, block):
        a = complex_normal(rng, 263, 9) * 10.0 ** rng.uniform(-8, 8, size=(263, 9))
        sums = AbsSums(9)
        for rows in row_blocks(263, block):
            sums.add(a[rows])
        assert sums.col.tobytes() == np.abs(a).sum(axis=0).tobytes()
        assert sums.row.tobytes() == np.abs(a).sum(axis=1).tobytes()
        assert sums.two_est() == two_est(a)

    def test_two_est_upper_bounds_power_iteration(self, rng):
        a = complex_normal(rng, 5, 5)
        # power iteration on a^H a as an independent lower-bound oracle
        v = complex_normal(rng, 5, 1)
        for _ in range(200):
            v = a.conj().T @ (a @ v)
            v /= np.linalg.norm(v)
        sigma = float(np.linalg.norm(a @ v))
        assert two_est(a) >= sigma - 1e-10


class TestPermutation:
    def test_identity_roundtrip(self, rng):
        p = Permutation.identity(5)
        a = complex_normal(rng, 5, 3)
        np.testing.assert_array_equal(permute_rows(p, a), a)

    def test_swap_rows(self):
        p = Permutation(np.array([1, 0]))
        a = np.array([[1.0], [2.0]], dtype=complex)
        np.testing.assert_array_equal(permute_rows(p, a), [[2.0], [1.0]])

    def test_apply_then_inverse_exact(self, rng):
        p = Permutation(rng.permutation(7))
        a = complex_normal(rng, 7, 4)
        np.testing.assert_array_equal(permute_rows(p, permute_rows(p, a), transpose=True), a)

    def test_matrix_semantics(self, rng):
        p = Permutation(rng.permutation(6))
        a = complex_normal(rng, 6, 6)
        np.testing.assert_array_equal(permute_rows(p, a), p.matrix() @ a)
        np.testing.assert_array_equal(permute_rows(p, a, transpose=True), p.matrix().T @ a)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
    def test_compose_matches_matrix_product(self, n, pyrandom):
        idx1 = list(range(n))
        idx2 = list(range(n))
        pyrandom.shuffle(idx1)
        pyrandom.shuffle(idx2)
        p, q = Permutation(np.array(idx1)), Permutation(np.array(idx2))
        np.testing.assert_array_equal(p.compose(q).matrix(), p.matrix() @ q.matrix())
        np.testing.assert_array_equal(p.inverse().matrix(), p.matrix().T)


class TestSealed:
    def test_frozen_keeps_a_sealed_array(self, rng):
        a = complex_normal(rng, 3, 4)
        assert frozen(sealed(a)) is a
        b, c = sealed(complex_normal(rng, 2, 2), complex_normal(rng, 1, 2))
        assert frozen(b) is b and frozen(c) is c

    def test_a_callers_array_is_still_copied(self, rng):
        a = complex_normal(rng, 3, 3)
        got = frozen(a)
        assert got is not a and a.flags.writeable
        np.testing.assert_array_equal(got, a)

    def test_pencil_block_from_sealed_output_is_read_only(self, rng):
        e, f, x, y = sealed(complex_normal(rng, 2, 2), complex_normal(rng, 1, 1),
                            complex_normal(rng, 1, 2), complex_normal(rng, 2, 1))
        p = SfqPencil(m=2, n=1, E=e, F=f, X=x, Y=y,
                      Q1=Permutation.identity(3), Q2=Permutation.identity(3))
        assert p.E is e and p.Y is y
        with pytest.raises(ValueError):
            p.X[0, 1] = 1.0
        with pytest.raises(ValueError):
            e[0, 0] = 1.0
