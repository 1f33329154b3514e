import gc
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdoubling
from qdoubling import (
    Permutation,
    SfqPencil,
    RankDeficientError,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    thin_qr,
)
from qdoubling.linalg import (
    ROW_BLOCK,
    abs_sums,
    frozen,
    lanes,
    norm_inf,
    qr_in_place,
    sealed,
    solve_transposed,
    two_est,
)

from conftest import complex_normal
from doubling_reference import perm_matrix


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

    def test_factor_holds_only_its_lu_copy(self, rng):
        # the singularity threshold's row sums of |a| are taken over blocks
        # of rows before zgetrf copies a, so only the LU copy is held
        a = complex_normal(rng, 250, 250)
        gc.collect()
        tracemalloc.start()
        try:
            lu_factor(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * a.nbytes

    def test_overwriting_factor_takes_a_fortran_storage(self, rng):
        a = complex_normal(rng, 7, 7)
        want = lu_factor(a)
        fortran = np.array(a, order="F")
        got = lu_factor(fortran, overwrite_a=True)
        assert np.shares_memory(got.lu, fortran)
        assert got.lu.tobytes() == want.lu.tobytes()
        np.testing.assert_array_equal(got.piv, want.piv)

    def test_threads_may_share_one_factorization(self):
        # scipy's zgetrs wrapper shifts the pivot array it is given to 1-based
        # and back in place, so two threads solving with one shared array
        # corrupted the heap (an abort) or returned wrong bits.  It runs in a
        # subprocess, so that an abort fails this test and not the suite.
        script = textwrap.dedent("""
            import sys, threading
            import numpy as np
            sys.path.insert(0, sys.argv[1])
            from qdoubling import lu_factor
            rng = np.random.default_rng(5)
            n = 200
            factors = lu_factor(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            rhs = [rng.standard_normal((n, 50)) + 0j for _ in range(2)]
            want = [factors.solve(b).tobytes() for b in rhs]
            wrong = 0
            for _ in range(100):
                got = [None, None]
                def solve(k):
                    got[k] = factors.solve(rhs[k])
                threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wrong += sum(got[k].tobytes() != want[k] for k in range(2))
            print(wrong)
        """)
        src = str(Path(qdoubling.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, src],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["0"]

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
        # the basis and its Q factor are never held at once; R is made too,
        # and the safeguard drops it before its Gram stage
        z = complex_normal(rng, 40, 7)
        a = np.array(z, order="F")
        u, _ = qr_in_place(a)
        assert np.shares_memory(u, a)
        assert u.tobytes() == thin_qr(z)[0].tobytes()
        assert np.linalg.norm(u @ (u.conj().T @ z) - z) <= 1e-12 * np.linalg.norm(z)

    @pytest.mark.parametrize("shape, match", [((2, 3), "1 <= cols <= rows"),
                                              ((4, 0), "1 <= cols <= rows"),
                                              ((0, 0), "1 <= cols <= rows"),
                                              ((4,), "expected a 2-D matrix")],
                             ids=["wide", "no-columns", "empty", "vector"])
    def test_refuses_a_shape_with_no_thin_factor(self, shape, match):
        # a basis of no columns used to reach LAPACK, which printed to stdout
        with pytest.raises(ValueError, match=match):
            thin_qr(np.ones(shape))

    def test_in_place_factor_checks_the_rank(self, rng):
        col = complex_normal(rng, 5, 1)
        with pytest.raises(RankDeficientError):
            qr_in_place(np.array(np.hstack([col, 2 * col]), order="F"))


class TestNorms:
    #: Relative bound on a sum of ``k`` nonnegative terms taken in another
    #: order, fixed from the dtype and the size before the first run.
    @staticmethod
    def bound(k):
        return 4 * k * np.finfo(np.float64).eps

    @staticmethod
    def graded(rng, rows, cols):
        return complex_normal(rng, rows, cols) * 10.0 ** rng.uniform(-8, 8, size=(rows, cols))

    def test_row_blocked_sums_match_numpy(self, rng):
        rows = 2 * ROW_BLOCK + 7
        a = self.graded(rng, rows, 9)
        col, row = abs_sums(a)
        ref_col, ref_row = np.abs(a).sum(axis=0), np.abs(a).sum(axis=1)
        assert np.all(np.abs(col - ref_col) <= self.bound(rows) * ref_col)
        # each row of a C-ordered matrix is summed on its own, whole or in blocks
        assert row.tobytes() == ref_row.tobytes()

    @pytest.mark.parametrize("rows", [1, 32, 100, 263])
    def test_two_est_matches_numpy(self, rng, rows):
        a = self.graded(rng, rows, 9)
        mag = np.abs(a)
        ref = np.sqrt(mag.sum(axis=0).max()) * np.sqrt(mag.sum(axis=1).max())
        assert abs(two_est(a) - ref) <= self.bound(rows) * ref

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_norm_inf_matches_numpy(self, rng, order):
        # 2 * ROW_BLOCK + 1 rows leave a last block of one row
        for n in (1, 5, ROW_BLOCK, 2 * ROW_BLOCK + 1):
            a = np.array(self.graded(rng, n, n), order=order)
            ref = np.abs(a).sum(axis=1).max()
            if order == "C":    # each row is summed on its own, whole or in blocks
                assert norm_inf(a) == ref
            else:
                assert abs(norm_inf(a) - ref) <= self.bound(n) * ref

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
        np.testing.assert_array_equal(a[p.image], a)
        np.testing.assert_array_equal(perm_matrix(p), np.eye(5))

    def test_swap_rows(self):
        p = Permutation(np.array([1, 0]))
        a = np.array([[1.0], [2.0]], dtype=complex)
        np.testing.assert_array_equal(a[p.image], [[2.0], [1.0]])
        np.testing.assert_array_equal(perm_matrix(p) @ a, [[2.0], [1.0]])

    def test_apply_then_inverse_exact(self, rng):
        p = Permutation(rng.permutation(7))
        a = complex_normal(rng, 7, 4)
        np.testing.assert_array_equal(a[p.image][p.inverse().image], a)
        np.testing.assert_array_equal(a[p.inverse().image][p.image], a)

    def test_matrix_semantics(self, rng):
        # Q @ a gathers rows by the image, Q.T @ a by the inverse image
        p = Permutation(rng.permutation(6))
        a = complex_normal(rng, 6, 6)
        np.testing.assert_array_equal(a[p.image], perm_matrix(p) @ a)
        np.testing.assert_array_equal(a[p.inverse().image], perm_matrix(p).T @ a)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    # each image but the last used to be read as an index vector: [0.7, 1.2]
    # as [0, 1], the bools as [1, 0]; the last raised OverflowError
    @pytest.mark.parametrize("image", [[0.7, 1.2], [True, False], np.array([1.0, 0.0]),
                                       [0, 10**23]],
                             ids=["fractions", "bools", "float-array", "past-intp"])
    def test_rejects_an_image_of_non_integers(self, image):
        with pytest.raises(ValueError, match="permutation image entries must be integers"):
            Permutation(image)

    def test_rejects_an_image_that_is_not_a_vector(self):
        with pytest.raises(ValueError, match="must be a 1-D index vector"):
            Permutation(np.array([[1], [0]]))

    def test_composes_only_equal_sizes(self):
        with pytest.raises(ValueError, match="different sizes"):
            Permutation.identity(3).compose(Permutation.identity(2))

    def test_empty_image_is_the_empty_permutation(self):
        assert Permutation([]) == Permutation.identity(0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False))
    def test_compose_matches_matrix_product(self, n, pyrandom):
        idx1 = list(range(n))
        idx2 = list(range(n))
        pyrandom.shuffle(idx1)
        pyrandom.shuffle(idx2)
        p, q = Permutation(np.array(idx1)), Permutation(np.array(idx2))
        np.testing.assert_array_equal(perm_matrix(p.compose(q)), perm_matrix(p) @ perm_matrix(q))
        np.testing.assert_array_equal(perm_matrix(p.inverse()), perm_matrix(p).T)


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


def in_thread(fn, timeout=60):
    """``fn()`` on a fresh thread, joined with a timeout; its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive() and out
    return out[0]


class TestLanes:
    def test_every_piece_runs_once_in_order(self):
        # four callers with a helper each, eight threads on fewer cores, and
        # the GIL handed over as often as it can be: a piece claimed twice or
        # lost would show in the counts or the order of the results
        def call(k):
            runs = [0] * 300

            def piece(i):
                runs[i] += 1
                return k, i

            pieces = [partial(piece, i) for i in range(300)]
            with ThreadPoolExecutor(max_workers=1) as helper:
                for _ in range(20):
                    mine, results = lanes(helper, pieces, own=lambda: k)
                    assert mine == k and results == [(k, i) for i in range(300)]
            return runs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                counts = list(callers.map(call, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert counts == [[20] * 300] * 4

    def test_an_idle_helper_is_not_waited_for(self):
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as helper:
            blocked = helper.submit(release.wait, 60)    # the helper cannot start a lane
            try:
                assert in_thread(lambda: lanes(helper, [lambda: 1, lambda: 2])) == (None, [1, 2])
                assert not release.is_set()
            finally:
                release.set()
            assert blocked.result(timeout=60)

    @pytest.mark.parametrize("helper_raises", [False, True])
    def test_the_callers_error_wins_and_the_helper_is_drained(self, helper_raises):
        started, release = threading.Event(), threading.Event()
        ran = []

        def slow_helper_piece():
            started.set()
            release.wait(60)
            time.sleep(0.05)
            ran.append("helper")
            if helper_raises:
                raise ValueError("helper")

        def failing_own():
            started.wait(60)
            release.set()
            raise KeyError("caller")

        with ThreadPoolExecutor(max_workers=1) as helper:
            with pytest.raises(KeyError):
                lanes(helper, [slow_helper_piece, lambda: ran.append("other")], own=failing_own)
            # before the executor's shutdown: the helper's piece ended first,
            # and no lane took the other
            assert ran == ["helper"]

    def test_a_helper_error_ends_the_callers_lane(self):
        raised = threading.Event()
        ran = []

        def failing_helper_piece():
            raised.set()
            raise ValueError("helper")

        def own():
            raised.wait(60)
            time.sleep(0.05)    # the helper's lane has ended by now

        with ThreadPoolExecutor(max_workers=1) as helper:
            with pytest.raises(ValueError):
                lanes(helper, [failing_helper_piece, lambda: ran.append("other")], own=own)
        assert ran == []
