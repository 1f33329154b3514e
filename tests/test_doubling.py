import gc
import tracemalloc

import numpy as np
import pytest

from qdoubling import (
    BreakdownError,
    Kernel,
    Permutation,
    SfqPencil,
    StopMode,
    check_stop,
    compute_w,
    compute_wt,
    gen_solved_sfq,
    select_kernel,
    step_sf1,
    step_sf2,
    step_w,
    step_wt,
    swap_perm,
)

import doubling_reference as ref
from conftest import complex_normal, random_sfq


def scalar_pencil(e, f, x, y, q2=None):
    q1 = Permutation.identity(2)
    q2 = q2 or Permutation.identity(2)
    return SfqPencil(m=1, n=1, E=[[e]], F=[[f]], X=[[x]], Y=[[y]], Q1=q1, Q2=q2)


class TestW:
    def test_equal_qs(self, rng):
        p = random_sfq(rng, 3, 4, random_q=False)
        w = compute_w(p)
        np.testing.assert_allclose(w, np.eye(4) - p.X @ p.Y, atol=0)
        wt = compute_wt(p)
        np.testing.assert_allclose(wt, np.eye(3) - p.Y @ p.X, atol=0)

    def test_block_swap(self, rng):
        n = 3
        p = SfqPencil(m=n, n=n, E=complex_normal(rng, n, n), F=complex_normal(rng, n, n),
                      X=complex_normal(rng, n, n), Y=complex_normal(rng, n, n),
                      Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n))
        np.testing.assert_array_equal(compute_w(p), p.Y - p.X)
        np.testing.assert_array_equal(compute_wt(p), p.X - p.Y)

    def test_matches_bracket_product(self, rng):
        p = random_sfq(rng, 3, 5)
        qprod = ref.perm_matrix(p.Q1) @ ref.perm_matrix(p.Q2).T
        left = np.hstack([-p.X, np.eye(5)])
        right = np.vstack([p.Y, np.eye(5)])
        expected = left @ qprod @ right
        assert np.linalg.norm(compute_w(p) - expected) <= 1e-14 * max(1, np.linalg.norm(expected))

    def test_nonsingularity_covaries(self, rng):
        from qdoubling.linalg import lu_factor
        for _ in range(20):
            p = random_sfq(rng, 4, 4, scale=0.5)
            cw = lu_factor(compute_w(p)).condition_estimate
            cwt = lu_factor(compute_wt(p)).condition_estimate
            # both well-conditioned together on tame draws
            assert cw < 1e6 and cwt < 1e6


class TestStepW:
    def test_decoupled_scalar_squares(self):
        out = step_w(scalar_pencil(0.5, 0.25, 0.0, 0.0))
        assert out.next.E[0, 0] == 0.25
        assert out.next.F[0, 0] == 0.0625
        assert out.next.X[0, 0] == 0.0
        assert out.next.Y[0, 0] == 0.0

    def test_scalar_hand_values(self):
        out = step_w(scalar_pencil(0.5, 0.5, 0.2, 0.3))
        w = 1 - 0.2 * 0.3
        assert out.next.E[0, 0] == pytest.approx(0.25 / w, rel=1e-14)
        assert out.next.F[0, 0] == pytest.approx(0.25 / w, rel=1e-14)
        assert out.next.X[0, 0] == pytest.approx(0.2 + 0.05 / w, rel=1e-14)
        assert out.next.Y[0, 0] == pytest.approx(0.3 + 0.075 / w, rel=1e-14)

    def test_kernels_agree(self, rng):
        for _ in range(30):
            p = random_sfq(rng, 3, 5, scale=0.5)
            a = step_w(p).next
            b = step_wt(p).next
            for blk in "EFXY":
                x, y = getattr(a, blk), getattr(b, blk)
                assert np.linalg.norm(x - y) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_preserves_sizes_and_qs(self, rng):
        p = random_sfq(rng, 2, 4)
        out = step_w(p)
        assert (out.next.m, out.next.n) == (2, 4)
        assert out.next.Q1 == p.Q1 and out.next.Q2 == p.Q2
        assert out.kernel is Kernel.W

    def test_breakdown_on_singular_w(self):
        # Q1 = Q2, X = Y = I makes W = I - XY singular
        p = SfqPencil(m=2, n=2, E=np.eye(2), F=np.eye(2), X=np.eye(2), Y=np.eye(2),
                      Q1=Permutation.identity(4), Q2=Permutation.identity(4))
        with pytest.raises(BreakdownError):
            step_w(p)

    @pytest.mark.parametrize("kernel", [step_w, step_wt])
    def test_peak_memory_is_a_few_blocks(self, kernel):
        # the next pencil is 4 blocks; each temporary is dropped once used,
        # so the step peaks near 6 (12 when all were kept to the end)
        p = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3).pencil
        gc.collect()
        tracemalloc.start()
        try:
            kernel(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * p.E.nbytes


def assert_same_pencil(got, want):
    assert got.Q1 == want.Q1 and got.Q2 == want.Q2
    for blk in "EFXY":
        np.testing.assert_array_equal(getattr(got, blk), getattr(want, blk))


class TestSpecializations:
    def test_sf1_zero_xy(self, rng):
        e = complex_normal(rng, 3, 3)
        f = complex_normal(rng, 3, 3)
        z = np.zeros((3, 3), dtype=complex)
        nxt = step_sf1(e, f, z, z).next
        en, fn, xn, yn = nxt.E, nxt.F, nxt.X, nxt.Y
        np.testing.assert_allclose(en, e @ e, atol=0)
        np.testing.assert_allclose(fn, f @ f, atol=0)
        np.testing.assert_array_equal(xn, z)
        np.testing.assert_array_equal(yn, z)

    def test_sf1_half_identity(self):
        eye = np.eye(2, dtype=complex)
        nxt = step_sf1(eye, eye, 0.5 * eye, 0.5 * eye).next
        en, fn, xn, yn = nxt.E, nxt.F, nxt.X, nxt.Y
        np.testing.assert_allclose(en, (4.0 / 3.0) * eye, rtol=1e-14)
        np.testing.assert_allclose(fn, (4.0 / 3.0) * eye, rtol=1e-14)
        np.testing.assert_allclose(xn, (7.0 / 6.0) * eye, rtol=1e-14)
        np.testing.assert_allclose(yn, (7.0 / 6.0) * eye, rtol=1e-14)

    def test_sf1_matches_step_w_identity_qs(self, rng):
        p = random_sfq(rng, 3, 3, scale=0.4, random_q=False)
        out = step_w(p).next
        assert_same_pencil(step_sf1(p.E, p.F, p.X, p.Y).next, out)
        en, fn, xn, yn = ref.step_sf1(p.E, p.F, p.X, p.Y)
        for got, expected in ((out.E, en), (out.F, fn), (out.X, xn), (out.Y, yn)):
            assert np.linalg.norm(got - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))

    def test_sf2_scalar_example(self):
        p = scalar_pencil(1.0, 1.0, 2.0, 0.0, q2=swap_perm(1, 1))
        out = step_wt(p).next
        nxt = step_sf2(np.eye(1, dtype=complex), np.eye(1, dtype=complex),
                       2.0 * np.eye(1), np.zeros((1, 1))).next
        en, fn, xn, yn = nxt.E, nxt.F, nxt.X, nxt.Y
        assert out.E[0, 0] == pytest.approx(0.5) and en[0, 0] == pytest.approx(0.5)
        assert out.F[0, 0] == pytest.approx(-0.5) and fn[0, 0] == pytest.approx(-0.5)
        assert out.X[0, 0] == pytest.approx(2.5) and xn[0, 0] == pytest.approx(2.5)
        assert out.Y[0, 0] == pytest.approx(-0.5) and yn[0, 0] == pytest.approx(-0.5)

    def test_sf2_matches_step_w_swap_qs(self, rng):
        n = 3
        p = SfqPencil(m=n, n=n, E=complex_normal(rng, n, n, 0.4),
                      F=complex_normal(rng, n, n, 0.4),
                      X=complex_normal(rng, n, n, 0.4) + np.eye(n),
                      Y=complex_normal(rng, n, n, 0.4) - np.eye(n),
                      Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n))
        out = step_w(p).next
        assert_same_pencil(step_sf2(p.E, p.F, p.X, p.Y).next, out)
        en, fn, xn, yn = ref.step_sf2(p.E, p.F, p.X, p.Y)
        for got, expected in ((out.E, en), (out.F, fn), (out.X, xn), (out.Y, yn)):
            assert np.linalg.norm(got - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))

    def test_kernel_selection(self):
        assert select_kernel(3, 2) is Kernel.W
        assert select_kernel(3, 3) is Kernel.W
        assert select_kernel(2, 3) is Kernel.WTILDE


class TestCheckStop:
    def test_kahan_arithmetic_example(self):
        # diffs (1e-2, 1e-4): LHS = 1e-8 / (1e-2 - 1e-4) ~ 1.0101e-6 <= 1e-5
        assert check_stop([1e-2, 1e-4], 1.0, 1e-5, StopMode.KAHAN)
        assert not check_stop([1e-2, 1e-4], 1.0, 1e-7, StopMode.KAHAN)

    def test_identical_iterates_stop_plain(self):
        assert check_stop([0.0], 1.0, 1e-300, StopMode.PLAIN)
        assert check_stop([0.0], 0.0, 1e-300, StopMode.PLAIN)

    def test_increasing_diffs_fall_back(self):
        # Kahan denominator <= 0: falls back to the plain rule, which fails
        assert not check_stop([1e-4, 2e-4], 1.0, 1e-5, StopMode.KAHAN)
        # ... and succeeds when the plain rule itself passes
        assert check_stop([1e-7, 2e-7], 1.0, 1e-5, StopMode.KAHAN)

    def test_needs_history(self):
        assert not check_stop([], 1.0, 1e-5, StopMode.PLAIN)
