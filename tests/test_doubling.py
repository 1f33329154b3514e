import gc
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qdoubling.doubling
import qdoubling.linalg
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
    step_w,
    step_wt,
    swap_perm,
)
from qdoubling.sfq import dual

import doubling_reference as ref
from conftest import complex_normal, draining_helper, random_sfq


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
        # so a step on one lane peaks near 5 (12 when all were kept to the end)
        p = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3).pencil
        gc.collect()
        tracemalloc.start()
        try:
            kernel(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * p.E.nbytes


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
        # SDASF2 is the W-rule on its own pencil, Q1 = I and Q2 the block swap
        p = scalar_pencil(1.0, 1.0, 2.0, 0.0, q2=swap_perm(1, 1))
        out = step_wt(p).next
        nxt = step_w(p).next
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
        en, fn, xn, yn = ref.step_sf2(p.E, p.F, p.X, p.Y)
        for got, expected in ((out.E, en), (out.F, fn), (out.X, xn), (out.Y, yn)):
            assert np.linalg.norm(got - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))

    def test_sf2_requires_square_x(self, rng):
        e, f = complex_normal(rng, 2, 2), complex_normal(rng, 2, 2)
        with pytest.raises(ValueError, match="^X has shape"):
            SfqPencil(m=2, n=2, E=e, F=f, X=complex_normal(rng, 2, 3),
                      Y=complex_normal(rng, 3, 2), Q1=Permutation.identity(4),
                      Q2=swap_perm(2, 2))

    def test_kernel_selection(self):
        assert select_kernel(3, 2) is Kernel.W
        assert select_kernel(3, 3) is Kernel.W
        assert select_kernel(2, 3) is Kernel.WTILDE


class TestCheckStop:
    """``check_stop(d_now, d_prev, x_norm, rtol, mode)``: the last update norm
    and the one before it, None at the first step."""

    def test_kahan_arithmetic_example(self):
        # norms 1e-2 then 1e-4: LHS = 1e-8 / (1e-2 - 1e-4) ~ 1.0101e-6 <= 1e-5
        assert check_stop(1e-4, 1e-2, 1.0, 1e-5, StopMode.KAHAN)
        assert not check_stop(1e-4, 1e-2, 1.0, 1e-7, StopMode.KAHAN)

    def test_identical_iterates_stop_plain(self):
        assert check_stop(0.0, None, 1.0, 1e-300, StopMode.PLAIN)
        assert check_stop(0.0, None, 0.0, 1e-300, StopMode.PLAIN)

    def test_increasing_diffs_fall_back(self):
        # Kahan denominator < 0: falls back to the plain rule, which fails
        assert not check_stop(2e-4, 1e-4, 1.0, 1e-5, StopMode.KAHAN)
        # ... and succeeds when the plain rule itself passes
        assert check_stop(2e-7, 1e-7, 1.0, 1e-5, StopMode.KAHAN)

    def test_equal_diffs_fall_back(self):
        # Kahan denominator exactly 0: the plain rule decides, with no division
        assert not check_stop(1e-4, 1e-4, 1.0, 1e-5, StopMode.KAHAN)
        assert check_stop(1e-7, 1e-7, 1.0, 1e-5, StopMode.KAHAN)

    def test_first_step_reads_the_plain_rule(self):
        assert not check_stop(1e-4, None, 1.0, 1e-5, StopMode.KAHAN)
        assert check_stop(1e-7, None, 1.0, 1e-5, StopMode.KAHAN)


# ---------------------------------------------------------------------------
# Two lanes
# ---------------------------------------------------------------------------


def force_step_lanes(monkeypatch, executor=ThreadPoolExecutor) -> list:
    """Run every doubling step on two lanes; the list grows by one per phase
    handed to the helper."""
    phases = []

    class Counting(executor):
        def submit(self, *args, **kwargs):
            phases.append(None)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(qdoubling.doubling, "LANE_MIN_MULTIPLY_ADDS", 0)
    monkeypatch.setattr(qdoubling.doubling, "ThreadPoolExecutor", Counting)
    return phases


def lane_cases():
    """(name, step) pairs covering m < n, m > n, r = 0, r = m, SDASF1 and SDASF2."""
    rng = np.random.default_rng(23)
    cases = []
    for m, n in ((13, 21), (21, 13)):
        p = random_sfq(rng, m, n)
        cases += [(f"step_w {m}x{n}", step_w, p), (f"step_wt {m}x{n}", step_wt, p)]
    m, n = 9, 16
    rolled = Permutation(np.roll(np.arange(m + n), -m))     # no 1 of P in Q11: r = 0
    p = SfqPencil(m=m, n=n, E=complex_normal(rng, m, m, 0.4), F=complex_normal(rng, n, n, 0.4),
                  X=complex_normal(rng, n, m, 0.4), Y=complex_normal(rng, m, n, 0.4),
                  Q1=rolled, Q2=Permutation.identity(m + n))
    cases += [("r = 0", step_w, p), ("r = 0, dual", step_wt, dual(p))]
    p = random_sfq(rng, 16, 11, random_q=False)                 # Q1 = Q2 = I: r = m
    cases += [("r = m", step_w, p),
              ("sdasf1", lambda q: step_sf1(q.E, q.F, q.X, q.Y), p)]
    n = 14
    p = SfqPencil(m=n, n=n, E=complex_normal(rng, n, n, 0.4), F=complex_normal(rng, n, n, 0.4),
                  X=complex_normal(rng, n, n, 0.4) + np.eye(n),
                  Y=complex_normal(rng, n, n, 0.4) - np.eye(n),
                  Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n))
    cases.append(("sdasf2", step_w, p))
    return cases


def assert_same_steps(cases, got, want) -> None:
    """Each step outcome in ``got`` has the bits of its twin in ``want``."""
    for (name, _, _), g, w in zip(cases, got, want):
        assert (g.w_condition, g.w_min_pivot) == (w.w_condition, w.w_min_pivot)
        for blk in "EFXY":
            assert getattr(g.next, blk).tobytes() == getattr(w.next, blk).tobytes(), (name, blk)


def singular_w() -> SfqPencil:
    """Q1 = Q2, X = Y = I: W = I - XY is singular."""
    return SfqPencil(m=2, n=2, E=np.eye(2), F=np.eye(2), X=np.eye(2), Y=np.eye(2),
                     Q1=Permutation.identity(4), Q2=Permutation.identity(4))


class TestLanes:
    def test_lanes_give_the_serial_bits(self, monkeypatch):
        cases = lane_cases()
        serial = [step(p) for _, step, p in cases]      # every case is below the threshold
        phases = force_step_lanes(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # the lanes hand the GIL over as often as they can
        try:
            laned = [step(p) for _, step, p in cases]
        finally:
            sys.setswitchinterval(interval)
        assert len(phases) == 4 * len(cases)
        assert_same_steps(cases, laned, serial)

    def test_small_steps_start_no_thread(self, monkeypatch):
        made = []

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(qdoubling.doubling, "ThreadPoolExecutor", Counting)
        for _, step, p in lane_cases():
            step(p)
        assert not made
        monkeypatch.setattr(qdoubling.doubling, "LANE_MIN_MULTIPLY_ADDS", 0)
        step_w(lane_cases()[0][2])
        assert made == [None]       # one helper for the whole step

    def test_helper_is_joined_on_return_and_on_breakdown(self, monkeypatch):
        phases = force_step_lanes(monkeypatch)
        before = threading.active_count()
        step_w(random_sfq(np.random.default_rng(2), 6, 7))
        assert phases and threading.active_count() == before
        phases.clear()
        with pytest.raises(BreakdownError):
            step_w(singular_w())
        assert phases and threading.active_count() == before

    def test_helper_error_surfaces_in_the_caller(self, monkeypatch):
        # E near the overflow threshold: G = X Q11 E overflows, W = I - XY does not
        helper, threads = draining_helper()
        force_step_lanes(monkeypatch, helper)
        p = random_sfq(np.random.default_rng(3), 8, 8, random_q=False)
        p = SfqPencil(m=8, n=8, E=np.full((8, 8), 1e308, dtype=complex), F=p.F, X=p.X,
                      Y=p.Y, Q1=p.Q1, Q2=p.Q2)
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            step_w(p)       # the helper takes G first, in the caller's error state
        assert threads and threading.get_ident() not in threads
        assert threading.active_count() == before

    def test_traced_calls_stay_on_the_caller_but_the_s_solve(self, monkeypatch):
        helper, threads = draining_helper()     # the helper takes every shared piece
        force_step_lanes(monkeypatch, helper)
        seen = {}

        def on_thread(owner, name, label=None):
            call = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.setdefault(label(*args) if label else name, set()).add(threading.get_ident())
                return call(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("compute_w", "compute_wt", "q_blocks_of", "lu_factor"):
            on_thread(qdoubling.doubling, name)
        # S = W^{-1} F solves with a sealed block of the pencil, T = W^{-1} G with a fresh G
        on_thread(qdoubling.linalg.LUFactors, "solve",
                  lambda _, b: "T" if b.flags.writeable else "S")
        for _, step, p in lane_cases():
            step(p)
        me = threading.get_ident()
        assert threads and me not in threads
        assert seen.pop("S") <= set(threads)
        assert seen == {name: {me} for name in
                        ("compute_w", "compute_wt", "q_blocks_of", "lu_factor", "T")}

    def test_the_two_solves_share_one_factorization_at_once(self, monkeypatch):
        # each solve waits at the barrier for the other, so T and S run on two
        # threads at the same time with the same LUFactors
        cases = lane_cases()
        serial = [step(p) for _, step, p in cases]
        force_step_lanes(monkeypatch)
        together = threading.Barrier(2, timeout=10)
        solve, threads = qdoubling.linalg.LUFactors.solve, set()

        def paired_solve(*args, **kwargs):
            together.wait()
            threads.add(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(qdoubling.linalg.LUFactors, "solve", paired_solve)
        laned = [step(p) for _, step, p in cases]
        assert len(threads) >= 2
        assert_same_steps(cases, laned, serial)

    def test_peak_memory_on_two_lanes(self, monkeypatch):
        # the next pencil is 4 blocks of m x m (two basis blocks at m = n), and
        # the phases hold at most two more: T, S and H beside E' and X' (or
        # S and H beside the next pencil), never the factors beside the
        # products with T
        p = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3).pencil
        force_step_lanes(monkeypatch)
        factors, alive_at_products = [], []
        factor, product_plus = qdoubling.doubling.lu_factor, qdoubling.doubling._product_plus

        def tracked_factor(*args, **kwargs):
            out = factor(*args, **kwargs)
            factors.append(weakref.ref(out))
            return out

        def checked_product_plus(*args):
            alive_at_products.append(any(ref() is not None for ref in factors))
            return product_plus(*args)

        monkeypatch.setattr(qdoubling.doubling, "lu_factor", tracked_factor)
        monkeypatch.setattr(qdoubling.doubling, "_product_plus", checked_product_plus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        peaks = []
        try:
            for kernel in (step_w, step_wt) * 4:
                gc.collect()
                tracemalloc.start()
                try:
                    kernel(p)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            sys.setswitchinterval(interval)
        basis_block = 2 * p.E.nbytes
        assert max(peaks) <= 4 * p.E.nbytes + 1.25 * basis_block
        assert len(alive_at_products) == 2 * len(peaks) and not any(alive_at_products)
