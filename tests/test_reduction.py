import gc
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qdoubling.reduction
import qdoubling.sfq
from qdoubling import (
    BreakdownError,
    CayleyParams,
    GeneralPencil,
    Idea,
    Permutation,
    SfqPencil,
    Variant,
    cayley,
    closed_form_init,
    gen_random_split,
    reduce_pencil,
    reduce_with_fallback,
    reinit,
)
from qdoubling.linalg import SingularMatrixError, solve_transposed

from conftest import complex_normal, draining_helper, random_sfq
from doubling_reference import assemble
from ground_truth import cayley_map, known_eigenpairs

ALL_REDUCTIONS = [(idea, variant)
                  for idea in (Idea.IDEA1, Idea.IDEA2, Idea.IDEA3)
                  for variant in (Variant.A_FIRST, Variant.B_FIRST)]


def count_frozen_copies(monkeypatch) -> list:
    """Shapes of the arrays ``frozen`` copies into pencils from now on."""
    copies = []
    keep = qdoubling.sfq.frozen

    def counting(a):
        out = keep(a)
        if out is not a:
            copies.append(np.shape(a))
        return out

    monkeypatch.setattr(qdoubling.sfq, "frozen", counting)
    return copies


def eigenpair_residual(a0, b0, pairs, gamma):
    worst = 0.0
    for lam, z in pairs:
        mu = cayley_map(lam, gamma)
        num = np.linalg.norm(a0 @ z - mu * (b0 @ z))
        den = (np.linalg.norm(a0) + abs(mu) * np.linalg.norm(b0)) * np.linalg.norm(z)
        worst = max(worst, num / den)
    return worst


def zero_band() -> GeneralPencil:
    """A with zero last-n rows: ideas 1 and 3 break down, idea 2 does not."""
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :] = [[1, 2, 3, 4], [5, 6, 7, 8]]
    return GeneralPencil(A=a, B=np.eye(4, dtype=complex), m=2, n=2)


def assert_failed_attempts_are_freed(monkeypatch):
    # a failed attempt's traceback holds its frames, and so its reducer
    # (an N-by-2N working pencil and its moduli) and the pencil
    refs = []
    make = qdoubling.reduction._Reducer

    def tracked(*args, **kwargs):
        red = make(*args, **kwargs)
        refs.append(weakref.ref(red))
        return red

    monkeypatch.setattr(qdoubling.reduction, "_Reducer", tracked)
    g = zero_band()
    gc.collect()
    gc.disable()   # only reference counting may free them
    try:
        rep = reduce_with_fallback(g, Idea.IDEA1, Variant.A_FIRST)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert rep.idea is Idea.IDEA2 and len(refs) == 3
    assert alive == [False, False, False]


class TestClosedForm:
    def test_reproduces_sfq_blocks(self):
        g = GeneralPencil(A=[[2, 0], [-1, 1]], B=[[1, -3], [0, 4]], m=1, n=1)
        p = closed_form_init(g, Permutation.identity(2), Permutation.identity(2))
        assert p.E[0, 0] == pytest.approx(2.0)
        assert p.X[0, 0] == pytest.approx(1.0)
        assert p.Y[0, 0] == pytest.approx(3.0)
        assert p.F[0, 0] == pytest.approx(4.0)

    def test_decoupled_diagonal(self):
        g = GeneralPencil(A=np.diag([5.0, 1.0]), B=np.diag([1.0, 7.0]), m=1, n=1)
        p = closed_form_init(g, Permutation.identity(2), Permutation.identity(2))
        assert p.E[0, 0] == pytest.approx(5.0)
        assert p.F[0, 0] == pytest.approx(7.0)
        assert abs(p.X[0, 0]) == 0.0
        assert abs(p.Y[0, 0]) == 0.0

    def test_left_factor_exists(self, rng):
        a = complex_normal(rng, 6, 6)
        b = complex_normal(rng, 6, 6)
        g = GeneralPencil(A=a, B=b, m=3, n=3)
        p = closed_form_init(g, Permutation.identity(6), Permutation.identity(6))
        a0, b0 = assemble(p)
        # P reconstructed from the A side must also map the B side
        pmat = solve_transposed(a, a0)
        assert np.linalg.norm(pmat @ b - b0) <= 1e-10 * np.linalg.norm(b0)

    def test_inadmissible_pair_raises(self):
        # B'11 = 0 and A'12 = 0 with scalar blocks makes the mixed matrix singular
        g = GeneralPencil(A=[[1, 0], [0, 1]], B=[[0, 1], [1, 0]], m=1, n=1)
        with pytest.raises(SingularMatrixError):
            closed_form_init(g, Permutation.identity(2), Permutation.identity(2))

    def test_blocks_are_kept_without_a_copy(self, rng, monkeypatch):
        g = GeneralPencil(A=complex_normal(rng, 7, 7), B=complex_normal(rng, 7, 7), m=3, n=4)
        q1, q2 = Permutation(rng.permutation(7)), Permutation(rng.permutation(7))
        copies = count_frozen_copies(monkeypatch)
        p = closed_form_init(g, q1, q2)
        assert copies == []
        assert all(getattr(p, blk).flags.owndata for blk in "EFXY")


class TestReductions:
    @pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
    def test_sfq_input_is_noop(self, rng, idea, variant):
        p = random_sfq(rng, 3, 4, scale=0.3, random_q=False)
        a, b = assemble(p)
        rep = reduce_pencil(GeneralPencil(A=a, B=b, m=3, n=4), idea, variant)
        np.testing.assert_array_equal(rep.pencil.X, p.X)
        np.testing.assert_array_equal(rep.pencil.Y, p.Y)
        np.testing.assert_array_equal(rep.pencil.E, p.E)
        np.testing.assert_array_equal(rep.pencil.F, p.F)

    @pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
    def test_eigenpair_invariance(self, idea, variant):
        gamma = -1.0
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=21)
        g = cayley(inst.pencil, CayleyParams(gamma))
        rep = reduce_pencil(g, idea, variant)
        a0, b0 = assemble(rep.pencil)
        pairs = known_eigenpairs(inst, count=6)
        assert eigenpair_residual(a0, b0, pairs, gamma) <= 1e-9

    @pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
    def test_exact_sfq_structure(self, idea, variant):
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=33)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        rep = reduce_pencil(g, idea, variant)
        p = rep.pencil
        a0, b0 = assemble(p)
        sa = a0[:, p.Q1.image]
        sb = b0[:, p.Q2.image]
        np.testing.assert_array_equal(sa[:3, 3:], np.zeros((3, 4)))
        np.testing.assert_array_equal(sa[3:, 3:], np.eye(4))
        np.testing.assert_array_equal(sb[:3, :3], np.eye(3))
        np.testing.assert_array_equal(sb[3:, :3], np.zeros((4, 3)))

    def test_report_fields(self):
        inst = gen_random_split(m=3, n=3, alpha=8.0, eta=1.0, seed=2)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        rep = reduce_pencil(g, Idea.IDEA2, Variant.B_FIRST)
        assert rep.idea is Idea.IDEA2 and rep.variant is Variant.B_FIRST
        assert rep.max_abs_x == pytest.approx(np.abs(rep.pencil.X).max())
        assert rep.max_abs_y == pytest.approx(np.abs(rep.pencil.Y).max())
        assert np.isfinite(rep.pivot_growth) and rep.pivot_growth >= 1.0

    def test_idea1_breakdown_on_zero_band(self):
        with pytest.raises(BreakdownError):
            reduce_pencil(zero_band(), Idea.IDEA1, Variant.A_FIRST)

    def test_fallback_recovers_from_idea_failure(self):
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :] = [[1, 2, 3, 4], [5, 6, 7, 8]]
        a[2, 0] = 1.0
        a[3, 1] = 1.0
        b = np.eye(4, dtype=complex)
        g = GeneralPencil(A=a, B=b, m=2, n=2)
        rep = reduce_with_fallback(g, Idea.IDEA1, Variant.A_FIRST)
        assert rep.pencil.m == 2

    def test_failed_attempts_are_freed_on_return(self, monkeypatch):
        assert_failed_attempts_are_freed(monkeypatch)

    def test_idea2_tends_to_smaller_x(self):
        # adversarial leading block: full-window pivoting should not do worse
        # than band-limited pivoting by a large factor (recorded, not a theorem)
        worse = 0
        for seed in range(8):
            inst = gen_random_split(m=4, n=4, alpha=8.0, eta=1e-3, seed=seed)
            g = cayley(inst.pencil, CayleyParams(-1.0))
            x1 = reduce_pencil(g, Idea.IDEA1, Variant.A_FIRST).max_abs_x
            x2 = reduce_pencil(g, Idea.IDEA2, Variant.A_FIRST).max_abs_x
            if x2 > 10 * max(x1, 1.0):
                worse += 1
        assert worse <= 2

    def test_idea3_comparative_on_near_singular_leading_block(self):
        # recorded comparison: alternating full-window pivoting usually keeps
        # the initial X at least as small as the band-limited strategy
        no_worse = 0
        trials = 8
        for seed in range(trials):
            inst = gen_random_split(m=5, n=5, alpha=8.0, eta=1e-4, seed=seed)
            g = cayley(inst.pencil, CayleyParams(-1.0))
            x1 = reduce_pencil(g, Idea.IDEA1, Variant.A_FIRST).max_abs_x
            x3 = reduce_pencil(g, Idea.IDEA3, Variant.A_FIRST).max_abs_x
            if x3 <= max(10 * x1, 10.0):
                no_worse += 1
        assert no_worse >= trials - 2


class TestReinit:
    def test_small_pencil_roundtrip_preserves_eigenpairs(self):
        gamma = -1.0
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=8)
        g = cayley(inst.pencil, CayleyParams(gamma))
        rep = reduce_pencil(g, Idea.IDEA3, Variant.A_FIRST)
        rep2 = reinit(rep.pencil)
        a0, b0 = assemble(rep2.pencil)
        pairs = known_eigenpairs(inst, count=5)
        assert eigenpair_residual(a0, b0, pairs, gamma) <= 1e-9

    def test_tames_planted_large_entry(self, rng):
        p = random_sfq(rng, 3, 4, scale=0.3)
        x = p.X.copy()
        x[1, 2] = 1.0e6
        spiked = SfqPencil(m=3, n=4, E=p.E, F=p.F, X=x, Y=p.Y, Q1=p.Q1, Q2=p.Q2)
        rep = reinit(spiked)
        assert rep.max_abs_x < 1.0e3

    def test_idempotent_in_eigen_residual(self):
        gamma = -1.0
        inst = gen_random_split(m=3, n=3, alpha=8.0, eta=1.0, seed=4)
        g = cayley(inst.pencil, CayleyParams(gamma))
        rep1 = reinit(reduce_pencil(g, Idea.IDEA3, Variant.A_FIRST).pencil)
        rep2 = reinit(rep1.pencil)
        pairs = known_eigenpairs(inst, count=5)
        for rep in (rep1, rep2):
            a0, b0 = assemble(rep.pencil)
            assert eigenpair_residual(a0, b0, pairs, gamma) <= 1e-9

    def test_structured_pair_is_not_copied_again(self, rng, monkeypatch):
        p = random_sfq(rng, 5, 7)
        copies = count_frozen_copies(monkeypatch)
        reinit(p)
        assert copies == []


class TestSchedule:
    # m = 2, n = 3: the A side takes n steps, the B side m
    ORDERS = {
        (Idea.IDEA1, Variant.A_FIRST): "aaabb",
        (Idea.IDEA1, Variant.B_FIRST): "bbaaa",
        (Idea.IDEA2, Variant.A_FIRST): "aaabb",
        (Idea.IDEA2, Variant.B_FIRST): "bbaaa",
        (Idea.IDEA3, Variant.A_FIRST): "ababa",
        (Idea.IDEA3, Variant.B_FIRST): "babaa",
    }

    @pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
    def test_step_order_and_band(self, monkeypatch, idea, variant):
        steps, banded = [], []
        make = qdoubling.reduction._Reducer

        def recorded(*args, **kwargs):
            red = make(*args, **kwargs)
            banded.append(red.banded)
            for side in "ab":
                def record(side=side, take=getattr(red, f"{side}_step")):
                    steps.append(side)
                    take()
                setattr(red, f"{side}_step", record)
            return red

        monkeypatch.setattr(qdoubling.reduction, "_Reducer", recorded)
        rng = np.random.default_rng(4)
        reduce_pencil(GeneralPencil(A=complex_normal(rng, 5, 5), B=complex_normal(rng, 5, 5),
                                    m=2, n=3), idea, variant)
        assert "".join(steps) == self.ORDERS[idea, variant]
        assert banded == [idea is Idea.IDEA1]


def argmax_pivot(mags, from_end):
    """The pivot rule as ``np.argmax`` states it, on the reversed window for ``from_end``."""
    view = mags[::-1, ::-1] if from_end else mags
    r, c = np.unravel_index(int(np.argmax(view)), view.shape)
    if from_end:
        r, c = view.shape[0] - 1 - r, view.shape[1] - 1 - c
    return int(r), int(c)


class TestPivotSearch:
    @staticmethod
    def windows():
        rng = np.random.default_rng(5)
        yield np.zeros((3, 4))
        yield np.full((4, 4), 2.0)
        for shape in ((1, 1), (1, 6), (6, 1), (5, 7), (9, 9)):
            yield rng.integers(0, 3, size=shape).astype(float)     # many exact ties
            yield rng.random(shape)
        for nans in (1, 2, 5):
            w = rng.integers(0, 3, size=(6, 5)).astype(float)
            w.flat[rng.choice(w.size, nans, replace=False)] = np.nan
            yield w
        w = rng.random((5, 5))
        w[[1, 3], [2, 0]] = np.inf
        yield w
        big = rng.integers(0, 4, size=(12, 12)).astype(float)
        big[7, 1] = np.nan
        yield big[2:11, 1:10]      # strided windows, as the reducer passes them
        yield big[:6, 3:]

    @pytest.mark.parametrize("from_end", [False, True])
    def test_matches_argmax_on_ties_and_nans(self, from_end):
        for mags in self.windows():
            r, c, mag = qdoubling.reduction._Reducer._pivot(mags, from_end)
            assert (r, c) == argmax_pivot(mags, from_end), mags
            assert np.array_equal(mag, mags[r, c], equal_nan=True)


def tile_pencils() -> list[GeneralPencil]:
    rng = np.random.default_rng(9)
    return [GeneralPencil(A=complex_normal(rng, 70, 70), B=complex_normal(rng, 70, 70),
                          m=30, n=40),
            cayley(gen_random_split(40, 33, 8.0, 1e-6, 2).pencil, CayleyParams(-1.0))]


def assert_same_bits(got, want):
    assert got.pivot_growth == want.pivot_growth
    p, q = got.pencil, want.pencil
    assert p.Q1 == q.Q1 and p.Q2 == q.Q2
    for name in "EFXY":
        assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name


def force_lanes(monkeypatch) -> list:
    """Run every elimination step on two lanes; the list grows by one per step."""
    steps = []

    class Counting(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            steps.append(None)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(qdoubling.reduction, "LANE_MIN_ENTRIES", 0)
    monkeypatch.setattr(qdoubling.reduction, "ThreadPoolExecutor", Counting)
    return steps


class TestEliminationTiles:
    def test_tiles_update_every_entry_as_one_update(self, monkeypatch):
        for g in tile_pencils():
            for idea, variant in ALL_REDUCTIONS:
                tiled = reduce_pencil(g, idea, variant)
                monkeypatch.setattr(qdoubling.reduction, "ELIMINATION_TILE", g.size)
                whole = reduce_pencil(g, idea, variant)
                monkeypatch.undo()
                assert_same_bits(tiled, whole)


class TestLanes:
    def test_lanes_give_the_serial_bits(self, monkeypatch):
        interval = sys.getswitchinterval()
        for g in tile_pencils():
            for idea, variant in ALL_REDUCTIONS:
                serial = reduce_pencil(g, idea, variant)   # every step is below the threshold
                steps = force_lanes(monkeypatch)
                sys.setswitchinterval(1e-6)   # the lanes hand the GIL over as often as they can
                try:
                    laned = reduce_pencil(g, idea, variant)
                finally:
                    sys.setswitchinterval(interval)
                monkeypatch.undo()
                assert steps
                assert_same_bits(laned, serial)

    def test_helper_is_joined_on_return_and_on_breakdown(self, monkeypatch):
        steps = force_lanes(monkeypatch)
        before = threading.active_count()
        g = cayley(gen_random_split(10, 12, 8.0, 1e-3, seed=1).pencil, CayleyParams(-1.0))
        reduce_pencil(g)
        assert steps and threading.active_count() == before
        steps.clear()
        with pytest.raises(BreakdownError):
            reduce_pencil(zero_band(), Idea.IDEA3, Variant.A_FIRST)
        assert steps and threading.active_count() == before

    def test_failed_attempts_are_freed_with_lanes(self, monkeypatch):
        steps = force_lanes(monkeypatch)
        assert_failed_attempts_are_freed(monkeypatch)
        assert steps

    def test_helper_keeps_the_callers_error_state(self, monkeypatch):
        # real entries near the overflow threshold: the first multipliers are
        # finite, and the first rank-1 update, in the helper's tiles, overflows
        a = 1e308 * np.random.default_rng(4).uniform(-1, 1, (40, 40))
        g = GeneralPencil(A=a.astype(complex), B=np.eye(40, dtype=complex), m=20, n=20)
        helper, threads = draining_helper()
        monkeypatch.setattr(qdoubling.reduction, "LANE_MIN_ENTRIES", 0)
        monkeypatch.setattr(qdoubling.reduction, "ThreadPoolExecutor", helper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                reduce_pencil(g)       # the helper takes every tile, and none warns
            assert threads
            threads.clear()
            with np.errstate(all="ignore", over="raise"), pytest.raises(FloatingPointError):
                reduce_pencil(g)
        assert threads and threading.get_ident() not in threads
