"""The library's elimination engine against the rescanning loop in ``reduction_reference``.

The two engines take the same pivots on random complex pencils, so the
permutations and the breakdown outcome must be identical.  The blocks are
compared to ``16 (m + n) eps pivot_growth`` relative to their largest entry:
every entry of the eliminated matrices passes through at most ``m + n``
updates, each rounded to ``eps`` times an entry no larger than
``pivot_growth`` times the input scale, so an update that rounds differently
(a fused multiply-add, a BLAS kernel) still passes.  These bounds were fixed
from the dtype, the size and the growth before the comparison was first run,
never fitted to it.

Cayley-transformed split pencils are left out on purpose: with ``B = I`` their
late pivot candidates tie to within an ulp, so which one wins is a
rounding-level choice there (acceptance test 12 checks those through
eigen-residuals).
"""

import re

import numpy as np
import pytest

import qdoubling.reduction
from qdoubling import BreakdownError, GeneralPencil, Idea, Variant, reduce_pencil

from conftest import complex_normal
from reduction_reference import OuterReducer

EPS = np.finfo(np.complex128).eps
GROWTH_RTOL = 1e-12

ALL_REDUCTIONS = [(idea, variant)
                  for idea in (Idea.IDEA1, Idea.IDEA2, Idea.IDEA3)
                  for variant in (Variant.A_FIRST, Variant.B_FIRST)]

SIZES = ([(3, 4, seed) for seed in range(4)]
         + [(9, 5, seed) for seed in range(3)]
         + [(40, 55, seed) for seed in range(3)]
         + [(150, 200, 0)])


def both_engines(a, b, m, n, idea, variant):
    """``(pencil, growth)`` or the breakdown text, for the library and the oracle."""
    def run():
        rep = reduce_pencil(GeneralPencil(A=a, B=b, m=m, n=n), idea, variant)
        return rep.pencil, rep.pivot_growth

    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qdoubling.reduction, "_Reducer", OuterReducer)
            return run()

    outcomes = []
    for engine in (run, reference):
        try:
            outcomes.append(engine())
        except BreakdownError as exc:
            # the failing pivot's printed magnitude is rounding-level noise
            outcomes.append(re.sub(r"pivot \S+ at", "pivot at", str(exc)))
    return outcomes


def assert_same_reduction(got, ref, size):
    (p, growth), (q, ref_growth) = got, ref
    assert p.Q1 == q.Q1 and p.Q2 == q.Q2
    assert growth == pytest.approx(ref_growth, rel=GROWTH_RTOL, abs=0.0)
    bound = 16 * size * EPS * ref_growth
    for name in "EFXY":
        mine, theirs = getattr(p, name), getattr(q, name)
        assert np.abs(mine - theirs).max() <= bound * np.abs(theirs).max(), name


@pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
@pytest.mark.parametrize("m,n,seed", SIZES)
def test_random_pencils_match_reference(m, n, seed, idea, variant):
    rng = np.random.default_rng(1000 + seed)
    size = m + n
    a, b = complex_normal(rng, size, size), complex_normal(rng, size, size)
    got, ref = both_engines(a, b, m, n, idea, variant)
    assert_same_reduction(got, ref, size)


def zero_band_pencil():
    # zero last-n rows of A: idea 1's band-limited A-side search finds nothing
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :] = [[1, 2, 3, 4], [5, 6, 7, 8]]
    return a, np.eye(4, dtype=complex), 2, 2


def rank_two_b_pencil():
    rng = np.random.default_rng(7)
    b = complex_normal(rng, 7, 2) @ complex_normal(rng, 2, 7)
    return complex_normal(rng, 7, 7), b, 3, 4


def zero_a_pencil():
    rng = np.random.default_rng(8)
    return np.zeros((5, 5), dtype=complex), complex_normal(rng, 5, 5), 2, 3


@pytest.mark.parametrize("idea,variant", ALL_REDUCTIONS)
@pytest.mark.parametrize("make", [zero_band_pencil, rank_two_b_pencil, zero_a_pencil])
def test_breakdowns_match_reference(make, idea, variant):
    a, b, m, n = make()
    got, ref = both_engines(a, b, m, n, idea, variant)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert not isinstance(got, str), got
        assert_same_reduction(got, ref, m + n)


def test_rank_two_b_breaks_down_in_every_idea():
    a, b, m, n = rank_two_b_pencil()
    for idea, variant in ALL_REDUCTIONS:
        got, _ = both_engines(a, b, m, n, idea, variant)
        assert isinstance(got, str) and "B-side pivot at step 3" in got
