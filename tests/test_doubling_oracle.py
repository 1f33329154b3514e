"""The gather-based W-rule and the dual-derived mirrors against ``doubling_reference``.

Every value must match bit for bit (``assert_array_equal``, so only the sign
of a zero may differ): the products with 0/1 blocks that the reference
computes are exact, and the remaining arithmetic is the same in the same
order.  Pencils have m, n in 1..8 and random, equal or identity
permutations; a breakdown must happen in both or neither, with the same text.
"""

from dataclasses import replace

import numpy as np
import pytest

import doubling_reference as ref
from qdoubling import (
    BreakdownError,
    Permutation,
    ZeroPivotError,
    action_y,
    compute_w,
    compute_wt,
    step_w,
    step_wt,
)

from conftest import random_sfq

CASES = 240


def _pencils():
    """``CASES`` pencils: every sixth with Q1 = Q2 = I, the next with Q1 = Q2."""
    rng = np.random.default_rng(606)
    for case in range(CASES):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        p = random_sfq(rng, m, n, scale=1.0, random_q=case % 6 != 0)
        if case % 6 == 1:
            p = replace(p, Q2=p.Q1)
        yield rng, p


def _same_outcome(got_fn, want_fn, p):
    try:
        want = want_fn(p)
    except BreakdownError as exc:
        with pytest.raises(BreakdownError) as info:
            got_fn(p)
        assert str(info.value) == str(exc)
        return False
    got = got_fn(p)
    for blk in "EFXY":
        np.testing.assert_array_equal(getattr(got.next, blk), getattr(want.next, blk))
    assert got.next.Q1 == want.next.Q1 and got.next.Q2 == want.next.Q2
    assert got.w_condition == want.w_condition
    assert got.w_min_pivot == want.w_min_pivot
    assert got.kernel is want.kernel
    return True


def test_w_and_wt_match_the_dense_block_reference():
    stepped = 0
    for _, p in _pencils():
        np.testing.assert_array_equal(compute_w(p), ref.compute_w(p))
        np.testing.assert_array_equal(compute_wt(p), ref.compute_wt(p))
        stepped += _same_outcome(step_w, ref.step_w, p)
        stepped += _same_outcome(step_wt, ref.step_wt, p)
    assert stepped >= 400


def test_singular_w_breaks_down_like_the_reference():
    # with P the block swap, W = Y - X and Wt = X - Y: both zero here
    n = 3
    p = random_sfq(np.random.default_rng(7), n, n, random_q=False)
    p = replace(p, X=np.ones((n, n)), Y=np.ones((n, n)),
                Q2=Permutation(np.roll(np.arange(2 * n), n)))
    assert not _same_outcome(step_w, ref.step_w, p)
    assert not _same_outcome(step_wt, ref.step_wt, p)


def test_action_y_matches_the_explicit_swap():
    for rng, p in _pencils():
        j = int(rng.integers(p.m))
        ell = int(rng.integers(p.n))
        got, want = action_y(p, j, ell), ref.action_y(p, j, ell)
        for blk in "EFXY":
            np.testing.assert_array_equal(getattr(got, blk), getattr(want, blk))
        assert got.Q1 == want.Q1 and got.Q2 == want.Q2


def test_action_y_zero_pivot_names_y():
    p = random_sfq(np.random.default_rng(8), 2, 3)
    y = p.Y.copy()
    y[1, 2] = 0.0
    p = replace(p, Y=y)
    with pytest.raises(ZeroPivotError, match=r"Y\[1,2\]"):
        action_y(p, 1, 2)
