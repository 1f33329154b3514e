"""The gather-based W-rule and the dual-derived mirrors against ``doubling_reference``.

The permutations, the kernel, and whether a step breaks down (with the same
text) must match exactly.  The numbers cannot: the library multiplies only
the X, Y and E parts and shares its products, so it sums in another order
than the dense reference.  Each number is checked against the a priori bound
of :func:`_tolerances`, which depends only on eps, m + n and the reference's
conditioning of W.  Pencils have m, n in 1..8 with random, equal or identity
permutations, and m, n in {40, 70} (past the GEMM blocking sizes) with the
block swap, Q1 = Q2 = I and random permutations.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import doubling_reference as ref
from qdoubling import (
    BreakdownError,
    Kernel,
    Permutation,
    ZeroPivotError,
    action_y,
    compute_w,
    compute_wt,
    dual,
    step_sf1,
    step_w,
    step_wt,
    swap_perm,
)

from conftest import random_sfq

CASES = 240
EPS = np.finfo(float).eps


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


def _magnitude_w(p):
    """``Q22 + |X| Q12 + (Q21 + |X| Q11) |Y|``: the sum of the magnitudes of
    the terms that make up each entry of W."""
    return ref.compute_w(replace(p, X=-np.abs(p.X), Y=np.abs(p.Y))).real


def _tolerances(p):
    """Bounds on the difference of the library's W-rule step of ``p`` and the
    reference's, derived before either is run.

    With u = eps / 2, each entry of W and of every block product is a sum of
    at most N + 2 complex products (N = m + n), so each code computes it
    within ``gamma_{N+4} <= (N + 4) u`` of its terms' magnitudes (Higham,
    Lemma 3.5).  Two codes differ by at most twice that, ``g = (N + 4) eps``;
    entrywise for W, ``|W_lib - W_ref| <= g * M_W`` with ``M_W`` from
    :func:`_magnitude_w`.

    The LU of each code is the exact LU of its W plus ``gamma_{3n} |L||U|``
    (Higham, Theorem 9.3), and its solves are exact for W plus as much
    (Theorem 9.4).  So the two factored matrices differ by at most
    ``omega = g (||M_W||_F + 6 || |L||U| ||_F)`` in Frobenius norm, with L
    and U the reference's factors.

    Every output block is ``B0 + L W^{-1} R`` with B0, L and R products of the
    input blocks and the 0/1 blocks of P (E' = E Q11 E + E(Q11 Y + Q12) W^{-1}
    (X Q11 - Q21) E, X' = X + F W^{-1} (X Q11 - Q21) E, Y' = Y + E (Q11 Y +
    Q12) W^{-1} F, F' = F W^{-1} F).  To first order, rounding B0, L, R and
    the final product, and the perturbation omega of W, move it by at most

        g ||B0|| + sigma ||L|| ||R|| (3 g + sigma omega),   sigma = ||W^{-1}||_2,

    where ||L||, ||R|| and ||B0|| are products of the Frobenius norms of the
    blocks' magnitudes, an upper bound whatever order either code multiplies
    in; sigma ||M_W||_F >= cond_2(W), so the bound grows as (m + n) eps cond(W).

    A pivot moves by ``|d u_kk| / |u_kk| <= ||L^{-1}||_2 ||U^{-1}||_2 omega``
    (first-order perturbation of the LU factors); so does the smallest, and
    the largest-to-smallest ratio by at most three times as much.
    """
    m, n = p.m, p.n
    g = (m + n + 4) * EPS
    w = ref.compute_w(p)
    mag_w = _magnitude_w(p)
    _, lo, up = scipy.linalg.lu(w)
    omega = g * (np.linalg.norm(mag_w) + 6 * np.linalg.norm(np.abs(lo) @ np.abs(up)))
    sigma = 1.0 / np.linalg.svd(w, compute_uv=False)[-1]
    q11, q12, q21, _ = ref.dense_q_blocks(p)
    e, f, x, y = (float(np.linalg.norm(b)) for b in (p.E, p.F, p.X, p.Y))
    left = np.linalg.norm(q11 @ np.abs(p.Y) + q12)      # |Q11 Y + Q12|
    right = np.linalg.norm(np.abs(p.X) @ q11 + q21)     # |X Q11 - Q21|

    def bound(b0, lft, rgt):
        return g * b0 + sigma * lft * rgt * (3 * g + sigma * omega)

    pivot = omega / (np.linalg.svd(lo, compute_uv=False)[-1]
                     * np.linalg.svd(up, compute_uv=False)[-1])
    return {"W": g * mag_w, "E": bound(e * e, e * left, right * e),
            "X": bound(x, f, right * e), "Y": bound(y, e * left, f),
            "F": bound(0.0, f, f), "pivot": pivot}


def _mirrored(tol):
    """Bounds of the Wt-rule step of p from those of the W-rule of dual(p)."""
    return {**tol, "E": tol["F"], "F": tol["E"], "X": tol["Y"], "Y": tol["X"]}


def _assert_close(got, want, tol):
    """``||got - want||_F <= tol``."""
    diff = float(np.linalg.norm(got - want))
    assert diff <= tol, f"difference {diff:.3e} exceeds the bound {tol:.3e}"


def _assert_bounded(got, want, tol):
    """Blocks within their bounds, pivots and the W condition within theirs."""
    for blk in "EFXY":
        _assert_close(getattr(got.next, blk), getattr(want.next, blk), tol[blk])
    assert abs(got.w_min_pivot - want.w_min_pivot) <= tol["pivot"] * want.w_min_pivot
    assert abs(got.w_condition - want.w_condition) <= 3 * tol["pivot"] * want.w_condition


def _same_outcome(got_fn, want_fn, p):
    try:
        want = want_fn(p)
    except BreakdownError as exc:
        with pytest.raises(BreakdownError) as info:
            got_fn(p)
        assert str(info.value) == str(exc)
        return False
    got = got_fn(p)
    assert got.next.Q1 == want.next.Q1 and got.next.Q2 == want.next.Q2
    assert got.kernel is want.kernel
    wt = got.kernel is Kernel.WTILDE
    _assert_bounded(got, want, _mirrored(_tolerances(dual(p))) if wt else _tolerances(p))
    return True


def _check_w(p):
    """W and Wt entrywise within ``g * M_W`` (Wt: the W of ``dual(p)``)."""
    assert np.all(np.abs(compute_w(p) - ref.compute_w(p)) <= _tolerances(p)["W"])
    assert np.all(np.abs(compute_wt(p) - ref.compute_wt(p)) <= _tolerances(dual(p))["W"])


def test_w_and_wt_match_the_dense_block_reference():
    stepped = 0
    for _, p in _pencils():
        _check_w(p)
        stepped += _same_outcome(step_w, ref.step_w, p)
        stepped += _same_outcome(step_wt, ref.step_wt, p)
    assert stepped >= 400


KINDS = ("swap", "identity", "random")


def _large(m, n, kind):
    """A pencil past the GEMM blocking sizes: Q1 = I with Q2 the block swap
    (r = max(0, m - n)), Q1 = Q2 = I (r = m), or random Q1 and Q2."""
    rng = np.random.default_rng([m, n, KINDS.index(kind)])
    p = random_sfq(rng, m, n, scale=1.0 / np.sqrt(m + n), random_q=kind == "random")
    if kind == "swap":
        p = replace(p, Q2=swap_perm(m, n))
    return p


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m, n", [(40, 40), (40, 70), (70, 40), (70, 70)])
def test_large_pencils_match_the_dense_block_reference(m, n, kind):
    p = _large(m, n, kind)
    _check_w(p)
    assert _same_outcome(step_w, ref.step_w, p)
    assert _same_outcome(step_wt, ref.step_wt, p)


def _assert_classical(got, want, tol):
    for blk, value in zip("EFXY", want):
        _assert_close(getattr(got.next, blk), value, tol[blk])


@pytest.mark.parametrize("m, n", [(40, 40), (40, 70), (70, 40), (70, 70)])
def test_sf1_matches_the_classical_formulas(m, n):
    # the classical step takes E' from the m-by-m solve, the rest from the n-by-n
    p = _large(m, n, "identity")
    tol_w, tol_wt = _tolerances(p), _mirrored(_tolerances(dual(p)))
    tol = {blk: max(tol_w[blk], tol_wt[blk]) for blk in "EFXY"}
    _assert_classical(step_sf1(p.E, p.F, p.X, p.Y), ref.step_sf1(p.E, p.F, p.X, p.Y), tol)


@pytest.mark.parametrize("n", [40, 70])
def test_sf2_matches_the_classical_formulas(n):
    p = _large(n, n, "swap")
    # SDASF2 is the W-rule on its own pencil, Q1 = I and Q2 the block swap
    _assert_classical(step_w(p), ref.step_sf2(p.E, p.F, p.X, p.Y), _tolerances(p))


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
