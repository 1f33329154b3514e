"""Exact transforms of a pencil, and the answers they must give.

Conjugating a pencil conjugates every operation the solver makes, so the
bases come out conjugated bit for bit.  Permuting its rows and columns
alike, or swapping the two matrices of a disk pair, maps the answer to a
known basis of the same subspace, reached on another path, so these hold
to :data:`SINE_BOUND`.  A real pencil with a real Cayley shift keeps every
iterate exactly real.  Drawn instances have N = m + n <= 60; fixed ones
reach N = 320.

Every run a relation compares must also converge, so that the bases it
compares are answers the solver vouches for.  Power-of-two diagonal
scalings, which change no subspace, must converge within one iteration of
the unscaled run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdoubling import (
    CayleyPair,
    CayleyParams,
    GeneralPencil,
    RunStatus,
    anti_basis,
    gen_random_split,
    run_qda,
    sfq_basis,
    solve_halfplane,
)

#: The sine of the largest angle between the two bases a relation compares,
#: fixed before the relations were first run.
SINE_BOUND = 1e-8

GAMMA = CayleyParams(-1.0)

sizes = st.integers(1, 30)
seeds = st.integers(1, 2**16)


def sine(u: np.ndarray, v: np.ndarray) -> float:
    """The sine of the largest principal angle between span(u) and span(v)."""
    qu, qv = np.linalg.qr(u)[0], np.linalg.qr(v)[0]
    return float(np.linalg.norm(qv - qu @ (qu.conj().T @ qv), 2))


@settings(max_examples=10, deadline=None)
@given(m=sizes, n=sizes, seed=seeds)
def test_conjugating_the_pencil_conjugates_the_bases_exactly(m, n, seed):
    g = gen_random_split(m, n, 8.0, 1e-4, seed).pencil
    base, conj = (solve_halfplane(h, GAMMA) for h in
                  (g, GeneralPencil(A=g.A.conj(), B=g.B.conj(), m=m, n=n)))
    assert base.source.status is RunStatus.CONVERGED
    assert (conj.source.status, conj.source.iterations) == (base.source.status,
                                                            base.source.iterations)
    # equal entry for entry: a zero's sign may differ (the identity rows' 1s
    # have imaginary part +0, whose conjugate is -0)
    np.testing.assert_array_equal(conj.stable_basis, base.stable_basis.conj())
    np.testing.assert_array_equal(conj.anti_stable_basis, base.anti_stable_basis.conj())


@settings(max_examples=10, deadline=None)
@given(m=sizes, n=sizes, seed=seeds)
def test_a_symmetric_permutation_permutes_the_basis(m, n, seed):
    # (P A P^T) (P Z) = P A Z = (P Z) M
    g = gen_random_split(m, n, 8.0, 1e-4, seed).pencil
    perm = np.random.default_rng(seed).permutation(m + n)
    permuted = GeneralPencil(A=g.A[np.ix_(perm, perm)], B=g.B[np.ix_(perm, perm)], m=m, n=n)
    base, moved = (solve_halfplane(h, GAMMA) for h in (g, permuted))
    assert base.source.status is moved.source.status is RunStatus.CONVERGED
    assert sine(moved.stable_basis, base.stable_basis[perm]) <= SINE_BOUND


@settings(max_examples=10, deadline=None)
@given(m=sizes, n=sizes, seed=seeds)
def test_the_swapped_disk_pair_has_the_basis_as_its_anti_stable_one(m, n, seed):
    # (B', A') has the reciprocal eigenvalues: its n inside the disk are the
    # n outside for (A', B'), and its anti-stable subspace is the stable Z
    disk = CayleyPair(gen_random_split(m, n, 8.0, 1e-4, seed).pencil, GAMMA.gamma).pencil()
    base = run_qda(disk)
    swapped = run_qda(GeneralPencil(A=disk.B, B=disk.A, m=n, n=m))
    assert base.status is swapped.status is RunStatus.CONVERGED
    assert sine(anti_basis(swapped.final), sfq_basis(base.final)) <= SINE_BOUND


def real_split(m: int, n: int, eta: float, seed: int) -> GeneralPencil:
    """A real ``(A, I)`` with m eigenvalues in the left and n in the right
    half-plane, built as :func:`~qdoubling.gen_random_split` builds its
    complex ones: ``A = U T U^{-1}``, with U's leading block scaled by eta."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m + n, m + n))
    diag = np.concatenate([2.0 * rng.random(m) - 8.0, 2.0 * rng.random(n) + 8.0])
    t = np.triu(rng.standard_normal((m + n, m + n)), 1) + np.diag(diag)
    u[:m, :m] *= eta
    return GeneralPencil(A=np.linalg.solve(u.T, (u @ t).T).T, B=np.eye(m + n), m=m, n=n)


def real_run(m: int, n: int, seed: int):
    """QDA on the Cayley pair of a real pencil, converged with every iterate
    checked real."""
    run = run_qda(CayleyPair(real_split(m, n, 1e-4, seed), GAMMA.gamma))
    assert run.status is RunStatus.CONVERGED
    for p in [rec.pencil for rec in run.history] + [run.final]:
        for block in (p.E, p.F, p.X, p.Y):
            assert not block.imag.any()
    return run


@settings(max_examples=10, deadline=None)
@given(m=sizes, n=sizes, seed=seeds)
def test_a_real_pencil_keeps_every_iterate_real(m, n, seed):
    real_run(m, n, seed)


def test_a_real_pencil_keeps_its_iterates_real_through_guard_swaps():
    # N = 110, past the drawn sizes: 8 iterations and 13 guard swaps
    run = real_run(50, 60, 1)
    assert sum(len(rec.guard_events.actions) for rec in run.history) > 0


def converges_as_unscaled(g: GeneralPencil, scaled: GeneralPencil) -> None:
    """QDA converges on both pencils' Cayley pairs, within one iteration."""
    base, res = (run_qda(CayleyPair(h, GAMMA.gamma)) for h in (g, scaled))
    assert base.status is res.status is RunStatus.CONVERGED
    assert abs(res.iterations - base.iterations) <= 1


def similar(g: GeneralPencil, seed: int) -> GeneralPencil:
    """D A D^-1 with D = diag(2^k), k uniform in [-10, 10] from ``seed``:
    its basis is D Z exactly, and B = I stays I."""
    d = 2.0 ** np.random.default_rng(seed).integers(-10, 11, size=g.size)
    return GeneralPencil(A=d[:, None] * g.A / d, B=g.B, m=g.m, n=g.n)


@pytest.mark.parametrize("seed", range(1, 11))
def test_a_diagonal_similarity_keeps_the_run(seed):
    g = gen_random_split(50, 60, 8.0, 1e-4, seed).pencil
    converges_as_unscaled(g, similar(g, seed))


@pytest.mark.xfail(strict=True, reason="the scaled run's W solve meets a singular pivot")
def test_a_diagonal_similarity_keeps_a_larger_run():
    # N = 320: the unscaled run converges in 8 iterations; the scaled one
    # ends BREAKDOWN after 5, at W pivot 169 of magnitude 1.9e-10
    g = gen_random_split(150, 170, 8.0, 1e-6, 1).pencil
    converges_as_unscaled(g, similar(g, 1))


@pytest.mark.parametrize("seed", [1, 2, 3, *(pytest.param(s, marks=pytest.mark.xfail(
    strict=True, reason="the reducer's pivot test is not invariant under row scaling"))
    for s in (4, 5, 6))])
def test_a_row_scaling_keeps_the_run(seed):
    # (D A, D B) with D = diag(2^k), k uniform in [-20, 20], has the same
    # deflating subspace: a general-B pair with the unscaled basis
    g = gen_random_split(50, 60, 8.0, 1e-4, seed).pencil
    d = 2.0 ** np.random.default_rng(seed).integers(-20, 21, size=(g.size, 1))
    converges_as_unscaled(g, GeneralPencil(A=d * g.A, B=d * g.B, m=g.m, n=g.n))
