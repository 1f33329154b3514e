"""Exact transforms of a pencil, and the answers they must give.

Conjugating a pencil conjugates every operation the solver makes, so the
bases come out conjugated bit for bit.  Permuting its rows and columns
alike, or swapping the two matrices of a disk pair, maps the answer to a
known basis of the same subspace, reached on another path, so these hold
to :data:`SINE_BOUND`.  A real pencil with a real Cayley shift keeps every
iterate exactly real.  Instances are drawn by seed at N = m + n <= 60.

The relations hold for whatever basis a run returns, so they are checked
whatever the run's status: many draws with m > n end at the iteration
limit with a correct basis, which the residual safeguard keeps rejecting.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdoubling import (
    CayleyPair,
    CayleyParams,
    GeneralPencil,
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
    assert sine(moved.stable_basis, base.stable_basis[perm]) <= SINE_BOUND


@settings(max_examples=10, deadline=None)
@given(m=sizes, n=sizes, seed=seeds)
def test_the_swapped_disk_pair_has_the_basis_as_its_anti_stable_one(m, n, seed):
    # (B', A') has the reciprocal eigenvalues: its n inside the disk are the
    # n outside for (A', B'), and its anti-stable subspace is the stable Z
    disk = CayleyPair(gen_random_split(m, n, 8.0, 1e-4, seed).pencil, GAMMA.gamma).pencil()
    base = run_qda(disk)
    swapped = run_qda(GeneralPencil(A=disk.B, B=disk.A, m=n, n=m))
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
    """QDA on the Cayley pair of a real pencil, every iterate checked real."""
    run = run_qda(CayleyPair(real_split(m, n, 1e-4, seed), GAMMA.gamma))
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
