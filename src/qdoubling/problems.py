"""Constructive test-problem generators with known ground truth.

Three families:

* random split-spectrum pencils, built from a random triangular factor with
  the diagonal pushed off the imaginary axis by a margin ``alpha``, and the
  top-left block of the eigenvector factor shrunk by ``eta`` to stress the
  conditioning of the classical basis form;
* Hamiltonian-structured pencils ``[[A, B], [-conj(B), -conj(A)]]`` with
  Hermitian ``A`` and symmetric ``B``, diagonally dominant so the spectrum
  splits across the imaginary axis;
* critical pencils assembled from a Weierstrass form with paired Jordan
  blocks on the unit circle, for which the doubling iteration converges
  linearly with rate one half.

All randomness flows through ``numpy.random.default_rng`` seeded per call;
draws happen in a fixed documented order so instances are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import block_diag, toeplitz

from .linalg import Permutation, SingularMatrixError, check_count, lu_factor, solve_transposed
from .sfq import GeneralPencil, SfqPencil, _scatter_basis, swap_perm


class JordanOverflowError(Exception):
    """A requested Jordan-block power has entries beyond 1e300."""


@dataclass(frozen=True)
class ProblemInstance:
    """A generated pencil plus whatever ground truth the family provides."""

    pencil: GeneralPencil
    seed: int
    true_basis_stable: Optional[np.ndarray] = None
    true_m: Optional[np.ndarray] = None
    stable_eigs: Optional[np.ndarray] = None
    anti_stable_eigs: Optional[np.ndarray] = None
    circle_eigs: Optional[np.ndarray] = None
    basis_full: Optional[np.ndarray] = None
    upper_t: Optional[np.ndarray] = None


@dataclass(frozen=True)
class CriticalSpec:
    """Shape of a critical-case instance.

    ``blocks`` lists ``(size, omega)`` pairs: each contributes one pair of
    coupled Jordan blocks for the unimodular eigenvalue ``omega``, giving it
    even partial multiplicity by construction.
    """

    m_prime: int
    n_prime: int
    blocks: tuple[tuple[int, complex], ...]
    rho_stable: float
    rho_anti: float

    def __post_init__(self):
        check_count(self.m_prime, "m_prime", least=0)
        check_count(self.n_prime, "n_prime", least=0)
        if not self.blocks:
            raise ValueError("at least one circle block is required")
        for size, omega in self.blocks:
            check_count(size, "block size")
            if not abs(abs(omega) - 1.0) <= 1e-14:     # NaN is not on it
                raise ValueError(f"omega = {omega} is not on the unit circle")
        if not (0.0 < self.rho_stable < 1.0 and 0.0 < self.rho_anti < 1.0):
            raise ValueError("rho_stable and rho_anti must lie in (0, 1)")

    @property
    def n0(self) -> int:
        return sum(size for size, _ in self.blocks)

    @property
    def m(self) -> int:
        return self.m_prime + self.n0

    @property
    def n(self) -> int:
        return self.n_prime + self.n0


def _complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def gen_random_split(m: int, n: int, alpha: float, eta: float, seed: int) -> ProblemInstance:
    """Random pencil with m eigenvalues in the left and n in the right half-plane.

    Built as ``A = U T U^{-1}``, ``B = I`` with upper-triangular ``T`` whose
    diagonal real parts fall in ``(-alpha, 2 - alpha)`` and ``(alpha, alpha + 2)``
    and whose imaginary parts are standard normal.  After drawing, the
    top-left m-by-m block of ``U`` is scaled by ``eta``; the stable basis
    ``U[:, :m]`` then has an increasingly ill-conditioned leading block as
    ``eta`` shrinks.
    """
    check_count(m, "m")
    check_count(n, "n")
    if not 2 < alpha < math.inf:
        raise ValueError("alpha must be finite and exceed 2 to keep the split away from the axis")
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    size = m + n
    for attempt in range(10):
        rng = np.random.default_rng([seed, attempt])
        u = _complex_normal(rng, size, size)
        strict = np.triu(_complex_normal(rng, size, size), 1)
        diag_stable = 2.0 * rng.random(m) - alpha
        diag_anti = 2.0 * rng.random(n) + alpha
        diag_imag = rng.standard_normal(size)
        diag = np.concatenate([diag_stable, diag_anti]) + 1j * diag_imag
        t = strict + np.diag(diag)
        u[:m, :m] *= eta
        try:
            a = solve_transposed(u, u @ t)
        except SingularMatrixError:
            continue
        pencil = GeneralPencil(A=a, B=np.eye(size, dtype=np.complex128), m=m, n=n)
        return ProblemInstance(
            pencil=pencil, seed=seed,
            true_basis_stable=u[:, :m].copy(), true_m=t[:m, :m].copy(),
            stable_eigs=diag[:m].copy(), anti_stable_eigs=diag[m:].copy(),
            circle_eigs=np.array([], dtype=np.complex128),
            basis_full=u, upper_t=t,
        )
    raise ValueError(f"eta = {eta!r} leaves the eigenvector factor singular in all ten draws")


def gen_bse_like(n: int, gap_scale: float, seed: int,
                 coupling_scale: float = 1.0) -> ProblemInstance:
    """Hamiltonian-structured pencil ``[[A, B], [-conj(B), -conj(A)]] - lambda I``.

    ``A`` is Hermitian with dominant positive diagonal ``gap_scale * (1 + k/n)``
    and ``B`` complex symmetric; the off-diagonal material is scaled so the
    total perturbation one-norm stays below ``0.4 * gap_scale``, which keeps
    all eigenvalues at least ``0.6 * gap_scale`` away from the imaginary axis
    (n on each side).  Shrinking ``coupling_scale`` makes the stable
    eigenvectors nearly vertical, i.e. the classical basis form nearly
    inadmissible.  No ground-truth spectra are recorded.
    """
    check_count(n, "n")
    if not 0 < gap_scale < math.inf:
        raise ValueError("gap_scale must be positive and finite")
    if not math.isfinite(coupling_scale):
        raise ValueError("coupling_scale must be finite")
    rng = np.random.default_rng([seed])
    diag = gap_scale * (1.0 + np.arange(n) / n)
    g = _complex_normal(rng, n, n)
    herm = 0.5 * (g + g.conj().T)
    one_norm = float(np.abs(herm).sum(axis=0).max())
    herm *= 0.2 * gap_scale / one_norm
    s = _complex_normal(rng, n, n)
    sym = 0.5 * (s + s.T)
    one_norm = float(np.abs(sym).sum(axis=0).max())
    sym *= 0.2 * gap_scale / one_norm
    sym *= coupling_scale
    a = np.diag(diag).astype(np.complex128) + herm
    h = np.block([[a, sym], [-sym.conj(), -a.conj()]])
    pencil = GeneralPencil(A=h, B=np.eye(2 * n, dtype=np.complex128), m=n, n=n)
    return ProblemInstance(pencil=pencil, seed=seed)


# ---------------------------------------------------------------------------
# Jordan machinery and the critical-case family
# ---------------------------------------------------------------------------


def jordan_block(p: int, omega: complex) -> np.ndarray:
    return np.eye(p, dtype=np.complex128) * omega + np.eye(p, k=1)


def jordan_power(p: int, omega: complex, i: int) -> np.ndarray:
    """Closed-form ``J_p(omega) ** (2**i)`` (upper-triangular Toeplitz).

    Entry ``(k, k + j - 1)`` is ``binom(2^i, j-1) * omega**(2^i-j+1)``; the
    result is ``scipy.linalg.toeplitz`` of a first column that is zero below
    its diagonal entry and a first row of these coefficients.
    Raises :class:`JordanOverflowError` if any coefficient magnitude would
    exceed 1e300.
    """
    check_count(p, "p")
    check_count(i, "i", least=0)
    power = 2 ** int(i)     # a numpy integer would wrap from i = 63 on
    gammas = np.zeros(p, dtype=np.complex128)
    for j in range(1, min(p, power + 1) + 1):      # binom(2^i, j-1) = 0 beyond
        term = complex(math.comb(power, j - 1)) * omega ** (power - j + 1)
        if not np.isfinite(term) or abs(term) > 1e300:
            raise JordanOverflowError(
                f"entry {j} of J_{p}({omega})^{power} exceeds 1e300")
        gammas[j - 1] = term
    # both arguments: toeplitz(gammas) alone would conjugate the lower triangle
    return toeplitz(np.concatenate([gammas[:1], np.zeros(p - 1)]), gammas)


def _on_circle(rng: np.random.Generator, size: int, radius: float, low: float) -> np.ndarray:
    """``size`` values with moduli in ``radius * [low, 1)``, the first exactly
    ``radius``, and uniform phases; the moduli are drawn before the phases."""
    moduli = radius * (low + (1 - low) * rng.random(size))
    moduli[:1] = radius
    return moduli * np.exp(2j * np.pi * rng.random(size))


def _random_triangular_with_radius(rng: np.random.Generator, size: int,
                                   radius: float) -> np.ndarray:
    """Upper triangular with spectral radius exactly ``radius`` (if size > 0):
    an :func:`_on_circle` diagonal with moduli in ``radius * [0.3, 1)``, then
    a strict upper part of 0.3 times complex normal entries."""
    diag = _on_circle(rng, size, radius, 0.3)
    return 0.3 * np.triu(_complex_normal(rng, size, size), 1) + np.diag(diag)


def _well_conditioned(rng: np.random.Generator, size: int) -> np.ndarray:
    for _ in range(50):
        cand = _complex_normal(rng, size, size)
        try:
            if lu_factor(cand).condition_estimate <= 1e3:
                return cand
        except SingularMatrixError:
            continue
    raise RuntimeError("could not draw a well-conditioned transformation")


def gen_critical(spec: CriticalSpec, seed: int) -> ProblemInstance:
    """Critical-case pencil with paired unimodular Jordan blocks.

    The canonical pair couples each circle block ``J_{m_j}(omega_j)`` on the
    A side to a copy of itself on the B side through the corner matrix
    ``e_{m_j} e_1^T``, so every unimodular eigenvalue has even partial
    multiplicity.  The pencil is conjugated by rejection-sampled
    well-conditioned transformations; the weakly stable basis is the first
    ``m`` columns of the right transformation.
    """
    rng = np.random.default_rng([seed])
    mp, np_ = spec.m_prime, spec.n_prime
    n0, m, n = spec.n0, spec.m, spec.n
    size = m + n
    m_stb = _random_triangular_with_radius(rng, mp, spec.rho_stable)
    n_stb = _random_triangular_with_radius(rng, np_, spec.rho_anti)
    j1 = block_diag(*(jordan_block(sz, om) for sz, om in spec.blocks))
    true_m = block_diag(m_stb, j1)
    ja = block_diag(true_m, np.eye(np_), j1)
    sizes = np.array([sz for sz, _ in spec.blocks])
    ends = np.cumsum(sizes)
    ja[mp + ends - 1, m + np_ + ends - sizes] = 1.0     # the corners e_{m_j} e_1^T
    jb = block_diag(np.eye(m), n_stb, np.eye(n0))
    p = _well_conditioned(rng, size)
    u = _well_conditioned(rng, size)
    p_lu = lu_factor(p)     # one factorization serves both blocks
    a, b = (solve_transposed(u, p_lu.solve(j)) for j in (ja, jb))
    return ProblemInstance(
        pencil=GeneralPencil(A=a, B=b, m=m, n=n), seed=seed,
        true_basis_stable=u[:, :m].copy(), true_m=true_m,
        stable_eigs=np.diag(m_stb).copy(), anti_stable_eigs=1.0 / np.diag(n_stb),
        circle_eigs=np.repeat([complex(om) for _, om in spec.blocks], 2 * sizes),
        basis_full=u,
    )


@dataclass(frozen=True)
class SolvedSfqInstance:
    """A Q-standard-form pencil with a prescribed exact solution pair."""

    pencil: SfqPencil
    phi: np.ndarray
    psi: np.ndarray
    m_mat: np.ndarray
    n_mat: np.ndarray
    rho_m: float
    rho_n: float
    seed: int


def _solved_blocks(psi, k1, g1, g2, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """``E0`` from ``E0 (I - G2 N G1 M) = (K1 - Psi G1) M``, and ``Y0 = Psi - E0 G2 N``,
    for ``M = diag(mu)`` and ``N = diag(nu)``, which scale columns by broadcasting;
    the same call on ``(Phi, K2, G2, G1, nu, mu)`` gives the mirror ``(F0, X0)``."""
    g2_n = g2 * nu
    e0 = solve_transposed(np.eye(len(mu)) - g2_n @ (g1 * mu), (k1 - psi @ g1) * mu)
    return e0, psi - e0 @ g2_n


def gen_solved_sfq(m: int, n: int, rho_m: float, rho_n: float, seed: int) -> SolvedSfqInstance:
    """Pencil in Q-standard form whose solution pair is prescribed exactly.

    Draw small random ``Phi``, ``Psi`` and diagonal coefficient matrices with
    spectral radii exactly ``rho_m`` and ``rho_n``, then solve the coupled
    fixed-point relations backwards for ``(E0, Y0)`` and their mirror ``(F0, X0)``.
    Because the coefficient matrices are normal, iterate norms track the spectral
    radii with O(1) constants, so the instance measures asymptotic convergence rates.
    """
    check_count(m, "m")
    check_count(n, "n")
    if not (0 < rho_m and 0 < rho_n and rho_m * rho_n < 1):
        raise ValueError("need rho_m * rho_n < 1")
    rng = np.random.default_rng([seed])
    phi = 0.3 * _complex_normal(rng, n, m) / np.sqrt(m)
    psi = 0.3 * _complex_normal(rng, m, n) / np.sqrt(n)
    mu = _on_circle(rng, m, rho_m, 0.4)
    nu = _on_circle(rng, n, rho_n, 0.4)
    q1 = Permutation(rng.permutation(m + n))
    q2 = Permutation(rng.permutation(m + n))
    p = q1.compose(q2.inverse())                # P = Q1 Q2^T
    # P [Psi; I] = [Q11 Psi + Q12; Q21 Psi + Q22]
    g2, k2 = np.split(_scatter_basis(p.compose(swap_perm(m, n)).inverse(), psi), [m])
    # P^T [I; Phi] = [Q11^T + Q21^T Phi; Q12^T + Q22^T Phi]
    k1, g1 = np.split(_scatter_basis(p, phi), [m])
    e0, y0 = _solved_blocks(psi, k1, g1, g2, mu, nu)
    f0, x0 = _solved_blocks(phi, k2, g2, g1, nu, mu)
    pencil = SfqPencil(m=m, n=n, E=e0, F=f0, X=x0, Y=y0, Q1=q1, Q2=q2)
    return SolvedSfqInstance(pencil=pencil, phi=phi, psi=psi, m_mat=np.diag(mu),
                             n_mat=np.diag(nu), rho_m=rho_m, rho_n=rho_n, seed=seed)
