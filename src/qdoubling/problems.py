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

from .linalg import Permutation, SingularMatrixError, lu_factor, lu_solve, solve_transposed
from .sfq import GeneralPencil, SfqPencil, p_y_eye


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
        if self.m_prime < 0 or self.n_prime < 0:
            raise ValueError("m_prime and n_prime must be nonnegative")
        if not self.blocks:
            raise ValueError("at least one circle block is required")
        for size, omega in self.blocks:
            if size < 1:
                raise ValueError("block sizes must be at least 1")
            if abs(abs(omega) - 1.0) > 1e-14:
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
    if not alpha > 2:
        raise ValueError("alpha must exceed 2 to keep the split away from the axis")
    if not eta > 0:
        raise ValueError("eta must be positive")
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
    raise RuntimeError("could not draw a nonsingular eigenvector factor")


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if not gap_scale > 0:
        raise ValueError("gap_scale must be positive")
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
    j = np.eye(p, dtype=np.complex128) * omega
    j += np.diag(np.ones(p - 1), 1) if p > 1 else 0.0
    return j


def jordan_power(p: int, omega: complex, i: int) -> np.ndarray:
    """Closed-form ``J_p(omega) ** (2**i)`` (upper-triangular Toeplitz).

    The first superdiagonal coefficients are ``binom(2^i, j-1) * omega**(2^i-j+1)``.
    Raises :class:`JordanOverflowError` if any coefficient magnitude would
    exceed 1e300.
    """
    if p < 1 or i < 0:
        raise ValueError("need p >= 1 and i >= 0")
    power = 2 ** i
    gammas = np.zeros(p, dtype=np.complex128)
    for j in range(1, min(p, power + 1) + 1):      # binom(2^i, j-1) = 0 beyond
        term = complex(math.comb(power, j - 1)) * omega ** (power - j + 1)
        if not np.isfinite(term) or abs(term) > 1e300:
            raise JordanOverflowError(
                f"entry {j} of J_{p}({omega})^{power} exceeds 1e300")
        gammas[j - 1] = term
    out = np.zeros((p, p), dtype=np.complex128)
    for j in range(p):
        out[np.arange(p - j), np.arange(j, p)] = gammas[j]
    return out


def gamma_block(i: int, k: int, omega: complex) -> np.ndarray:
    """The top-right k-by-k block of ``J_{2k}(omega) ** (2**i)``."""
    return jordan_power(2 * k, omega, i)[:k, k:]


def _random_triangular_with_radius(rng: np.random.Generator, size: int,
                                   radius: float) -> np.ndarray:
    """Upper triangular with spectral radius exactly ``radius`` (if size > 0)."""
    if size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    moduli = radius * (0.3 + 0.7 * rng.random(size))
    moduli[0] = radius
    phases = np.exp(2j * np.pi * rng.random(size))
    t = 0.3 * np.triu(_complex_normal(rng, size, size), 1)
    return t + np.diag(moduli * phases)


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
    j1_blocks = [jordan_block(sz, om) for sz, om in spec.blocks]
    j1 = np.zeros((n0, n0), dtype=np.complex128)
    gamma0 = np.zeros((n0, n0), dtype=np.complex128)
    at = 0
    for (sz, _), blk in zip(spec.blocks, j1_blocks):
        j1[at:at + sz, at:at + sz] = blk
        gamma0[at + sz - 1, at] = 1.0
        at += sz
    ja = np.zeros((size, size), dtype=np.complex128)
    ja[:mp, :mp] = m_stb
    ja[mp:m, mp:m] = j1
    ja[mp:m, m + np_:] = gamma0
    ja[m:m + np_, m:m + np_] = np.eye(np_)
    ja[m + np_:, m + np_:] = j1
    jb = np.eye(size, dtype=np.complex128)
    jb[m:m + np_, m:m + np_] = n_stb
    p = _well_conditioned(rng, size)
    u = _well_conditioned(rng, size)
    a = solve_transposed(u, lu_solve(p, ja))
    b = solve_transposed(u, lu_solve(p, jb))
    true_m = np.zeros((m, m), dtype=np.complex128)
    true_m[:mp, :mp] = m_stb
    true_m[mp:, mp:] = j1
    circle = np.concatenate([np.full(2 * sz, om, dtype=np.complex128)
                             for sz, om in spec.blocks])
    anti = np.array([], dtype=np.complex128)
    if np_:
        anti = 1.0 / np.diag(n_stb)
    pencil = GeneralPencil(A=a, B=b, m=m, n=n)
    return ProblemInstance(
        pencil=pencil, seed=seed,
        true_basis_stable=u[:, :m].copy(), true_m=true_m,
        stable_eigs=np.diag(m_stb).copy(), anti_stable_eigs=anti,
        circle_eigs=circle, basis_full=u,
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


def gen_solved_sfq(m: int, n: int, rho_m: float, rho_n: float, seed: int) -> SolvedSfqInstance:
    """Pencil in Q-standard form whose solution pair is prescribed exactly.

    Draw small random ``Phi``, ``Psi`` and diagonal coefficient matrices with
    spectral radii exactly ``rho_m`` and ``rho_n``, then solve the coupled
    fixed-point relations backwards for ``(E0, F0, X0, Y0)``.  Because the
    coefficient matrices are normal, iterate norms track the spectral radii
    with O(1) constants, which makes the instance suitable for measuring
    asymptotic convergence rates.
    """
    if not (0 < rho_m and 0 < rho_n and rho_m * rho_n < 1):
        raise ValueError("need rho_m * rho_n < 1")
    rng = np.random.default_rng([seed])
    phi = 0.3 * _complex_normal(rng, n, m) / np.sqrt(m)
    psi = 0.3 * _complex_normal(rng, m, n) / np.sqrt(n)

    def _diagonal_radius(size: int, radius: float) -> np.ndarray:
        moduli = radius * (0.4 + 0.6 * rng.random(size))
        moduli[0] = radius
        phases = np.exp(2j * np.pi * rng.random(size))
        return np.diag(moduli * phases)

    m_mat = _diagonal_radius(m, rho_m)
    n_mat = _diagonal_radius(n, rho_n)
    q1 = Permutation(rng.permutation(m + n))
    q2 = Permutation(rng.permutation(m + n))
    eye_m = np.eye(m, dtype=np.complex128)
    eye_n = np.eye(n, dtype=np.complex128)
    pi = q1.compose(q2.inverse()).image         # P = Q1 Q2^T
    g2, k2 = np.split(p_y_eye(pi, psi), [m])    # Q11 Psi + Q12, Q21 Psi + Q22
    # P^T [I; Phi] = [Q11^T + Q21^T Phi; Q12^T + Q22^T Phi] takes rows pi^-1
    k1, g1 = np.split(np.vstack([eye_m, phi])[np.argsort(pi)], [m])
    e0 = solve_transposed(eye_m - g2 @ n_mat @ g1 @ m_mat, (k1 - psi @ g1) @ m_mat)
    f0 = solve_transposed(eye_n - g1 @ m_mat @ g2 @ n_mat, (k2 - phi @ g2) @ n_mat)
    y0 = psi - e0 @ g2 @ n_mat
    x0 = phi - f0 @ g1 @ m_mat
    pencil = SfqPencil(m=m, n=n, E=e0, F=f0, X=x0, Y=y0, Q1=q1, Q2=q2)
    return SolvedSfqInstance(pencil=pencil, phi=phi, psi=psi, m_mat=m_mat,
                             n_mat=n_mat, rho_m=rho_m, rho_n=rho_n, seed=seed)


# ---------------------------------------------------------------------------
# Ground-truth helpers
# ---------------------------------------------------------------------------


def ground_truth_residual(inst: ProblemInstance) -> float:
    """``||A Z - B Z M||_F / (||A||_F ||Z||_F)`` for instances with truth."""
    if inst.true_basis_stable is None or inst.true_m is None:
        raise ValueError("instance carries no ground-truth basis")
    a, b = inst.pencil.A, inst.pencil.B
    z = inst.true_basis_stable
    res = a @ z - b @ z @ inst.true_m
    return float(np.linalg.norm(res) / (np.linalg.norm(a) * np.linalg.norm(z)))


def known_eigenpairs(inst: ProblemInstance, count: int):
    """Eigenpairs ``(lam, z)`` recovered from the stored triangular factor.

    Only available for the random split family.  Pairs are sorted by
    decreasing separation of their eigenvalue from the rest of the spectrum,
    so taking the first ``count`` gives the best-conditioned ones.
    """
    if inst.upper_t is None or inst.basis_full is None:
        raise ValueError("instance does not carry a triangular factor")
    t = inst.upper_t
    u = inst.basis_full
    size = t.shape[0]
    lams = np.diag(t)
    pairs = []
    for k in range(size):
        lam = lams[k]
        others = np.abs(np.delete(lams, k) - lam)
        gap = float(others.min()) if others.size else np.inf
        v = np.zeros(size, dtype=np.complex128)
        v[k] = 1.0
        ok = True
        for j in range(k - 1, -1, -1):
            denom = t[j, j] - lam
            if abs(denom) < 1e-8:
                ok = False
                break
            v[j] = -(t[j, j + 1:k + 1] @ v[j + 1:k + 1]) / denom
        if not ok:
            continue
        z = u @ v
        z = z / np.linalg.norm(z)
        pairs.append((gap, lam, z))
    pairs.sort(key=lambda item: -item[0])
    return [(lam, z) for _, lam, z in pairs[:count]]
