"""The Q-standard-form pencil model.

A pencil in Q-standard form is the pair

    A_i = [[E, 0], [-X, I]] @ Q1,      B_i = [[I, -Y], [0, F]] @ Q2,

with permutation matrices ``Q1``, ``Q2`` of size ``m + n``, ``E`` m-by-m,
``F`` n-by-n, ``X`` n-by-m and ``Y`` m-by-n.  ``Q1 = Q2 = I`` recovers the
classical first standard form, and ``Q1 @ Q2.T`` equal to the block swap
(with ``m = n``) recovers the second.

``P = Q1 @ Q2.T = [[Q11, Q12], [Q21, Q22]]`` is kept as its index vector
``pi`` (``P[i, pi[i]] = 1``): ``[-X, I] P`` is a column scatter and
``P [Y; I]`` a row gather.  Every mirror (Y-side) formula is its primal
applied to :func:`dual`.

A solver takes a disk-split problem as a :class:`GeneralPencil` and a
half-plane one as its :class:`CayleyPair`, which forms the dense transform
only on request.

The residual safeguard (:func:`orthonormal_residual`) checks a basis
against one pencil argument.  A pencil in this form is never assembled:
``A_i U`` is a row gather of ``U`` by ``Q1`` and two block products,
``B_i U`` likewise by ``Q2``, and the 2-norm estimates come from the blocks'
row and column sums.  A dense :class:`GeneralPencil` and the Cayley pair of
a half-plane pencil (:class:`CayleyPair`) share one loop over a few dozen
rows at a time; a bare matrix ``H`` stands for ``(H, I)``.  The safeguard
streams over blocks of rows, so it holds only a few arrays of the basis's
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    Permutation,
    abs_sums,
    as_complex_matrix,
    frozen,
    lu_factor,
    lu_solve,
    qr_in_place,
    row_blocks,
    sealed,
    thin_qr,
    two_est,
    two_est_of,
)


class BreakdownError(Exception):
    """An algorithmic stage hit a singular or near-singular system."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"breakdown in {stage}: {detail}")


@dataclass(frozen=True)
class GeneralPencil:
    """A square pencil ``A - lambda B`` with a declared spectral split m/n."""

    A: np.ndarray
    B: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        a = frozen(self.A)
        b = frozen(self.B)
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValueError(f"pencil matrices must be square and equal: {a.shape} vs {b.shape}")
        if self.m + self.n != a.shape[0]:
            raise ValueError(f"m + n = {self.m + self.n} does not match size {a.shape[0]}")
        if self.m < 1 or self.n < 1:
            raise ValueError("both split sizes must be at least 1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("pencil matrices contain non-finite entries")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def size(self) -> int:
        return self.m + self.n

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        return self.A[rows], self.B[rows]


@dataclass(frozen=True)
class CayleyPair:
    """The disk-split pair ``(A - gamma B, A + gamma B)`` of a half-plane pencil.

    With ``gamma < 0`` an eigenvalue ``lam`` maps to
    ``(lam - gamma) / (lam + gamma)``.  :meth:`rows` forms any block of its
    rows from ``source``, so a solve can check a basis against the pair
    without holding it; :meth:`pencil` forms the whole pair the same way.
    """

    source: GeneralPencil
    gamma: float

    def __post_init__(self):
        if not self.gamma < 0:
            raise ValueError("gamma must be negative")

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.source.A[rows], self.source.B[rows]
        gamma_b = self.gamma * b
        return a - gamma_b, a + gamma_b

    def pencil(self) -> GeneralPencil:
        """The dense pair, as a disk-split :class:`GeneralPencil`."""
        a, b = sealed(*self.rows(slice(None)))
        return GeneralPencil(A=a, B=b, m=self.source.m, n=self.source.n)


@dataclass(frozen=True)
class SfqPencil:
    """One pencil of the doubling sequence, in Q-standard form."""

    m: int
    n: int
    E: np.ndarray
    F: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Q1: Permutation
    Q2: Permutation

    def __post_init__(self):
        m, n = self.m, self.n
        for name, mat, shape in (
            ("E", self.E, (m, m)),
            ("F", self.F, (n, n)),
            ("X", self.X, (n, m)),
            ("Y", self.Y, (m, n)),
        ):
            mat = frozen(mat)
            if mat.shape != shape:
                raise ValueError(f"{name} has shape {mat.shape}, expected {shape}")
            object.__setattr__(self, name, mat)
        if self.Q1.n != m + n or self.Q2.n != m + n:
            raise ValueError("Q1 and Q2 must be permutations of size m + n")

    @property
    def size(self) -> int:
        return self.m + self.n

    def max_abs_x(self) -> float:
        return float(np.abs(self.X).max(initial=0.0))

    def max_abs_y(self) -> float:
        return float(np.abs(self.Y).max(initial=0.0))


def structured_a(p: SfqPencil) -> np.ndarray:
    """The left factor ``[[E, 0], [-X, I]]`` (that is, ``A_i @ Q1.T``)."""
    return np.block([[p.E, np.zeros((p.m, p.n))], [-p.X, np.eye(p.n)]])


def structured_b(p: SfqPencil) -> np.ndarray:
    """The left factor ``[[I, -Y], [0, F]]`` (that is, ``B_i @ Q2.T``)."""
    return np.block([[np.eye(p.m), -p.Y], [np.zeros((p.n, p.m)), p.F]])


def q_blocks_of(p: SfqPencil) -> np.ndarray:
    """The index vector ``pi`` of ``P = Q1 @ Q2.T``: ``P[i, pi[i]] = 1``."""
    return p.Q1.compose(p.Q2.inverse()).image


def neg_x_eye_p(p: SfqPencil, pi: np.ndarray) -> np.ndarray:
    """``[-X, I] P = [Q21 - X Q11, Q22 - X Q12]`` (n-by-(m+n)), a column scatter."""
    z = np.zeros((p.n, p.size), dtype=np.complex128)
    z[:, pi[:p.m]] = -p.X
    z[np.arange(p.n), pi[p.m:]] = 1.0
    return z


def p_y_eye(pi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows ``pi`` of ``[y; I]``: ``P [y; I] = [Q11 y + Q12; Q21 y + Q22]``
    for the whole of ``pi``, its top block for ``pi[:m]``; gathered without
    stacking ``[y; I]``."""
    m = y.shape[0]
    out = np.zeros((pi.size, y.shape[1]), dtype=np.complex128)
    from_y = pi < m
    out[from_y] = y[pi[from_y]]
    from_eye = np.flatnonzero(~from_y)
    out[from_eye, pi[from_eye] - m] = 1.0
    return out


def _scatter_basis(q: Permutation, block: np.ndarray, eye_first: bool,
                   order: str = "C") -> np.ndarray:
    """``Q^T [I; block]``, or ``Q^T [block; I]``, scattered straight into its
    storage: row ``i`` of the stack lands on row ``q.image[i]``."""
    k = block.shape[1]
    out = np.zeros((q.n, k), dtype=np.complex128, order=order)
    eye_rows, block_rows = ((q.image[:k], q.image[k:]) if eye_first
                            else (q.image[-k:], q.image[:-k]))
    out[eye_rows, np.arange(k)] = 1.0
    out[block_rows] = block
    return out


def sfq_basis(p: SfqPencil, x: np.ndarray | None = None) -> np.ndarray:
    """``Q1^T [I; X]`` assembled by pure entry moves."""
    return _scatter_basis(p.Q1, p.X if x is None else x, eye_first=True)


def anti_basis(p: SfqPencil, y: np.ndarray | None = None) -> np.ndarray:
    """``Q2^T [Y; I]`` assembled by pure entry moves."""
    return _scatter_basis(p.Q2, p.Y if y is None else y, eye_first=False)


def swap_perm(m: int, n: int) -> Permutation:
    """The block-swap permutation ``[[0, I_m], [I_n, 0]]`` of size m + n."""
    return Permutation(np.concatenate([np.arange(n, n + m), np.arange(n)]))


def dual(p: SfqPencil) -> SfqPencil:
    """The dual pencil: sizes swapped, E<->F, X<->Y, Q's conjugated by the swap.

    Assembling the dual gives exactly ``Pi.T @ B_i @ Pi`` and
    ``Pi.T @ A_i @ Pi`` where ``Pi`` is the block swap, so eigenvalues map to
    their reciprocals.  ``dual(dual(p)) == p`` holds exactly.
    """
    pi = swap_perm(p.m, p.n)
    pi_inv = pi.inverse()
    q1d = pi_inv.compose(p.Q2).compose(pi)
    q2d = pi_inv.compose(p.Q1).compose(pi)
    return SfqPencil(m=p.n, n=p.m, E=p.F, F=p.E, X=p.Y, Y=p.X, Q1=q1d, Q2=q2d)


# ---------------------------------------------------------------------------
# Residual functionals
# ---------------------------------------------------------------------------


def primal_eig_residual(p: SfqPencil, x: np.ndarray, mpow: np.ndarray) -> float:
    """Residual of ``A_i Q1^T [I; X] = B_i Q1^T [I; X] M`` for a supplied M.

    Normalized by ``max(1, ||[I; X]||_F)``.  ``A_i`` and ``B_i`` act through
    their blocks, so only arrays of the basis's size are formed.
    """
    z = sfq_basis(p, as_complex_matrix(x))
    res = _times_a(p, z) - _times_b(p, z) @ as_complex_matrix(mpow)
    return float(np.linalg.norm(res)) / max(1.0, float(np.linalg.norm(z)))


def primal_nme_residual(p0: SfqPencil, x: np.ndarray) -> float:
    """Residual of the primal fixed-point equation at a candidate solution X.

    The equation reads
    ``X = X0 + F0 (Q12^T + Q22^T X) [Q11^T - Y0 Q12^T + (Q21^T - Y0 Q22^T) X]^{-1} E0``,
    which is the dual equation of ``dual(p0)``; the residual is normalized by
    ``max(1, ||X||_F)``.
    """
    return dual_nme_residual(dual(p0), x)


def dual_nme_residual(p0: SfqPencil, y: np.ndarray) -> float:
    """Residual of the dual fixed-point equation at a candidate solution Y.

    ``Y = Y0 + E0 (Q11 Y + Q12) [Q22 - X0 Q12 + (Q21 - X0 Q11) Y]^{-1} F0``,
    normalized by ``max(1, ||Y||_F)``.
    """
    y = as_complex_matrix(y)
    pi = q_blocks_of(p0)
    z = neg_x_eye_p(p0, pi)
    bracket = z[:, p0.m:] + z[:, :p0.m] @ y
    rhs = p0.Y + p0.E @ p_y_eye(pi[:p0.m], y) @ lu_solve(bracket, p0.F)
    return float(np.linalg.norm(y - rhs)) / max(1.0, float(np.linalg.norm(y)))


def _times_a(p: SfqPencil, u: np.ndarray) -> np.ndarray:
    """``A_i u = [E ua_top; ua_bot - X ua_top]`` with ``ua = Q1 u``, a row gather;
    the bottom is updated first, so one product temporary is held at a time."""
    out = u[p.Q1.image]
    out[p.m:] -= p.X @ out[:p.m]
    out[:p.m] = p.E @ out[:p.m]
    return out


def _times_b(p: SfqPencil, u: np.ndarray) -> np.ndarray:
    """``B_i u = [ub_top - Y ub_bot; F ub_bot]`` with ``ub = Q2 u``, a row gather;
    the top is updated first, so one product temporary is held at a time."""
    out = u[p.Q2.image]
    out[:p.m] -= p.Y @ out[p.m:]
    out[p.m:] = p.F @ out[p.m:]
    return out


def _two_est_a(p: SfqPencil) -> float:
    """``two_est(A_i)`` from the blocks' row and column sums.

    The columns of ``[[E, 0], [-X, I]]`` sum to ``|E| + |X|`` and 1, its rows
    to ``|E|`` and ``|X| + 1``; Q1 only permutes the columns.  ``B_i`` is the
    dual's ``A_i`` up to the block swap, so ``two_est(B_i)`` is
    ``_two_est_a(dual(p))``.
    """
    (e_cols, e_rows), (x_cols, x_rows) = abs_sums(p.E), abs_sums(p.X)
    return two_est_of(max(float((e_cols + x_cols).max()), 1.0),
                      max(float(e_rows.max()), float(x_rows.max()) + 1.0))


#: Rows of a dense or Cayley pair the safeguard takes at a time: the rows
#: and their temporaries stay well under one block of the basis's size.
CAYLEY_ROWS = 32


def _row_products(pair: GeneralPencil | CayleyPair, u: np.ndarray):
    """``A U``, ``B U``, ``two_est(A)`` and ``two_est(B)`` of a pair, filled
    from :data:`CAYLEY_ROWS` of its rows at a time."""
    size = u.shape[0]
    products = (np.empty_like(u, order="C"), np.empty_like(u, order="C"))
    norm1, norminf = np.zeros((2, size)), np.zeros(2)
    for rows in row_blocks(size, CAYLEY_ROWS):
        for k, block in enumerate(pair.rows(rows)):
            np.matmul(block, u, out=products[k][rows])
            col, row = abs_sums(block)
            norm1[k] += col
            norminf[k] = max(norminf[k], row.max())
    return (*products, *(two_est_of(c.max(), r) for c, r in zip(norm1, norminf)))


def _orthonormal_basis(z: np.ndarray | SfqPencil) -> np.ndarray:
    """``U`` of ``z = U R``; a pencil stands for its ``sfq_basis``, which is
    built in Fortran order and factored in its own storage."""
    if isinstance(z, SfqPencil):
        return qr_in_place(_scatter_basis(z.Q1, z.X, eye_first=True, order="F"))[0]
    return thin_qr(z)[0]


def _products_h(x: np.ndarray, y: np.ndarray, blocks: list[slice],
                order: str = "C") -> np.ndarray:
    """``x^H y`` summed over ``blocks`` of rows into one array of the given
    memory order, with the bits of ``sum(x[b].conj().T @ y[b] for b in blocks)``."""
    out = np.zeros((x.shape[1], y.shape[1]), dtype=np.complex128, order=order)
    for blk in blocks:
        out += x[blk].conj().T @ y[blk]
    return out


def _sq_norm(r: np.ndarray) -> float:
    return float(np.vdot(r, r).real)


def _pow2_scale(a: np.ndarray) -> float:
    """Scale ``a`` in place by the power of two ``s`` (kept finite) taking
    ``max|a|`` near 1, and return ``s``."""
    big = float(np.max([np.abs(a[blk]).max(initial=0.0) for blk in row_blocks(a.shape[0])]))
    if big == 0.0:
        return 1.0
    s = math.ldexp(1.0, -max(math.frexp(big)[1], -1020))
    a *= s
    return s


def orthonormal_residual(pencil: np.ndarray | GeneralPencil | CayleyPair | SfqPencil,
                         z: np.ndarray | SfqPencil) -> float:
    """Normalized eigen-residual of span(z) for the pencil ``A - lambda B``.

    The basis is orthonormalized first, the block Rayleigh quotient solved in
    least squares against ``B U``, and the result scaled by
    ``sqrt(p) * (two_est(A) + two_est(M) * two_est(B))``.  ``pencil`` is one of:

    * an :class:`SfqPencil`, for its own ``(A_i, B_i)``: ``A_i U`` and
      ``B_i U`` take a row gather and two block products each, and the
      2-norm estimates come from the blocks' row and column sums;
    * a :class:`GeneralPencil` ``(A, B)``, or a :class:`CayleyPair` for
      ``(A - gamma B, A + gamma B)``: its rows are taken (for the Cayley pair,
      formed exactly as :meth:`CayleyPair.pencil` forms them)
      :data:`CAYLEY_ROWS` at a time and fill ``A U``, ``B U`` and both
      estimates block by block;
    * a bare matrix ``H`` for the standard problem ``(H, I)``, where this is
      the conditioning-robust normalized residual.

    None forms a dense N-by-N matrix.  ``z`` may be an :class:`SfqPencil`
    standing for its basis ``Q1^T [I; X]``, which is then built here and
    factored in place, so the basis and its ``U`` are never held at once.

    Only ``U``, ``A U`` and ``B U`` are kept at the size of ``z``.  ``A U``
    and ``B U`` are rescaled in place by powers of two, so no scale of A or B
    makes the Gram matrix overflow or underflow; the Gram matrix, the
    right-hand side and the residual are accumulated over blocks of rows
    (:func:`~qdoubling.linalg.row_blocks`).  The Gram matrix is factored
    before the right-hand side is formed, and the solution takes the
    right-hand side's storage, so at most three m-by-m arrays are held.
    """
    u = _orthonormal_basis(z)
    if isinstance(pencil, SfqPencil):
        au, bu = _times_a(pencil, u), _times_b(pencil, u)
        a_est, b_est = _two_est_a(pencil), _two_est_a(dual(pencil))
    elif isinstance(pencil, (GeneralPencil, CayleyPair)):
        au, bu, a_est, b_est = _row_products(pencil, u)
    else:   # the standard problem (H, I): B U is U itself
        h = as_complex_matrix(pencil)
        au, bu, a_est, b_est = h @ u, u, two_est(h), 1.0
    sa = _pow2_scale(au)
    sb = 1.0 if bu is u else _pow2_scale(bu)
    cols = u.shape[1]
    del u   # from here on only A U and B U are needed
    blocks = row_blocks(au.shape[0])
    gram_lu = lu_factor(_products_h(bu, bu, blocks))
    mray = gram_lu.solve(_products_h(bu, au, blocks, order="F"), overwrite_b=True)
    del gram_lu
    num = math.sqrt(sum(_sq_norm(au[blk] - bu[blk] @ mray) for blk in blocks))
    den = np.sqrt(cols) * (a_est * sa + two_est(mray) * b_est * sb)
    return num / den
