"""The Q-standard-form pencil model.

A pencil in Q-standard form is the pair

    A_i = [[E, 0], [-X, I]] @ Q1,      B_i = [[I, -Y], [0, F]] @ Q2,

with permutation matrices ``Q1``, ``Q2`` of size ``m + n``, ``E`` m-by-m,
``F`` n-by-n, ``X`` n-by-m and ``Y`` m-by-n.  ``Q1 = Q2 = I`` recovers the
classical first standard form, and ``Q1 @ Q2.T`` equal to the block swap
(with ``m = n``) recovers the second.

``P = Q1 @ Q2.T = [[Q11, Q12], [Q21, Q22]]`` is kept as its index vector
``pi`` (``P[i, pi[i]] = 1``): ``P [Y; I]`` is a row scatter, and
``[-X, I] P [Y; I]`` one product over the r 1s of ``Q11`` with the other
unit rows and columns scattered.  Every mirror (Y-side) formula is its primal
applied to :func:`dual`, or one helper called on the mirrored operands.

A solver takes a disk-split problem as a :class:`GeneralPencil` and a
half-plane one as its :class:`CayleyPair`, which forms the dense transform
only on request.

The residual safeguard, :func:`orthonormal_residual`, checks a basis
against one pencil argument without assembling any pencil; its docstring
says how, and what it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zposv

from .linalg import (
    Permutation,
    abs_sums,
    as_complex_matrix,
    check_count,
    finite_matrix,
    frozen,
    lu_solve,
    qr_in_place,
    row_blocks,
    sealed,
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
        check_count(self.m, "m")
        check_count(self.n, "n")
        a = frozen(self.A)
        b = frozen(self.B)
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValueError(f"pencil matrices must be square and equal: {a.shape} vs {b.shape}")
        if self.m + self.n != a.shape[0]:
            raise ValueError(f"m + n = {self.m + self.n} does not match size {a.shape[0]}")
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
        self.check_gamma(self.gamma)

    @staticmethod
    def check_gamma(gamma: float) -> None:
        """Raise unless ``gamma`` is a valid shift: negative and finite."""
        if not -np.inf < gamma < 0:
            raise ValueError("gamma must be negative and finite")

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        a = self.source.A[rows]
        gamma_b = self.gamma * self.source.B[rows]
        plus = a + gamma_b
        return np.subtract(a, gamma_b, out=gamma_b), plus

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
        check_count(m, "m")
        check_count(n, "n")
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


def q_blocks_of(p: SfqPencil) -> np.ndarray:
    """The index vector ``pi`` of ``P = Q1 @ Q2.T``: ``P[i, pi[i]] = 1``."""
    return p.Q1.compose(p.Q2.inverse()).image


def unit_parts(pi: np.ndarray, m: int):
    """(row, column) indices of the 1s of ``Q11``, ``Q12``, ``Q21``, ``Q22`` in ``pi``."""
    top, bottom = pi[:m], pi[m:]
    a, b = np.flatnonzero(top < m), np.flatnonzero(top >= m)
    c, d = np.flatnonzero(bottom < m), np.flatnonzero(bottom >= m)
    return (a, top[a]), (b, top[b] - m), (c, bottom[c]), (d, bottom[d] - m)


def bracket_w(x: np.ndarray, y: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``[-x, I] P [y; I] = Q22 - x Q12 + (Q21 - x Q11) y`` (n-by-n): one
    product over the r 1s of ``Q11``, the unit rows and columns scattered."""
    (a, a_to), (b, b_to), (c, c_to), (d, d_to) = unit_parts(pi, y.shape[0])
    w = x[:, a] @ -y[a_to]                      # - x Q11 y
    w[:, b_to] -= x[:, b]                       # - x Q12
    w[c] += y[c_to]                             # + Q21 y
    w[d, d_to] += 1.0                           # + Q22
    return w


def _scatter_basis(q: Permutation, block: np.ndarray, order: str = "C") -> np.ndarray:
    """``Q^T [I; block]`` scattered straight into its storage: row ``i`` of
    the stack lands on row ``q.image[i]``."""
    k = block.shape[1]
    out = np.zeros((q.n, k), dtype=np.complex128, order=order)
    out[q.image[:k], np.arange(k)] = 1.0
    out[q.image[k:]] = block
    return out


def sfq_basis(p: SfqPencil, x: np.ndarray | None = None) -> np.ndarray:
    """``Q1^T [I; X]`` assembled by pure entry moves; a given ``x`` takes
    the place of ``X`` and must have its shape."""
    if x is not None and np.shape(x) != p.X.shape:
        raise ValueError(f"x has shape {np.shape(x)}, expected {p.X.shape}")
    return _scatter_basis(p.Q1, p.X if x is None else x)


def anti_basis(p: SfqPencil) -> np.ndarray:
    """``Q2^T [Y; I]``: the primal scatter of ``[I; Y]`` through the block
    swap, ``Q2^T [Y; I] = (Pi^T Q2)^T [I; Y]``."""
    return _scatter_basis(swap_perm(p.m, p.n).inverse().compose(p.Q2), p.Y)


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
    perm = p0.Q1.compose(p0.Q2.inverse())          # P = Q1 Q2^T
    p_y = _scatter_basis(perm.compose(swap_perm(p0.m, p0.n)).inverse(), y)     # P [y; I]
    rhs = p0.Y + p0.E @ p_y[:p0.m] @ lu_solve(bracket_w(p0.X, y, perm.image), p0.F)
    return float(np.linalg.norm(y - rhs)) / max(1.0, float(np.linalg.norm(y)))


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


def _pair_estimates(pair: GeneralPencil | CayleyPair, size: int) -> tuple[float, float]:
    """``two_est(A)`` and ``two_est(B)`` of a pair, from
    :data:`~qdoubling.linalg.ROW_BLOCK` of its rows at a time."""
    norm1, norminf = np.zeros((2, size)), np.zeros(2)
    for rows in row_blocks(size):
        for k, block in enumerate(pair.rows(rows)):
            col, row = abs_sums(block)
            norm1[k] += col
            norminf[k] = max(norminf[k], row.max())
    return tuple(two_est_of(c.max(), r) for c, r in zip(norm1, norminf))


def _operand_order(p: SfqPencil) -> tuple[Permutation, int]:
    """A row order for the basis in which the product operands are slices.

    ``A_i U`` multiplies the top of ``Q1 U`` and ``B_i U`` the bottom of
    ``Q2 U``.  The order puts the rows only the first reads first, then the
    rows both read, then those only the second reads, then the rest; it
    returns the order and where the second operand starts.
    """
    in_a = np.zeros(p.size, dtype=bool)
    in_a[p.Q1.image[:p.m]] = True
    in_b = np.zeros(p.size, dtype=np.intp)
    in_b[p.Q2.image[p.m:]] = 1
    key = np.where(in_a, in_b, 3 - in_b)
    return Permutation(np.argsort(key, kind="stable")), int(np.count_nonzero(key == 0))


def _basis_rows(z: np.ndarray | SfqPencil, order: Permutation | None) -> np.ndarray:
    """A fresh Fortran-ordered copy of the basis, which ``scipy.linalg.qr``
    turns into ``U`` in :func:`qr_in_place`, its rows gathered by ``order``
    when there is one.  A pencil stands for its ``sfq_basis``, scattered
    straight into that order."""
    if isinstance(z, SfqPencil):
        return _scatter_basis(z.Q1 if order is None else z.Q1.compose(order.inverse()),
                              z.X, order="F")
    z = finite_matrix(z, "the basis")
    if order is None:
        return np.array(z, order="F")
    out = np.empty(z.shape, dtype=np.complex128, order="F")
    for rows in row_blocks(z.shape[0]):
        out[rows] = z[order.image[rows]]
    return out


def _fortran(rows: np.ndarray, product: np.ndarray | None = None) -> np.ndarray:
    """``rows`` (or ``rows @ product``) in fresh Fortran-ordered storage, which
    BLAS reads and updates in place."""
    if product is None:
        return np.array(rows, order="F")
    out = np.empty((rows.shape[0], product.shape[1]), dtype=np.complex128, order="F")
    return np.matmul(rows, product, out=out)


def _pair_products(pair: GeneralPencil | CayleyPair, u: np.ndarray):
    """``B U`` and ``A U`` of a dense or Cayley pair, a block of rows at a
    time, each block formed as :meth:`CayleyPair.rows` forms it."""
    def block(rows):
        a, b = pair.rows(rows)
        au = _fortran(a, u)
        del a
        return _fortran(b, u), au

    for rows in row_blocks(u.shape[0]):
        yield block(rows)


def _standard_products(h: np.ndarray, u: np.ndarray):
    """``U`` and ``H U``, the products of the standard problem ``(H, I)``."""
    for rows in row_blocks(u.shape[0]):
        yield _fortran(u[rows]), _fortran(h[rows], u)


def _sfq_products(p: SfqPencil, v: np.ndarray, order: Permutation, split: int):
    """``B_i U`` and ``A_i U`` from ``v``, the basis in :func:`_operand_order`.

    ``A_i U = [E a; a_bot - X a]`` with ``a`` the top of ``Q1 U``, and
    ``B_i U = [b_top - Y b; F b]`` with ``b`` the bottom of ``Q2 U``.  ``a``
    and ``b`` are the slices ``v[:m]`` and ``v[split:split + n]`` up to a row
    order, which the blocks' columns take on instead.  ``b_top - Y b`` and
    ``a_bot - X a`` are one mirrored helper, which gathers its rows of ``v``
    :data:`~qdoubling.linalg.ROW_BLOCK` at a time.
    """
    m, n = p.m, p.n
    at_row = order.inverse().image
    a_op, a_cols = v[:m], p.Q1.inverse().image[order.image[:m]]
    b_op, b_cols = v[split:split + n], p.Q2.inverse().image[order.image[split:split + n]] - m
    a_bot, b_top = at_row[p.Q1.image[m:]], at_row[p.Q2.image[:m]]

    # A gathered block is updated in its own (C) order, since updating a
    # Fortran array by a C-ordered product takes a buffer, and copied after.
    def gathered(at, block, rows, cols, op):
        out = v[at[rows]]
        out -= block[rows, cols] @ op
        return _fortran(out)

    for rows in row_blocks(m):
        yield gathered(b_top, p.Y, rows, b_cols, b_op), _fortran(p.E[rows, a_cols], a_op)
    for rows in row_blocks(n):
        au = gathered(a_bot, p.X, rows, a_cols, a_op)
        yield _fortran(p.F[rows, b_cols], b_op), au
        del au      # freed before the next block of rows is made


def _standard_operands(h, z) -> tuple[np.ndarray, np.ndarray | SfqPencil]:
    """``(h, z)`` as complex matrices (a pencil ``z`` stands for its basis),
    refused unless both are finite, h is square and z has its rows."""
    h = finite_matrix(h, "H")
    z = z if isinstance(z, SfqPencil) else finite_matrix(z, "the basis")
    shape = (z.size, z.m) if isinstance(z, SfqPencil) else z.shape
    if h.shape[0] != h.shape[1] or shape[0] != h.shape[0]:
        raise ValueError("normalized residuals need a square H and a basis of its rows, "
                         f"got H of shape {h.shape} and a basis of shape {shape}")
    return h, z


def _sq_norm(r: np.ndarray) -> float:
    return float(np.vdot(r, r).real)


def _pow2_scale(est: float) -> float:
    """The power of two ``s`` (kept finite) with ``s * est`` in [1, 2)."""
    if est == 0.0:
        return 1.0
    return math.ldexp(1.0, min(1 - math.frexp(est)[1], 1020))


def orthonormal_residual(pencil: np.ndarray | GeneralPencil | CayleyPair | SfqPencil,
                         z: np.ndarray | SfqPencil) -> float:
    """Normalized eigen-residual of span(z) for the pencil ``A - lambda B``.

    The basis is orthonormalized first, the block Rayleigh quotient solved in
    least squares against ``B U``, and the result scaled by
    ``sqrt(p) * (two_est(A) + two_est(M) * two_est(B))``.  ``pencil`` is one of:

    * an :class:`SfqPencil`, for its own ``(A_i, B_i)``: ``U`` is kept in a
      row order in which the operands of both products are slices, and the
      2-norm estimates come from the blocks' row and column sums;
    * a :class:`GeneralPencil` ``(A, B)``, or a :class:`CayleyPair` for
      ``(A - gamma B, A + gamma B)``: its rows are taken (for the Cayley pair,
      formed exactly as :meth:`CayleyPair.pencil` forms them)
      :data:`~qdoubling.linalg.ROW_BLOCK` at a time, first for both
      estimates, then for the products;
    * a bare square ``H`` for the standard problem ``(H, I)`` and a basis of
      its rows, where this is the conditioning-robust normalized residual.

    None forms a dense N-by-N matrix.  ``z`` may be an :class:`SfqPencil`
    standing for its basis ``Q1^T [I; X]``, which is then built here and
    factored in place, so the basis and its ``U`` are never held at once.
    A matrix ``z`` or an ``H`` with a non-finite entry is refused before the
    QR.

    Only ``U`` is kept at the size of ``z``.  ``A U`` and ``B U`` are made
    :data:`~qdoubling.linalg.ROW_BLOCK` rows at a time, twice.  The first
    pass sums ``G = (B U)^H B U`` and ``C = (B U)^H A U``, and one LAPACK
    ``zposv`` solves ``G M = C`` by Cholesky in their own storage, with no
    pivoting and no tolerance; where ``G`` is not positive definite, ``B``
    has lost rank on span(z), and the residual is ``inf``.  The second pass
    measures the true residual of that ``M``, so an inexact ``M`` can only
    raise it.  Beside ``U`` the safeguard holds two m-by-m arrays and one
    block of rows: about 2.3 arrays of the basis's size (N-by-m) at
    m = n = 300.  The products are scaled by the powers of two that bring
    the estimates of ``A`` and ``B`` near 1 (since ``U`` is orthonormal,
    ``two_est(A)`` bounds every entry of ``A U``), so no scale of A or B
    makes ``G`` overflow or underflow.
    """
    if not isinstance(pencil, (SfqPencil, GeneralPencil, CayleyPair)):
        pencil, z = _standard_operands(pencil, z)   # the standard problem (H, I)
    order, split = _operand_order(pencil) if isinstance(pencil, SfqPencil) else (None, 0)
    u = qr_in_place(_basis_rows(z, order))[0]     # r goes before the Gram stage
    if isinstance(pencil, SfqPencil):
        ests = _two_est_a(pencil), _two_est_a(dual(pencil))
        products = partial(_sfq_products, pencil, u, order, split)
    elif isinstance(pencil, (GeneralPencil, CayleyPair)):
        ests = _pair_estimates(pencil, u.shape[0])
        products = partial(_pair_products, pencil, u)
    else:   # B U is U itself
        ests = two_est(pencil), 1.0
        products = partial(_standard_products, pencil, u)
    sa, sb = (_pow2_scale(est) for est in ests)
    cols = u.shape[1]
    gram = np.zeros((cols, cols), dtype=np.complex128, order="F")
    cross = np.zeros_like(gram)
    for bu, au in products():
        bu *= sb
        au *= sa
        gram = zgemm(1.0, bu, bu, 1.0, gram, trans_a=2, overwrite_c=True)
        cross = zgemm(1.0, bu, au, 1.0, cross, trans_a=2, overwrite_c=True)
        del bu, au      # freed before the next block of rows is made
    mray, info = zposv(gram, cross, overwrite_a=True, overwrite_b=True)[1:]
    if info:    # G is not positive definite: B has lost rank on span(z)
        return math.inf
    sq = 0.0
    for bu, au in products():
        bu *= sb
        au *= sa
        sq += _sq_norm(zgemm(-1.0, bu, mray, 1.0, au, overwrite_c=True))
        del bu, au
    return math.sqrt(sq) / (math.sqrt(cols) * (ests[0] * sa + two_est(mray) * ests[1] * sb))
