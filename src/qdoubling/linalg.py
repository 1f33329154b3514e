"""Dense complex linear-algebra kernels shared by the whole package.

Everything operates on 2-D ``numpy`` arrays of ``complex128`` in row-major
order.  Permutation matrices are never stored densely; a :class:`Permutation`
keeps an index vector and all products with permutation matrices are pure
entry moves.

Permutation convention
----------------------
A :class:`Permutation` ``p`` represents the matrix ``Q`` with
``Q[i, j] = 1  iff  j == p.image[i]``.  Consequently

* ``Q @ a``   gathers rows:     ``a[p.image, :]``
* ``a @ Q.T`` gathers columns:  ``a[:, p.image]``
* ``Q.T @ a`` and ``a @ Q`` use the inverse image.

The product of two permutation matrices ``P @ R`` is the permutation with
image ``r.image[p.image]``.

Fresh arrays and row blocks
---------------------------
:func:`frozen` copies what it is given into a read-only array, except an
array its maker marked with :func:`sealed`; only the code that computed an
array may seal it.  Kernels that stream over a tall matrix (:func:`abs_sums`,
:func:`norm_inf`, :func:`two_est`, the residual safeguard) work in blocks of
:data:`ROW_BLOCK` rows, so their temporaries do not grow with the matrix;
:class:`AbsSums` takes the blocks as a caller forms them.

LU factorization
----------------
:func:`lu_factor` and :meth:`LUFactors.solve` call LAPACK ``zgetrf`` /
``zgetrs`` without finiteness checks.  Partial pivoting picks the largest
``|Re| + |Im|`` in a column, not the largest modulus.  The singularity test
runs on ``|diag(U)|`` after the factorization, so no warning is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import zgetrf, zgetrs


class SingularMatrixError(Exception):
    """A pivot fell below the singularity tolerance during a factorization."""

    def __init__(self, pivot_index: int, pivot_magnitude: float, message: str | None = None):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        super().__init__(
            message
            or f"singular matrix: pivot {pivot_index} has magnitude {pivot_magnitude:.3e}"
        )


class RankDeficientError(Exception):
    """A matrix expected to have full column rank does not."""


#: Relative pivot threshold for declaring a matrix singular.  Double-precision
#: unit roundoff is ~1.1e-16; the factor leaves headroom for growth.
SINGULARITY_TOL = 1e-13


def as_complex_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-D complex128 array (copying only if needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


#: Rows per block in the kernels that stream over a tall matrix, so that no
#: temporary grows with the matrix.
ROW_BLOCK = 128


def row_blocks(rows: int, block: int = ROW_BLOCK) -> list[slice]:
    """Slices of ``block`` consecutive rows covering ``range(rows)``."""
    return [slice(i, i + block) for i in range(0, rows, block)]


class AbsSums:
    """Column and row sums of ``|a|`` for a matrix fed in blocks of rows, in order.

    The sums carry the same bits as ``np.abs(a).sum(axis=0)`` and
    ``.sum(axis=1)`` whatever the blocks, and need no ``|a|``-sized
    temporary: numpy sums axis 0 row by row, so adding the running column
    sums to a block's first row continues that order.
    """

    def __init__(self, cols: int):
        self.col = np.zeros(cols)
        self._rows: list[np.ndarray] = []

    def add(self, block: np.ndarray):
        mag = np.abs(block)
        self._rows.append(mag.sum(axis=1))
        mag[0] += self.col
        self.col = mag.sum(axis=0)

    @property
    def row(self) -> np.ndarray:
        return np.concatenate(self._rows) if self._rows else np.zeros(0)

    def two_est(self) -> float:
        """:func:`two_est` of the rows added so far."""
        return math.sqrt(self.col.max(initial=0.0)) * math.sqrt(self.row.max(initial=0.0))


def _abs_sums_of(a: np.ndarray) -> AbsSums:
    a = as_complex_matrix(a)
    sums = AbsSums(a.shape[1])
    for rows in row_blocks(a.shape[0]):
        sums.add(a[rows])
    return sums


def abs_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and row sums of ``|a|``, taken over blocks of :data:`ROW_BLOCK` rows
    (see :class:`AbsSums`)."""
    sums = _abs_sums_of(a)
    return sums.col, sums.row


def norm_inf(a: np.ndarray) -> float:
    """``np.abs(a).sum(axis=1).max(initial=0.0)`` with the same bits, taken over
    blocks of :data:`ROW_BLOCK` rows.

    numpy sums each row of a C-ordered ``|a|`` on its own, but the rows of an
    F-ordered one column by column, as :class:`AbsSums` sums the columns of
    ``a.T`` (a block of one row would be summed on its own instead).
    """
    a = as_complex_matrix(a)
    if a.flags.f_contiguous and not a.flags.c_contiguous:
        return float(_abs_sums_of(a.T).col.max(initial=0.0))
    return float(np.array([np.abs(a[rows]).sum(axis=1).max()
                           for rows in row_blocks(a.shape[0])]).max(initial=0.0))


def two_est(a: np.ndarray) -> float:
    """Cheap spectral-norm bound ``sqrt(norm1) * sqrt(norminf)``; never overflows."""
    return _abs_sums_of(a).two_est()


# ---------------------------------------------------------------------------
# LU factorization with row pivoting (LAPACK getrf / getrs)
# ---------------------------------------------------------------------------


@dataclass
class LUFactors:
    """Packed LU factors of a square matrix, as returned by LAPACK ``getrf``.

    ``lu`` holds L (unit lower, below the diagonal) and U (on and above);
    ``piv`` is LAPACK's 0-based row-interchange sequence (row ``k`` was
    swapped with row ``piv[k]`` at step ``k``).  ``pivot_mags`` are the
    pivot magnitudes ``|diag(U)|`` in elimination order.
    """

    lu: np.ndarray
    piv: np.ndarray
    pivot_mags: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    @property
    def min_pivot(self) -> float:
        return float(self.pivot_mags.min())

    @property
    def condition_estimate(self) -> float:
        """Ratio of largest to smallest pivot magnitude."""
        small = float(self.pivot_mags.min())
        if small == 0.0:
            return np.inf
        return float(self.pivot_mags.max() / small)

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """Solve ``a @ x = b`` for one or more right-hand-side columns.

        With ``overwrite_b``, a Fortran-ordered complex ``b`` that its maker
        no longer needs becomes ``x``, so the two are never held at once; any
        other ``b`` is copied as without it.
        """
        b = as_complex_matrix(b)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        return zgetrs(self.lu, self.piv, b, overwrite_b=overwrite_b)[0]


def lu_factor(a: np.ndarray, tol: float = SINGULARITY_TOL) -> LUFactors:
    """Row-pivoted LU factorization of a square matrix.

    Raises :class:`SingularMatrixError` carrying the index of the first pivot
    with ``|U[k, k]| <= tol * norm_inf(a)``.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"lu_factor needs a square matrix, got {a.shape}")
    scale = norm_inf(a)     # before zgetrf's copy, so the two are never held at once
    lu, piv, _ = zgetrf(a)
    pivot_mags = np.abs(np.diagonal(lu))
    small = np.flatnonzero(pivot_mags <= tol * scale)
    if small.size:
        raise SingularMatrixError(int(small[0]), float(pivot_mags[small[0]]))
    return LUFactors(lu, piv, pivot_mags)


def lu_solve(a: np.ndarray, b: np.ndarray, tol: float = SINGULARITY_TOL) -> np.ndarray:
    """Solve ``a @ x = b`` by row-pivoted elimination (no explicit inverse)."""
    return lu_factor(a, tol=tol).solve(b)


def solve_transposed(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``x @ a = c`` (right division) without forming ``inv(a)``."""
    return lu_solve(as_complex_matrix(a).T, as_complex_matrix(c).T).T


# ---------------------------------------------------------------------------
# Thin QR
# ---------------------------------------------------------------------------


def thin_qr(z: np.ndarray, tol: float = SINGULARITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization ``z = u @ r`` with orthonormal ``u``.

    Raises :class:`RankDeficientError` when a diagonal entry of ``r`` falls
    below ``tol`` times the largest one.  ``z`` is left as it is.
    """
    z = as_complex_matrix(z)
    if z.shape[0] < z.shape[1]:
        raise ValueError(f"thin_qr needs rows >= cols, got {z.shape}")
    return qr_in_place(np.array(z, order="F"), tol)


def qr_in_place(a: np.ndarray, tol: float = SINGULARITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """:func:`thin_qr` of a tall Fortran-ordered complex array that its maker
    no longer needs: LAPACK ``zgeqrf`` and ``zungqr`` turn its storage into ``u``,
    so the matrix and its Q factor are never held at once."""
    u, r = qr(a, mode="economic", overwrite_a=True, check_finite=False)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= tol * max(diag.max(), 1e-300):
        raise RankDeficientError(
            f"rank-deficient matrix: |R| diagonal range [{diag.min():.3e}, {diag.max():.3e}]"
        )
    return u, r


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{0..n-1}`` standing in for an n-by-n 0/1 matrix."""

    image: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.intp)
        if img.ndim != 1:
            raise ValueError("permutation image must be a 1-D index vector")
        if not np.array_equal(np.sort(img), np.arange(img.size)):
            raise ValueError("permutation image is not a bijection on {0..n-1}")
        img = img.copy()
        img.setflags(write=False)
        object.__setattr__(self, "image", img)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return self.image.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.image, other.image)

    def __hash__(self):
        return hash(self.image.tobytes())

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.intp)
        inv[self.image] = np.arange(self.n)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation of the matrix product ``self @ other``."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(other.image[self.image])

    def swapped(self, i: int, j: int) -> "Permutation":
        img = self.image.copy()
        img[i], img[j] = img[j], img[i]
        return Permutation(img)

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix, for oracle checks only."""
        q = np.zeros((self.n, self.n), dtype=np.complex128)
        q[np.arange(self.n), self.image] = 1.0
        return q


def permute_rows(p: Permutation, a: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``Q @ a`` (or ``Q.T @ a`` with ``transpose=True``) by entry moves."""
    a = as_complex_matrix(a)
    if a.shape[0] != p.n:
        raise ValueError(f"permutation size {p.n} does not match {a.shape[0]} rows")
    idx = p.inverse().image if transpose else p.image
    return a[idx, :]


def sealed(*arrays: np.ndarray):
    """Mark arrays the caller has just made read-only, and return them.

    :func:`frozen` then keeps a sealed complex array as it is instead of
    copying it, so a pencil built from freshly computed blocks holds them
    once.  Only the code that made an array, and so holds the only reference
    to it, may seal it; an array that arrived from a caller is never sealed,
    since the caller's next write into it would raise.
    """
    for a in arrays:
        a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy, used for immutable value types.

    An array this function made or its maker :func:`sealed` (read-only,
    complex, owning its data) is returned as it is, so pencils that relabel
    each other share their blocks and fresh blocks are not copied again.
    Any other input, a caller's writeable array included, is copied.
    """
    if (isinstance(a, np.ndarray) and a.dtype == np.complex128
            and a.flags.owndata and not a.flags.writeable):
        return a
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out
