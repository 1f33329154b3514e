"""Dense complex linear-algebra kernels shared by the whole package.

Everything operates on 2-D ``numpy`` arrays of ``complex128`` in row-major
order.  No dense permutation matrix exists in the package: a
:class:`Permutation` keeps an index vector, and every product with a
permutation matrix is a pure entry move.

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
:func:`norm_inf`, :func:`two_est`) work in blocks of :data:`ROW_BLOCK` rows,
so their temporaries do not grow with the matrix;
their sums match numpy's whole-array sums to rounding, not bit for bit.

LU factorization
----------------
:func:`lu_factor` and :meth:`LUFactors.solve` call LAPACK ``zgetrf`` /
``zgetrs`` without finiteness checks.  Partial pivoting picks the largest
``|Re| + |Im|`` in a column, not the largest modulus.  The singularity test
runs on ``|diag(U)|`` after the factorization, so no warning is raised.  An
:class:`LUFactors` may be shared across threads: each solve hands LAPACK its
own copy of the pivot indices.

Two lanes
---------
:func:`lanes` runs independent pieces of work on the calling thread and on
one helper thread, which claim them from one shared queue; numpy and LAPACK
release the GIL inside each piece.  Each piece is the same call on the same
operands whichever lane takes it, so its output does not depend on the
schedule.  The helper runs in a copy of the caller's context, so
``np.errstate`` holds on both lanes.
"""

from __future__ import annotations

import contextvars
import math
from collections import deque
from concurrent.futures import Executor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np
from scipy.linalg.lapack import zgeqrf, zgetrf, zgetrs, zungqr


class SingularMatrixError(Exception):
    """A pivot fell below the singularity tolerance during a factorization."""

    def __init__(self, pivot_index: int, pivot_magnitude: float):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        super().__init__(f"singular matrix: pivot {pivot_index} has magnitude {pivot_magnitude:.3e}")


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


def abs_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and row sums of ``|a|``; the column sums add up those of blocks
    of :data:`ROW_BLOCK` rows."""
    a = as_complex_matrix(a)
    col = np.zeros(a.shape[1])
    row = np.empty(a.shape[0])
    for rows in row_blocks(a.shape[0]):
        mag = np.abs(a[rows])
        col += mag.sum(axis=0)
        row[rows] = mag.sum(axis=1)
    return col, row


def norm_inf(a: np.ndarray) -> float:
    """The largest row sum of ``|a|`` (see :func:`abs_sums`)."""
    return float(abs_sums(a)[1].max(initial=0.0))


def two_est_of(norm1: float, norminf: float) -> float:
    """Cheap spectral-norm bound ``sqrt(norm1) * sqrt(norminf)``; never overflows."""
    return math.sqrt(norm1) * math.sqrt(norminf)


def two_est(a: np.ndarray) -> float:
    """:func:`two_est_of` the 1- and inf-norms of ``a``."""
    return two_est_of(*(sums.max(initial=0.0) for sums in abs_sums(a)))


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
        # scipy's wrapper shifts the pivots it is given to 1-based and back
        # in place, so concurrent solves must not share one pivot array
        return zgetrs(self.lu, self.piv.copy(), b, overwrite_b=overwrite_b)[0]


def lu_factor(a: np.ndarray, overwrite_a: bool = False) -> LUFactors:
    """Row-pivoted LU factorization of a square matrix.

    Raises :class:`SingularMatrixError` carrying the index of the first pivot
    with ``|U[k, k]| <= SINGULARITY_TOL * norm_inf(a)``.  With
    ``overwrite_a``, a Fortran-ordered complex ``a`` that its maker no longer
    needs becomes the factors; any other ``a`` is copied as without it.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"lu_factor needs a square matrix, got {a.shape}")
    scale = norm_inf(a)     # before zgetrf's copy, so the two are never held at once
    lu, piv, _ = zgetrf(a, overwrite_a=overwrite_a)
    pivot_mags = np.abs(np.diagonal(lu))
    small = np.flatnonzero(pivot_mags <= SINGULARITY_TOL * scale)
    if small.size:
        raise SingularMatrixError(int(small[0]), float(pivot_mags[small[0]]))
    return LUFactors(lu, piv, pivot_mags)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by row-pivoted elimination (no explicit inverse)."""
    return lu_factor(a).solve(b)


def solve_transposed(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``x @ a = c`` (right division) without forming ``inv(a)``."""
    return lu_solve(as_complex_matrix(a).T, as_complex_matrix(c).T).T


# ---------------------------------------------------------------------------
# Thin QR
# ---------------------------------------------------------------------------


def thin_qr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization ``z = u @ r`` with orthonormal ``u``.

    Raises :class:`RankDeficientError` when a diagonal entry of ``r`` falls
    below ``SINGULARITY_TOL`` times the largest one.  ``z`` is left as it is.
    """
    qr, tau = _householder(np.array(as_complex_matrix(z), order="F"))
    r = np.triu(qr[:qr.shape[1]])
    return _lapack(zungqr, qr, tau), r


def qr_in_place(a: np.ndarray) -> np.ndarray:
    """``u`` of :func:`thin_qr` for a tall Fortran-ordered complex array that
    its maker no longer needs: LAPACK ``zgeqrf`` and ``zungqr`` turn its
    storage into ``u``, so the matrix and its Q factor are never held at once,
    and the rank is checked on the factor's diagonal without copying ``r``."""
    return _lapack(zungqr, *_householder(a))


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``zgeqrf`` of ``a`` in its storage (Householder vectors below
    the diagonal, ``r`` on and above it) and the reflectors' scalars, after
    the rank check of :func:`thin_qr`."""
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"thin_qr needs rows >= cols, got {a.shape}")
    qr, tau = _lapack(zgeqrf, a)
    diag = np.abs(np.diagonal(qr))
    if diag.size and diag.min() <= SINGULARITY_TOL * max(diag.max(), 1e-300):
        raise RankDeficientError(
            f"rank-deficient matrix: |R| diagonal range [{diag.min():.3e}, {diag.max():.3e}]"
        )
    return qr, tau


def _lapack(routine, *args):
    """``routine(*args)`` in the storage of its first argument, with the
    workspace size LAPACK asks for; its outputs before ``work`` and ``info``."""
    lwork = int(routine(*args, lwork=-1, overwrite_a=True)[-2][0].real)
    *out, _, info = routine(*args, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out[0] if len(out) == 1 else tuple(out)


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


# ---------------------------------------------------------------------------
# Two lanes: the calling thread and one helper thread
# ---------------------------------------------------------------------------

T = TypeVar("T")
R = TypeVar("R")


def lanes(helper: Optional[Executor], pieces: Sequence[Callable[[], T]],
          own: Optional[Callable[[], R]] = None) -> tuple[Optional[R], list[T]]:
    """``own()`` and every piece, each run once; returns ``own``'s result and
    the pieces' results in their order.

    The helper, if given, takes pieces from a shared queue while the calling
    thread runs ``own`` and then takes pieces too; without a helper the
    caller runs the pieces, then ``own``.  The caller never waits for a piece
    the helper has not started: a helper still idle once the queue is empty
    is cancelled.  If a lane raises, no lane takes a further piece, the
    helper's current piece ends, and the error is raised; the caller's error
    wins over the helper's.
    """
    queue = deque(enumerate(pieces))     # deque pops are thread-safe

    def lane() -> list:
        done = []       # a lane's own results, so that nothing outlives the call
        try:
            while True:
                try:
                    i, piece = queue.popleft()
                except IndexError:
                    return done
                done.append((i, piece()))
        except BaseException:
            queue.clear()
            raise

    helped = None
    if helper is not None and pieces:
        helped = helper.submit(contextvars.copy_context().run, lane)
    try:
        # alone, the caller takes the pieces first: their temporaries are
        # gone before own's results exist
        done = lane() if helper is None else []
        mine = own() if own is not None else None
        done += lane()
    except BaseException:
        queue.clear()
        if helped is not None and not helped.cancel():
            wait([helped])
        raise
    if helped is not None and not helped.cancel():
        done += helped.result()
    results: list = [None] * len(pieces)
    for i, value in done:
        results[i] = value
    return mine, results
