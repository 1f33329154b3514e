"""Reduction of a general pencil to Q-standard form.

Given ``A' - lambda B'``, every routine here produces a left-equivalent
pencil ``[[E0, 0], [-X0, I]] Q1 - lambda [[I, -Y0], [0, F0]] Q2`` where the
permutations collect the column moves made while pivoting.  The left factor
itself is never materialized.

Three discovery strategies are provided, all one schedule of elimination
steps:

* Idea 1 - phased and banded: eliminate one matrix completely, then the
  other, with every pivot search confined to the band of rows being
  triangularized;
* Idea 2 - phased without a band: like Idea 1, but each matrix is pivoted
  over its entire active window, which tends to yield smaller ``X0`` and
  ``Y0``;
* Idea 3 - interleaved: alternate single elimination steps between the two
  matrices until the longer side is done, pivoting over the shrinking
  active window of each.

Each idea comes in two versions depending on which matrix is reduced first.
The band only narrows the first phase: once one side is done, the other
side's band is its whole active window.
The A-side is triangularized bottom-up (its trailing n-by-n block becomes
lower triangular), the B-side top-down (leading m-by-m upper triangular);
a final scaling by the two triangular inverses produces the exact identity
blocks.

Each elimination step subtracts one rank-1 update from the rows it changes
in both working matrices, tile by tile of rows.  The magnitudes ``|A|`` and
``|B|`` live in two float arrays that are recomputed only on the rows a step
updated, right after each tile's update, and those rows include every row a
later pivot window can reach.  The pivot search takes the largest of them
with ``np.argmax``'s tie rule (from the end of the window on the A side),
and the pivot growth is the running maximum of the updated rows' peaks over
the largest initial entry, which is still the maximum over all entries and
all steps.
Where two pivot candidates tie to within an ulp (the late steps of
Cayley-transformed pencils with ``B = I``, whose candidates are all near 2),
which one wins, and so ``Q1`` / ``Q2``, is a rounding-level choice: any
change to the order or fusing of the update's arithmetic can flip it.

A step whose update has at least ``LANE_MIN_ENTRIES`` entries (rows times
N) runs on two lanes (:func:`~qdoubling.linalg.lanes`), the calling thread
and one helper thread, which take the (matrix, tile) pieces of the update
from one shared queue; numpy releases the GIL inside each piece's update
and rescan, and the helper keeps the caller's ``np.errstate``.  A piece reads
only the multipliers and the pivot row, fixed before the step, and writes
only its own tile, so every entry gets the same arithmetic whichever lane
takes it: the output and ``pivot_growth`` (the maximum of the tiles'
peaks) are bit-identical at any schedule.  Claiming is dynamic, so a lane
the OS deschedules on a shared host does not stall the step.  The helper
belongs to one :func:`reduce_pencil` call and is joined when it returns
or raises; it starts at the first large step only.

The threshold was measured by timing one step serially and on two lanes,
medians of nine alternating repetitions, on split Cayley pencils of
N = 110 ... 650, on a 2-vCPU host with one OpenBLAS thread (numpy 2.4,
Python 3.11).  With both vCPUs free, two lanes lost up to 50 000 entries
(0.4-0.9x at N <= 220: the helper's wake-up and the GIL hand-offs outweigh
tiles this small), gained 1.1-1.25x from 80 000 to 140 000 and 1.3-1.6x
from 200 000 up.  With one vCPU taken by other work they lose instead: a
whole N = 650 reduction beside one busy-looping process ran at 0.86-0.89x
its serial speed, as a lane preempted while it holds the GIL stalls the
other.  At 2**17 = 131 072 every step of N <= 362 stays serial, and
every step of an N = 650, m = 300 reduction (at least 300 rows) runs on
two lanes.
"""

from __future__ import annotations

import enum
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .linalg import Permutation, as_complex_matrix, sealed
from .sfq import BreakdownError, GeneralPencil, SfqPencil

#: Pivot-zero threshold, relative to the largest initial entry magnitude of
#: the matrix being eliminated.
PIVOT_TOL = 1e-13

#: Rows per tile of an elimination step: the tiles of both working matrices
#: and of their magnitudes stay in L2 between the update and the rescan.
ELIMINATION_TILE = 32

#: Entries (rows times N) from which an elimination step's update runs on
#: two threads; see the module docstring for how it was measured.
LANE_MIN_ENTRIES = 1 << 17


class Idea(enum.Enum):
    IDEA1 = "idea1"
    IDEA2 = "idea2"
    IDEA3 = "idea3"


class Variant(enum.Enum):
    A_FIRST = "afirst"
    B_FIRST = "bfirst"


@dataclass(frozen=True)
class InitReport:
    pencil: Optional[SfqPencil]     # None once a solve has handed it to its loop
    idea: Idea
    variant: Variant
    max_abs_x: float
    max_abs_y: float
    pivot_growth: float


def _columns(*parts: tuple[np.ndarray, np.ndarray, bool], order: str = "C") -> np.ndarray:
    """``[±M1[:, c1], ±M2[:, c2], ...]`` from ``(M, c, negate)`` parts, gathered
    into one array of the given memory order.

    A column block of ``out`` is not C-contiguous, so ``np.take`` fills it
    through a temporary of the target's size; the gather goes over
    :data:`~qdoubling.linalg.ROW_BLOCK` rows at a time to keep that small.
    """
    rows = parts[0][0].shape[0]
    out = np.empty((rows, sum(cols.size for _, cols, _ in parts)),
                   dtype=np.complex128, order=order)
    start = 0
    for mat, cols, negate in parts:
        block = out[:, start:start + cols.size]
        for band in linalg.row_blocks(rows):
            np.take(mat[band], cols, axis=1, out=block[band], mode="clip")  # cols are in range
        if negate:
            np.negative(block, out=block)
        start += cols.size
    return out


def closed_form_init(g: GeneralPencil, q1: Permutation, q2: Permutation) -> SfqPencil:
    """Reduce to Q-standard form for known permutations, in closed form.

    Solves one mixed linear system built from the blocks of ``A' Q1^T`` and
    ``B' Q2^T``.  A singular system means this ``(Q1, Q2)`` pair admits no
    such reduction; the :class:`SingularMatrixError` propagates.

    The system is gathered and factored before its right-hand side is
    gathered, in Fortran order so that the solution takes its storage, and
    the blocks are returned as arrays of their own, so the pencil keeps them
    without a copy.
    """
    m, n = g.m, g.n
    # looked up per call, so a tracing wrapper on linalg.lu_factor sees it
    factors = linalg.lu_factor(_columns((g.B, q2.image[:m], False), (g.A, q1.image[m:], True)))
    sol = factors.solve(_columns((g.A, q1.image[:m], True), (g.B, q2.image[m:], False),
                                 order="F"), overwrite_b=True)
    del factors
    np.negative(sol, out=sol)
    e, f, x, y = sealed(sol[:m, :m].copy(), sol[m:, m:].copy(),
                        sol[m:, :m].copy(), sol[:m, m:].copy())
    return SfqPencil(m=m, n=n, E=e, F=f, X=x, Y=y, Q1=q1, Q2=q2)


class _Reducer:
    """Shared elimination engine for the three pivoted-reduction ideas.

    Row operations apply to both working matrices (they make up the implicit
    left factor); column swaps apply to one matrix only and are recorded in
    its permutation.  A-side steps fix rows from the bottom, B-side steps
    from the top, so completed rows and columns never move again.

    ``mag_a`` / ``mag_b`` hold ``|aw|`` / ``|bw|`` on every row a later pivot
    window can reach.  They do not follow the swaps: a step's update covers
    all rows between the two completed bands, and their magnitudes are
    recomputed right after it, so the pivot search and the growth never
    take a magnitude twice.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, m: int, n: int, banded: bool, stage: str,
                 helper: Optional[Executor] = None):
        self.m, self.n, self.size = m, n, m + n
        self.banded = banded
        self.helper = helper
        self.aw = as_complex_matrix(a).copy()   # C order: updated rows are contiguous
        self.bw = as_complex_matrix(b).copy()
        self.mag_a = np.abs(self.aw)
        self.mag_b = np.abs(self.bw)
        self.col_a = np.arange(self.size)
        self.col_b = np.arange(self.size)
        self.a_done = 0
        self.b_done = 0
        peak_a = float(self.mag_a.max())
        peak_b = float(self.mag_b.max())
        self.tol_a = PIVOT_TOL * max(peak_a, 1e-300)
        self.tol_b = PIVOT_TOL * max(peak_b, 1e-300)
        self.scale0 = max(peak_a, peak_b)
        self.growth = 1.0
        self.stage = stage

    def _swap_rows(self, i: int, j: int):
        if i != j:
            self.aw[[i, j], :] = self.aw[[j, i], :]
            self.bw[[i, j], :] = self.bw[[j, i], :]

    @staticmethod
    def _swap_cols(w: np.ndarray, cols: np.ndarray, i: int, j: int):
        """Swap columns ``i`` and ``j`` of one working matrix and of its record."""
        if i != j:
            w[:, [i, j]] = w[:, [j, i]]
            cols[[i, j]] = cols[[j, i]]

    @staticmethod
    def _pivot(mags: np.ndarray, from_end: bool) -> tuple[int, int, float]:
        """Row, column and value of the window's largest magnitude.

        Ties go to the first entry in row-major order, or with ``from_end``
        to the last, and a NaN counts as the largest, as ``np.argmax`` picks
        on the window (or on its reverse).  One pass of row maxima finds the
        row, so the strided window is never copied.
        """
        row_max = mags.max(axis=1)
        big = row_max.max()

        def pick(v: np.ndarray) -> int:
            hits = np.flatnonzero(np.isnan(v) if np.isnan(big) else v == big)
            return int(hits[-1] if from_end else hits[0])

        r = pick(row_max)
        c = pick(mags[r])
        return r, c, float(mags[r, c])

    def _eliminate(self, rows: slice, t: int, pivot: np.ndarray):
        """``w[rows] -= outer(pivot[rows, t] / pivot[t, t], w[t])`` for both matrices.

        The update runs over tiles of ``ELIMINATION_TILE`` rows of each
        matrix, and each tile's magnitudes are recomputed and folded into the
        growth while the tile is still in cache; every entry gets the same
        one multiply and subtract as in a single update.  Entries outside
        ``rows`` were counted when they were last written, so the growth
        stays the maximum over all entries and all steps.  (Columns that are
        zero in the pivot row do not change, but whole contiguous rows run
        through ``np.abs`` faster than the strided rest.)

        A tile reads only ``mult`` and row ``t``, which no tile writes, and
        writes only itself, so the tiles can go in any order: on a step of
        at least ``LANE_MIN_ENTRIES`` entries they are the pieces of
        :func:`~qdoubling.linalg.lanes`.
        """
        mult = pivot[rows, t] / pivot[t, t]

        def update(w: np.ndarray, mag: np.ndarray, lo: int) -> float:
            mult_tile = mult[lo:lo + ELIMINATION_TILE]
            tile = slice(rows.start + lo, rows.start + lo + mult_tile.size)
            w[tile] -= np.outer(mult_tile, w[t])
            if w is pivot:
                w[tile, t] = 0.0
            return float(np.abs(w[tile], out=mag[tile]).max())

        tiles = [partial(update, w, mag, lo) for lo in range(0, mult.size, ELIMINATION_TILE)
                 for w, mag in ((self.aw, self.mag_a), (self.bw, self.mag_b))]
        laned = self.helper is not None and mult.size * self.size >= LANE_MIN_ENTRIES
        _, peaks = linalg.lanes(self.helper if laned else None, tiles)
        peak = max([0.0, *peaks])   # as a running maximum from 0: a NaN peak never wins
        self.growth = max(self.growth, peak / self.scale0)

    def a_step(self):
        """One bottom-up elimination step on the A side."""
        t = self.size - 1 - self.a_done
        r0 = max(self.b_done, self.m) if self.banded else self.b_done
        r, c, mag = self._pivot(self.mag_a[r0:t + 1, :t + 1], from_end=True)
        if mag <= self.tol_a:
            raise BreakdownError(self.stage, f"A-side pivot {mag:.3e} at step {self.a_done + 1}")
        self._swap_rows(r0 + r, t)
        self._swap_cols(self.aw, self.col_a, c, t)
        self._eliminate(slice(0, t), t, self.aw)
        self.a_done += 1

    def b_step(self):
        """One top-down elimination step on the B side."""
        t = self.b_done
        r1 = self.size - 1 - self.a_done
        if self.banded:
            r1 = min(r1, self.m - 1)
        r, c, mag = self._pivot(self.mag_b[t:r1 + 1, t:], from_end=False)
        if mag <= self.tol_b:
            raise BreakdownError(self.stage, f"B-side pivot {mag:.3e} at step {self.b_done + 1}")
        self._swap_rows(t + r, t)
        self._swap_cols(self.bw, self.col_b, t + c, t)
        self._eliminate(slice(t + 1, self.size), t, self.bw)
        self.b_done += 1

    def finish(self) -> tuple[SfqPencil, float]:
        """Scale out the two triangular factors and extract the blocks."""
        m = self.m
        lower = self.aw[m:, m:]
        upper = self.bw[:m, :m]
        e0, y0, x0, f0 = sealed(
            solve_triangular(upper, self.aw[:m, :m], check_finite=False),
            -solve_triangular(upper, self.bw[:m, m:], check_finite=False),
            -solve_triangular(lower, self.aw[m:, :m], lower=True, check_finite=False),
            solve_triangular(lower, self.bw[m:, m:], lower=True, check_finite=False))
        pencil = SfqPencil(m=m, n=self.n, E=e0, F=f0, X=x0, Y=y0,
                           Q1=Permutation(self.col_a), Q2=Permutation(self.col_b))
        return pencil, self.growth


def _schedule(idea: Idea, variant: Variant, a_steps: list, b_steps: list) -> list:
    """The steps in their order: the first side's, then the second's (Ideas 1
    and 2), or the two interleaved until the longer side is done (Idea 3)."""
    first, second = (a_steps, b_steps) if variant is Variant.A_FIRST else (b_steps, a_steps)
    if idea is not Idea.IDEA3:
        return first + second
    return [step for pair in zip_longest(first, second) for step in pair if step is not None]


def reduce_pencil(g: GeneralPencil, idea: Idea = Idea.IDEA3,
                  variant: Variant = Variant.A_FIRST) -> InitReport:
    """Reduce ``g`` to Q-standard form with the requested idea and version."""
    # the helper thread starts at the first large step and is joined on the way out
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="qdoubling-reduction") as helper:
        red = _Reducer(g.A, g.B, g.m, g.n, banded=idea is Idea.IDEA1,
                       stage=f"{idea.value} ({variant.value})", helper=helper)
        for step in _schedule(idea, variant, [red.a_step] * g.n, [red.b_step] * g.m):
            step()
    pencil, growth = red.finish()
    return InitReport(pencil=pencil, idea=idea, variant=variant,
                      max_abs_x=pencil.max_abs_x(), max_abs_y=pencil.max_abs_y(),
                      pivot_growth=growth)


#: Fallback order when a reduction breaks down: try the remaining ideas from
#: the most to the least robust pivoting, then switch the starting side.
_FALLBACK_IDEAS = (Idea.IDEA3, Idea.IDEA2, Idea.IDEA1)


def reduce_with_fallback(g: GeneralPencil, idea: Idea = Idea.IDEA3,
                         variant: Variant = Variant.A_FIRST) -> InitReport:
    other = Variant.B_FIRST if variant is Variant.A_FIRST else Variant.A_FIRST
    attempts = [(idea, variant)]
    for var in (variant, other):
        for cand in _FALLBACK_IDEAS:
            if (cand, var) not in attempts:
                attempts.append((cand, var))
    last_error: BreakdownError | None = None
    for cand, var in attempts:
        try:
            return reduce_pencil(g, cand, var)
        except BreakdownError as exc:
            # without its traceback, which holds the failed attempt's frames
            last_error = exc.with_traceback(None)
    raise BreakdownError("initialization", "all reduction attempts failed") from last_error


def reinit(p: SfqPencil, idea: Idea = Idea.IDEA3,
           variant: Variant = Variant.A_FIRST) -> InitReport:
    """Re-reduce the current structured pair, composing the new column moves.

    The reduction runs on ``(A_i Q1^T, B_i Q2^T)`` so the permutations it
    discovers are composed on top of the existing ones.
    """
    a = np.block([[p.E, np.zeros((p.m, p.n))], [-p.X, np.eye(p.n)]])    # A_i Q1^T
    b = np.block([[np.eye(p.m), -p.Y], [np.zeros((p.n, p.m)), p.F]])    # B_i Q2^T
    g = GeneralPencil(A=sealed(a), B=sealed(b), m=p.m, n=p.n)
    report = reduce_with_fallback(g, idea, variant)
    q = report.pencil
    composed = replace(q, Q1=q.Q1.compose(p.Q1), Q2=q.Q2.compose(p.Q2))
    return replace(report, pencil=composed)
