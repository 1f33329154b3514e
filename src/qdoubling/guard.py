"""Magnitude control for the iterates X and Y.

Whenever an entry of X or Y exceeds the threshold ``tau``, a single column
swap between the structured identity block and the offending column turns
the pencil into an equivalent one in which that entry is replaced by its
reciprocal.  The swap is a rank-one update of all four blocks plus a
transposition recorded in ``Q1``.  A swap on Y is the same swap applied to
the dual pencil (where Y is the X-block), recording its transposition in
``Q2``; X and Y are scanned as one pair, and one call makes either swap.  If
``m + n`` swaps cannot tame the iterate, the guard re-reduces the pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .linalg import SINGULARITY_TOL, check_count, sealed
from .reduction import Idea, Variant, reinit
from .sfq import SfqPencil, dual


class ZeroPivotError(Exception):
    """The targeted entry is too small to serve as a swap pivot."""


def default_tau(m: int, n: int) -> float:
    """Entry-magnitude cap ``max(1e3, 10 * sqrt(n * m + 1))``."""
    check_count(m, "m")
    check_count(n, "n")
    return max(1.0e3, 10.0 * float(np.sqrt(float(n) * float(m) + 1.0)))


@dataclass(frozen=True)
class GuardAction:
    kind: str                      # "action_x" | "action_y" | "reinit"
    pivot: Optional[tuple[int, int]]
    max_before: float
    max_after: float


@dataclass(frozen=True)
class GuardReport:
    actions: tuple[GuardAction, ...] = field(default=())

    @property
    def acted(self) -> bool:
        return bool(self.actions)


@dataclass(frozen=True)
class Violation:
    which: str                     # "X" | "Y"
    row: int
    col: int
    magnitude: float


def find_violation(p: SfqPencil, tau: float) -> Optional[Violation]:
    """Largest entry of X or Y above ``tau``, ties broken toward X, row-major;
    X wins only if its peak is at least Y's, so never beside a NaN peak."""
    scans = [(name, np.abs(block)) for name, block in (("X", p.X), ("Y", p.Y))]
    peaks = [float(mag.max(initial=0.0)) for _, mag in scans]
    if max(peaks) <= tau:
        return None
    k = 0 if peaks[0] >= peaks[1] else 1
    (name, mag), peak = scans[k], peaks[k]
    r, c = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return Violation(name, int(r), int(c), peak)


def _swap_x(p: SfqPencil, j: int, ell: int, block: str) -> SfqPencil:
    # action_y calls this, not action_x: a wrapper of action_x sees X swaps only
    d = p.X[j, ell]
    if abs(d) <= SINGULARITY_TOL * max(float(np.abs(p.X[j, :]).max()), 1e-300):
        raise ZeroPivotError(f"{block}[{j},{ell}] = {d} is too small to swap on")
    h = p.E[:, ell] / d
    u = p.X[:, ell].copy()
    u[j] += 1.0
    u /= d                                        # (x + e_j) / d
    row_adj = -p.X[j, :].copy()                   # e_ell^T - e_j^T X
    row_adj[ell] += 1.0
    frow = p.F[j, :].copy()
    # each block is made in its outer product's storage; IEEE addition commutes
    x_new, f_new = np.outer(u, row_adj), np.outer(u, frow)
    e_new, y_new = np.outer(h, row_adj), np.outer(h, frow)
    x_new += p.X
    np.subtract(p.F, f_new, out=f_new)
    e_new += p.E
    np.subtract(p.Y, y_new, out=y_new)
    sealed(x_new, f_new, e_new, y_new)
    return replace(p, E=e_new, F=f_new, X=x_new, Y=y_new, Q1=p.Q1.swapped(ell, p.m + j))


def action_x(p: SfqPencil, j: int, ell: int) -> SfqPencil:
    """Swap column ``ell`` of the X-block with identity column ``j``.

    Rank-one updates (with ``x = X[:, ell]``, ``h = E[:, ell]``,
    ``d = X[j, ell]``):

        X <- X + ((x + e_j)/d) (e_ell^T - e_j^T X)
        F <- F - ((x + e_j)/d) (e_j^T F)
        E <- E + (h/d) (e_ell^T - e_j^T X)
        Y <- Y - (h/d) (e_j^T F)

    and Q1 picks up the transposition of positions ``ell`` and ``m + j``.
    """
    return _swap_x(p, j, ell, "X")


def action_y(p: SfqPencil, j: int, ell: int) -> SfqPencil:
    """Mirror of :func:`action_x` for an oversized ``Y[j, ell]``: its swap on ``dual(p)``."""
    return dual(_swap_x(dual(p), j, ell, "Y"))


def guard(p: SfqPencil, tau: float, idea: Idea = Idea.IDEA3,
          variant: Variant = Variant.A_FIRST) -> tuple[SfqPencil, GuardReport]:
    """Apply swap actions (then, if needed, one re-reduction) until no entry
    of X or Y exceeds ``tau``.

    At most ``m + n`` swaps are made before the re-reduction, which
    :func:`~qdoubling.reduction.reinit` starts from ``idea`` and ``variant``
    and whose failure raises :class:`~qdoubling.sfq.BreakdownError`.  Returns
    the possibly updated pencil and a report of what was done.  A
    still-violating pencil after escalation is returned as best effort.
    Each action's ``max_before`` is the magnitude of the violation it fixes
    and its ``max_after`` that of the next violation, so X and Y are scanned
    once per action; only a pencil left compliant needs one more max scan.
    """
    actions: list[GuardAction] = []
    current = p
    violation = find_violation(current, tau)
    for _ in range(p.m + p.n):
        if violation is None:
            return current, GuardReport(tuple(actions))
        fixed = violation
        kind, action = ("action_x", action_x) if fixed.which == "X" else ("action_y", action_y)
        current = action(current, fixed.row, fixed.col)
        violation = find_violation(current, tau)
        after = (max(current.max_abs_x(), current.max_abs_y()) if violation is None
                 else violation.magnitude)
        actions.append(GuardAction(kind=kind, pivot=(fixed.row, fixed.col),
                                   max_before=fixed.magnitude, max_after=after))
    if violation is not None:
        report = reinit(current, idea, variant)
        current = report.pencil
        actions.append(GuardAction(kind="reinit", pivot=None, max_before=violation.magnitude,
                                   max_after=max(report.max_abs_x, report.max_abs_y)))
    return current, GuardReport(tuple(actions))
