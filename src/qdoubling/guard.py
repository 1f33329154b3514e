"""Magnitude control for the iterates X and Y.

Whenever an entry of X or Y exceeds the threshold ``tau``, a single column
swap between the structured identity block and the offending column turns
the pencil into an equivalent one in which that entry is replaced by its
reciprocal.  The swap is a rank-one update of all four blocks plus a
transposition recorded in ``Q1``.  A swap on Y is the same swap applied to
the dual pencil (where Y is the X-block), so it records its transposition in
``Q2``.  If ``m + n`` swaps cannot bring the iterate under control, the
guard escalates to a full re-reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .linalg import SINGULARITY_TOL, sealed
from .reduction import reinit
from .sfq import SfqPencil, dual


class ZeroPivotError(Exception):
    """The targeted entry is too small to serve as a swap pivot."""


def default_tau(m: int, n: int) -> float:
    """Entry-magnitude cap ``max(1e3, 10 * sqrt(n * m + 1))``."""
    if m < 1 or n < 1:
        raise ValueError("block sizes must be at least 1")
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
    """Largest entry of X or Y above ``tau``, ties broken toward X, row-major."""
    ax = np.abs(p.X)
    ay = np.abs(p.Y)
    best_x = float(ax.max(initial=0.0))
    best_y = float(ay.max(initial=0.0))
    best = max(best_x, best_y)
    if best <= tau:
        return None
    if best_x >= best_y:
        r, c = np.unravel_index(int(np.argmax(ax)), ax.shape)
        return Violation("X", int(r), int(c), best_x)
    r, c = np.unravel_index(int(np.argmax(ay)), ay.shape)
    return Violation("Y", int(r), int(c), best_y)


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
    x_new, f_new, e_new, y_new = sealed(p.X + np.outer(u, row_adj),
                                        p.F - np.outer(u, frow),
                                        p.E + np.outer(h, row_adj),
                                        p.Y - np.outer(h, frow))
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


def guard(p: SfqPencil, tau: float) -> tuple[SfqPencil, GuardReport]:
    """Apply swap actions (then, if needed, one re-reduction) until no entry
    of X or Y exceeds ``tau``.

    At most ``m + n`` swaps are made before the re-reduction.  Returns the
    possibly updated pencil and a report of what was done.  A still-violating
    pencil after escalation is returned as best effort.
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
        if fixed.which == "X":
            current = action_x(current, fixed.row, fixed.col)
            kind = "action_x"
        else:
            current = action_y(current, fixed.row, fixed.col)
            kind = "action_y"
        violation = find_violation(current, tau)
        if violation is None:
            after = max(current.max_abs_x(), current.max_abs_y())
        else:
            after = violation.magnitude
        actions.append(GuardAction(kind=kind, pivot=(fixed.row, fixed.col),
                                   max_before=fixed.magnitude, max_after=after))
    if violation is not None:
        report = reinit(current)
        current = report.pencil
        actions.append(GuardAction(kind="reinit", pivot=None, max_before=violation.magnitude,
                                   max_after=max(report.max_abs_x, report.max_abs_y)))
    return current, GuardReport(tuple(actions))
