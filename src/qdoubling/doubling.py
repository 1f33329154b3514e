"""Structure-preserving doubling kernels and stopping rules.

Two equivalent update rules advance a Q-standard-form pencil one doubling
step: the W-rule solves with the n-by-n matrix ``W = [-X, I] P [Y; I]``
(``P = Q1 @ Q2.T``), and the Wt-rule with the m-by-m matrix ``Wt``.  The
Wt-rule is the W-rule of the dual pencil, relabelled back by :func:`dual`,
so either is nonsingular exactly when the other is and both produce the
same next pencil.  ``P`` enters as its index vector (:func:`q_blocks_of`),
so its 0/1 blocks are applied by scatters and gathers, never multiplied:
with r the 1s of ``Q11`` and N = m + n, a step costs ``N^2 (n + r)`` GEMM
multiply-adds and one LU.  With ``Q1 = Q2 = I`` the W-rule collapses to the
classical SDASF1 update, and with ``Q1 @ Q2.T`` equal to the block swap
(m = n) to SDASF2, so :func:`step_sf1` and :func:`step_sf2` are the W-rule
with Q frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import Permutation, SingularMatrixError, lu_factor, sealed
from .sfq import BreakdownError, SfqPencil, bracket_w, dual, q_blocks_of, swap_perm, unit_parts


class Kernel(enum.Enum):
    W = "w"
    WTILDE = "wtilde"


@dataclass(frozen=True)
class StepOutcome:
    next: SfqPencil
    w_condition: float
    w_min_pivot: float
    kernel: Kernel


def compute_w(p: SfqPencil, pi: np.ndarray | None = None) -> np.ndarray:
    """``W = Q22 - X Q12 + (Q21 - X Q11) Y`` (n-by-n); ``pi``, if given, is ``q_blocks_of(p)``."""
    return bracket_w(p.X, p.Y, q_blocks_of(p) if pi is None else pi)


def compute_wt(p: SfqPencil, pi: np.ndarray | None = None) -> np.ndarray:
    """``Wt = Q11^T - Y Q12^T + (Q21^T - Y Q22^T) X`` (m-by-m), the W of
    ``dual(p)``; ``pi``, if given, is ``q_blocks_of(dual(p))``."""
    # not compute_w: a wrapper of compute_w (a benchmark span) sees W steps only
    return bracket_w(p.Y, p.X, q_blocks_of(dual(p)) if pi is None else pi)


def _w_rule(p: SfqPencil, form_w: Callable[[np.ndarray], np.ndarray],
            kernel: Kernel, solve: str) -> StepOutcome:
    """One W-rule step of ``p``; ``form_w(pi)`` builds W from the index vector of P.

    With ``a`` the r top rows of P whose 1 lies in Q11, the unit rows and
    columns of ``[-X, I] P`` and ``P [Y; I]`` are scattered, not multiplied:
    ``G = (X Q11 - Q21) E = X[:, a] @ E[pi[a]] - Q21 E``,
    ``H = E (Q11 Y + Q12) = E[:, a] @ Y[pi[a]] + E Q12``, ``T = W^{-1} G`` and
    ``S = W^{-1} F`` (one LU); then ``E' = E[:, a] @ E[pi[a]] + H T``,
    ``X' = X + F T``, ``Y' = Y + H S`` and ``F' = F S``.  Each temporary is
    dropped once dead, T takes G's storage, and X and Y are added into fresh
    products in place (``a + b == b + a`` exactly), so one step holds little
    beyond ``p`` and the next pencil.
    """
    pi = q_blocks_of(p)
    try:
        factors = lu_factor(form_w(pi))
    except SingularMatrixError as exc:
        raise BreakdownError(f"doubling step ({solve} solve)", str(exc)) from exc
    (a, a_to), (b, b_to), (c, c_to), _ = unit_parts(pi, p.m)
    e_rows = p.E[a_to]                          # Q11 E, less its zero rows
    g = (e_rows.T @ p.X[:, a].T).T              # X Q11 E, Fortran-ordered for the solve
    g[c] -= p.E[c_to]                           # - Q21 E
    t = factors.solve(g, overwrite_b=True)      # T = W^{-1} G, in g's storage
    del g
    s = factors.solve(p.F)                      # S = W^{-1} F
    condition, min_pivot = factors.condition_estimate, factors.min_pivot
    del factors
    e_cols = p.E[:, a]
    h = e_cols @ p.Y[a_to]                      # E Q11 Y
    h[:, b_to] += p.E[:, b]                     # + E Q12
    e_next = e_cols @ e_rows                    # E Q11 E
    del e_cols, e_rows
    e_next += h @ t
    x_next = p.F @ t
    x_next += p.X
    del t
    y_next = h @ s
    y_next += p.Y
    del h
    f_next = p.F @ s
    sealed(e_next, f_next, x_next, y_next)
    nxt = replace(p, E=e_next, F=f_next, X=x_next, Y=y_next)
    return StepOutcome(nxt, condition, min_pivot, kernel)


def step_w(p: SfqPencil) -> StepOutcome:
    """One doubling step through the n-by-n solve."""
    return _w_rule(p, lambda pi: compute_w(p, pi), Kernel.W, "W")


def step_wt(p: SfqPencil) -> StepOutcome:
    """One doubling step through the m-by-m solve: the W-rule of ``dual(p)``."""
    out = _w_rule(dual(p), lambda pi: compute_wt(p, pi), Kernel.WTILDE, "Wt")
    return replace(out, next=dual(out.next))


def select_kernel(m: int, n: int) -> Kernel:
    """Solve with the smaller matrix: W (n-by-n) unless n > m."""
    return Kernel.W if n <= m else Kernel.WTILDE


def step(p: SfqPencil, kernel: Kernel | None = None) -> StepOutcome:
    kernel = kernel or select_kernel(p.m, p.n)
    return step_w(p) if kernel is Kernel.W else step_wt(p)


# ---------------------------------------------------------------------------
# Classical specializations
# ---------------------------------------------------------------------------


def step_sf1(e: np.ndarray, f: np.ndarray, x: np.ndarray, y: np.ndarray) -> StepOutcome:
    """One SDASF1 step: the W-rule with ``Q1 = Q2 = I``, where ``W = I - XY``."""
    ident = Permutation.identity(e.shape[0] + f.shape[0])
    return step_w(SfqPencil(m=e.shape[0], n=f.shape[0], E=e, F=f, X=x, Y=y,
                            Q1=ident, Q2=ident))


def step_sf2(e: np.ndarray, f: np.ndarray, x: np.ndarray, y: np.ndarray) -> StepOutcome:
    """One SDASF2 step: the W-rule with ``Q1 = I`` and ``Q2`` the block swap
    (requires m = n), where ``W = Y - X``."""
    n = x.shape[0]
    return step_w(SfqPencil(m=n, n=n, E=e, F=f, X=x, Y=y,
                            Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n)))


# ---------------------------------------------------------------------------
# Stopping rules
# ---------------------------------------------------------------------------


class StopMode(enum.Enum):
    PLAIN = "plain"
    KAHAN = "kahan"


def check_stop(diffs: Sequence[float], x_norm: float, rtol: float,
               mode: StopMode = StopMode.KAHAN) -> bool:
    """Decide termination from the update-norm history.

    ``diffs`` holds ``||X_i - X_{i-1}||_F`` in order.  The plain rule needs
    one difference; the Kahan rule needs two and a strictly positive
    denominator, falling back to the plain rule otherwise.
    """
    if not diffs:
        return False
    d_now = diffs[-1]
    plain = d_now <= rtol * x_norm
    if mode is StopMode.PLAIN or len(diffs) < 2:
        return plain
    denom = diffs[-2] - d_now
    if denom <= 0.0:
        return plain
    return d_now * d_now / denom <= rtol * x_norm
