"""Structure-preserving doubling kernels and stopping rules.

Two equivalent update rules advance a Q-standard-form pencil one doubling
step: the W-rule solves with the n-by-n matrix ``W = [-X, I] P [Y; I]``
(``P = Q1 @ Q2.T``), and the Wt-rule with the m-by-m matrix ``Wt``.  The
Wt-rule is the W-rule of the dual pencil, relabelled back by :func:`dual`,
so either is nonsingular exactly when the other is and both produce the
same next pencil.  ``P`` enters as its index vector (:func:`q_blocks_of`),
so its blocks are applied by scatters and gathers, never multiplied.  With
``Q1 = Q2 = I`` the W-rule collapses to the classical SDASF1 update, and
with ``Q1 @ Q2.T`` equal to the block swap (m = n) to SDASF2, so
:func:`step_sf1` and :func:`step_sf2` are the W-rule with Q frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import Permutation, SingularMatrixError, lu_factor, sealed
from .sfq import BreakdownError, SfqPencil, dual, neg_x_eye_p, p_y_eye, q_blocks_of, swap_perm


class Kernel(enum.Enum):
    W = "w"
    WTILDE = "wtilde"


@dataclass(frozen=True)
class StepOutcome:
    next: SfqPencil
    w_condition: float
    w_min_pivot: float
    kernel: Kernel


def _form_w(p: SfqPencil, z: np.ndarray | None) -> np.ndarray:
    """``W`` of ``p`` from ``z = [-X, I] P`` (formed here when None)."""
    z = neg_x_eye_p(p, q_blocks_of(p)) if z is None else z
    return z[:, p.m:] + z[:, :p.m] @ p.Y


def compute_w(p: SfqPencil, z: np.ndarray | None = None) -> np.ndarray:
    """``W = Q22 - X Q12 + (Q21 - X Q11) Y``  (n-by-n)."""
    return _form_w(p, z)


def compute_wt(p: SfqPencil, z: np.ndarray | None = None) -> np.ndarray:
    """``Wt = Q11^T - Y Q12^T + (Q21^T - Y Q22^T) X`` (m-by-m), the W of ``dual(p)``."""
    # not compute_w: a wrapper of compute_w (a benchmark span) sees W steps only
    return _form_w(dual(p), z)


def _w_rule(p: SfqPencil, form_w: Callable[[np.ndarray], np.ndarray],
            kernel: Kernel, solve: str) -> StepOutcome:
    """One W-rule step of ``p``; ``form_w(z)`` builds W from ``z = [-X, I] P``.

    Each temporary is dropped as soon as the blocks that need it are formed,
    the solve with ``X Q11 - Q21`` takes that fresh block's storage, and X
    and Y are added into fresh products in place (``a + b == b + a``
    exactly), so one step holds little beyond ``p`` and the next pencil.
    """
    m = p.m
    pi = q_blocks_of(p)
    z = neg_x_eye_p(p, pi)
    w, xq = form_w(z), np.negative(z[:, :m], order="F")    # xq = X Q11 - Q21
    del z
    try:
        factors = lu_factor(w)
    except SingularMatrixError as exc:
        raise BreakdownError(f"doubling step ({solve} solve)", str(exc)) from exc
    del w
    winv_xq = factors.solve(xq, overwrite_b=True)   # W^{-1} (X Q11 - Q21), in xq's storage
    del xq
    winv_f = factors.solve(p.F)                 # W^{-1} F
    condition, min_pivot = factors.condition_estimate, factors.min_pivot
    del factors
    q11y_q12 = p_y_eye(pi[:m], p.Y)             # m x n
    core = q11y_q12 @ winv_xq
    rows = np.flatnonzero(pi[:m] < m)
    core[rows, pi[rows]] += 1.0                 # + Q11
    e_next = p.E @ core @ p.E
    del core
    x_next = p.F @ winv_xq @ p.E
    x_next += p.X
    del winv_xq
    y_next = p.E @ q11y_q12 @ winv_f
    y_next += p.Y
    del q11y_q12
    f_next = p.F @ winv_f
    sealed(e_next, f_next, x_next, y_next)
    nxt = replace(p, E=e_next, F=f_next, X=x_next, Y=y_next)
    return StepOutcome(nxt, condition, min_pivot, kernel)


def step_w(p: SfqPencil) -> StepOutcome:
    """One doubling step through the n-by-n solve."""
    return _w_rule(p, lambda z: compute_w(p, z), Kernel.W, "W")


def step_wt(p: SfqPencil) -> StepOutcome:
    """One doubling step through the m-by-m solve: the W-rule of ``dual(p)``."""
    out = _w_rule(dual(p), lambda z: compute_wt(p, z), Kernel.WTILDE, "Wt")
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
