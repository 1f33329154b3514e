"""The doubling kernels as first written, kept as a test oracle.

These build the four blocks of ``P = Q1 @ Q2.T`` as dense 0/1 matrices and
write the Wt-rule and the Y-side swap out in full.  The library forms the
W-rule with index gathers and derives each mirror from ``dual``; the oracle
tests require both to agree bit for bit, so acceptance tests 01 and 05
still compare two independent derivations when m != n.

The classical SDASF1 and SDASF2 updates are kept here too, in the form the
literature writes them: the library runs both as the W-rule with Q frozen,
and acceptance test 02 checks that against these formulas.
"""

import numpy as np

from qdoubling.doubling import Kernel, StepOutcome
from qdoubling.guard import ZeroPivotError
from qdoubling.linalg import SINGULARITY_TOL, SingularMatrixError, lu_factor
from qdoubling.sfq import BreakdownError, SfqPencil


def dense_q_blocks(p):
    """``(Q11, Q12, Q21, Q22)`` of ``Q1 @ Q2.T`` as dense 0/1 matrices."""
    m = p.m
    dense = p.Q1.matrix() @ p.Q2.matrix().T
    return dense[:m, :m], dense[:m, m:], dense[m:, :m], dense[m:, m:]


def compute_w(p):
    """``W = Q22 - X Q12 + (Q21 - X Q11) Y``  (n-by-n)."""
    q11, q12, q21, q22 = dense_q_blocks(p)
    return q22 - p.X @ q12 + (q21 - p.X @ q11) @ p.Y


def compute_wt(p):
    """``Wt = Q11^T - Y Q12^T + (Q21^T - Y Q22^T) X``  (m-by-m)."""
    q11, q12, q21, q22 = dense_q_blocks(p)
    return q11.T - p.Y @ q12.T + (q21.T - p.Y @ q22.T) @ p.X


def step_w(p):
    """One doubling step through the n-by-n solve."""
    q11, q12, q21, _ = dense_q_blocks(p)
    try:
        factors = lu_factor(compute_w(p))
    except SingularMatrixError as exc:
        raise BreakdownError("doubling step (W solve)", str(exc)) from exc
    xq_min_q21 = p.X @ q11 - q21
    q11y_q12 = q11 @ p.Y + q12
    winv_xq = factors.solve(xq_min_q21)
    winv_f = factors.solve(p.F)
    e_next = p.E @ (q11 + q11y_q12 @ winv_xq) @ p.E
    f_next = p.F @ winv_f
    x_next = p.X + p.F @ winv_xq @ p.E
    y_next = p.Y + p.E @ q11y_q12 @ winv_f
    nxt = SfqPencil(m=p.m, n=p.n, E=e_next, F=f_next, X=x_next, Y=y_next,
                    Q1=p.Q1, Q2=p.Q2)
    return StepOutcome(nxt, factors.condition_estimate, factors.min_pivot, Kernel.W)


def step_wt(p):
    """One doubling step through the m-by-m solve, written out in full."""
    _, q12, q21, q22 = dense_q_blocks(p)
    try:
        factors = lu_factor(compute_wt(p))
    except SingularMatrixError as exc:
        raise BreakdownError("doubling step (Wt solve)", str(exc)) from exc
    q22x_q12 = q22.T @ p.X + q12.T
    yq_min_q21 = p.Y @ q22.T - q21.T
    wtinv_e = factors.solve(p.E)
    wtinv_yq = factors.solve(yq_min_q21)
    e_next = p.E @ wtinv_e
    f_next = p.F @ (q22.T + q22x_q12 @ wtinv_yq) @ p.F
    x_next = p.X + p.F @ q22x_q12 @ wtinv_e
    y_next = p.Y + p.E @ wtinv_yq @ p.F
    nxt = SfqPencil(m=p.m, n=p.n, E=e_next, F=f_next, X=x_next, Y=y_next,
                    Q1=p.Q1, Q2=p.Q2)
    return StepOutcome(nxt, factors.condition_estimate, factors.min_pivot, Kernel.WTILDE)


def action_y(p, j, ell):
    """Swap column ``ell`` of the Y-block with identity column ``j``; updates Q2."""
    d = p.Y[j, ell]
    if abs(d) <= SINGULARITY_TOL * max(float(np.abs(p.Y[j, :]).max()), 1e-300):
        raise ZeroPivotError(f"Y[{j},{ell}] = {d} is too small to swap on")
    h = p.F[:, ell].copy()
    u = p.Y[:, ell].copy()
    u[j] += 1.0                                   # y + e_j
    row_adj = -p.Y[j, :].copy()                   # e_ell^T - e_j^T Y
    row_adj[ell] += 1.0
    erow = p.E[j, :].copy()
    y_new = p.Y + np.outer(u / d, row_adj)
    e_new = p.E - np.outer(u / d, erow)
    f_new = p.F + np.outer(h / d, row_adj)
    x_new = p.X - np.outer(h / d, erow)
    return SfqPencil(m=p.m, n=p.n, E=e_new, F=f_new, X=x_new, Y=y_new,
                     Q1=p.Q1, Q2=p.Q2.swapped(j, p.m + ell))


def step_sf1(e, f, x, y):
    """One SDASF1 step with LUs of ``I - XY`` and ``I - YX``.

    Returns ``(e_next, f_next, x_next, y_next)``; raises
    :class:`BreakdownError` when either matrix is singular.
    """
    n = x.shape[0]
    m = y.shape[0]
    try:
        w = lu_factor(np.eye(n, dtype=np.complex128) - x @ y)
        wt = lu_factor(np.eye(m, dtype=np.complex128) - y @ x)
    except SingularMatrixError as exc:
        raise BreakdownError("SF1 step", str(exc)) from exc
    e_next = e @ wt.solve(e)
    f_next = f @ w.solve(f)
    x_next = x + f @ w.solve(x @ e)
    y_next = y + e @ (y @ w.solve(f))
    return e_next, f_next, x_next, y_next


def step_sf2(e, f, x, y):
    """One SDASF2 step with an LU of ``X - Y`` (requires m = n)."""
    try:
        d = lu_factor(x - y)
    except SingularMatrixError as exc:
        raise BreakdownError("SF2 step", str(exc)) from exc
    e_next = e @ d.solve(e)
    f_next = -(f @ d.solve(f))
    x_next = x + f @ d.solve(e)
    y_next = y - e @ d.solve(f)
    return e_next, f_next, x_next, y_next
