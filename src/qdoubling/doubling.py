"""Structure-preserving doubling kernels.

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
(m = n) to SDASF2: both baselines are the W-rule with Q frozen.  SDASF2 steps
through :func:`step_w` on its own pencil; :func:`step_sf1` keeps the classical
``(e, f, x, y)`` signature, which a benchmark tracer wraps.

Every step goes through one W-rule, whose products and solves fall into four
phases of independent work.  A step of at least
:data:`LANE_MIN_MULTIPLY_ADDS` multiply-adds runs each phase on two lanes
(:func:`~qdoubling.linalg.lanes`): the calling thread and one helper thread,
which belongs to that step and is joined when it returns or raises.  Each
piece is the same numpy or LAPACK call on the same operands whichever lane
takes it, so the next pencil and the W telemetry are bit-identical at any
schedule, and a helper that has not started a piece is never waited for.
The phases split each step's work about evenly between the lanes.  On
``gen_solved_sfq(300, 300, 0.99, 0.99, 1)`` (r = 157, one OpenBLAS thread,
medians of 30 serial calls) forming W and its LU took 4.5 ms, G and H
1.9-2.0 ms each, ``E Q11 E`` 1.6 ms and each solve 5.7 ms:

1. the caller forms and factors W; the helper takes ``E Q11 E``, G and H;
2. the caller solves for T; the helper solves for S with the same factors;
3. E' and X' are shared;
4. Y' and F' are shared.

The calls a benchmark tracer wraps (``compute_w`` / ``compute_wt``,
:func:`lu_factor`, the T solve and :func:`q_blocks_of`) stay on the calling
thread; the S solve is the one traced call the helper may take.

The threshold was measured by timing steps serially and on two lanes, with
the phases above, on a 2-vCPU host with one OpenBLAS thread (numpy 2.4,
Python 3.11), in two back-to-back passes: the steps of whole solves
(medians of 7 alternating solves) and single start steps (medians of 9).  On
the Cayley pairs of ``gen_random_split(N/2 - 25, N/2 + 25, 8, 1e-6, 1)`` two
lanes ran QDA's steps 1.30-1.74x as fast over whole solves and 1.24-1.73x as
single steps at every N from 300 to 650; on ``gen_solved_sfq(N/2, N/2, 0.99,
0.99, 1)`` they gave 0.84-0.98x and 0.83-0.94x up to N = 500, and 1.14-1.25x
and 1.46-1.73x at N = 600.  Before the phase split, two lanes gave
0.53-0.96x beside one busy-looping process up to N = 450 and 0.95-1.00x
above.  At 2**26 multiply-adds a step with m = n and r = N/4 runs on two
lanes from N of about 450 up: an ``eta_sweep`` step (N = 110) stays serial,
and every step of an N = 600 or 650 pencil runs on two lanes.  A solved step
at N = 500 (r = 120) thus runs on two lanes where it measured a loss; no
benchmark workload has that size, and the constant is kept.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import Permutation, SingularMatrixError, lanes, lu_factor, sealed
from .sfq import BreakdownError, SfqPencil, bracket_w, dual, q_blocks_of, unit_parts


#: Multiply-adds (``N^2 (n + r)``) from which a doubling step runs on two
#: lanes; see the module docstring for how it was measured.
LANE_MIN_MULTIPLY_ADDS = 1 << 26


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
    ``X' = X + F T``, ``Y' = Y + H S`` and ``F' = F S``.

    The phases, each a call of :func:`lanes`: the caller forms and factors W
    while ``E Q11 E``, G and H are shared (on one lane, where the shared
    pieces run first, ``E Q11 E`` comes before G and H exist); the caller
    solves for T while S is shared; then ``E' = E Q11 E + H T`` and X' are
    shared; then Y' and F'.  T takes G's storage, X and Y are added into
    fresh products in place (``a + b == b + a`` exactly), and the factors, T
    and H are dropped once their phases no longer need them, so the factors
    never meet the products with T: at m = n a step peaks at five m-by-m
    blocks above ``p`` on one lane and six on two, the next pencil's four
    included.
    """
    pi = q_blocks_of(p)
    (a, a_to), (b, b_to), (c, c_to), _ = unit_parts(pi, p.m)

    def g_piece() -> np.ndarray:
        g = (p.E[a_to].T @ p.X[:, a].T).T       # X Q11 E, Fortran-ordered for the solve
        g[c] -= p.E[c_to]                       # - Q21 E
        return g

    def h_piece() -> np.ndarray:
        h = p.E[:, a] @ p.Y[a_to]               # E Q11 Y
        h[:, b_to] += p.E[:, b]                 # + E Q12
        return h

    big = (p.m + p.n) ** 2 * (p.n + a.size) >= LANE_MIN_MULTIPLY_ADDS
    with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="qdoubling-step")
          if big else nullcontext()) as helper:
        try:
            factors, (e_next, g, h) = lanes(helper, (lambda: p.E[:, a] @ p.E[a_to],
                                                     g_piece, h_piece),
                                            lambda: lu_factor(form_w(pi)))
        except SingularMatrixError as exc:
            raise BreakdownError(f"doubling step ({solve} solve)", str(exc)) from exc
        # T = W^{-1} G in g's storage beside S = W^{-1} F
        t, (s,) = lanes(helper, (lambda: factors.solve(p.F),),
                        lambda: factors.solve(g, overwrite_b=True))
        condition, min_pivot = factors.condition_estimate, factors.min_pivot
        del factors, g
        _, (e_next, x_next) = lanes(helper, (lambda: np.add(e_next, h @ t, out=e_next),
                                             lambda: _product_plus(p.F, t, p.X)))
        del t
        held = [h]      # Y' takes H's last reference, so on one lane H is gone before F'
        del h
        _, (y_next, f_next) = lanes(helper, (lambda: _product_plus(held.pop(), s, p.Y),
                                             lambda: p.F @ s))
    sealed(e_next, f_next, x_next, y_next)
    nxt = replace(p, E=e_next, F=f_next, X=x_next, Y=y_next)
    return StepOutcome(nxt, condition, min_pivot, kernel)


def _product_plus(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``a @ b + c``, with ``c`` added into the fresh product."""
    out = a @ b
    out += c
    return out


def step_w(p: SfqPencil) -> StepOutcome:
    """One doubling step through the n-by-n solve."""
    return _w_rule(p, lambda pi: compute_w(p, pi), Kernel.W, "W")


def step_wt(p: SfqPencil) -> StepOutcome:
    """One doubling step through the m-by-m solve: the W-rule of ``dual(p)``."""
    out = _w_rule(dual(p), lambda pi: compute_wt(p, pi), Kernel.WTILDE, "Wt")
    return replace(out, next=dual(out.next))


def step(p: SfqPencil, kernel: Kernel) -> StepOutcome:
    return step_w(p) if kernel is Kernel.W else step_wt(p)


# ---------------------------------------------------------------------------
# Classical specializations
# ---------------------------------------------------------------------------


def step_sf1(e: np.ndarray, f: np.ndarray, x: np.ndarray, y: np.ndarray) -> StepOutcome:
    """One SDASF1 step: the W-rule with ``Q1 = Q2 = I``, where ``W = I - XY``."""
    ident = Permutation.identity(e.shape[0] + f.shape[0])
    return step_w(SfqPencil(m=e.shape[0], n=f.shape[0], E=e, F=f, X=x, Y=y,
                            Q1=ident, Q2=ident))

