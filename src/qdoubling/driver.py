"""End-to-end drivers: the Q-doubling algorithm and the classical baselines.

``run_qda`` reduces a general pencil to Q-standard form, iterates the
doubling kernel with the magnitude guard after every step, and terminates on
a Kahan (or plain) update criterion backed by a residual safeguard against
false convergence.  ``run_sdasf1`` / ``run_sdasf2`` run the same loop on the
W-rule with Q frozen (``step_sf1`` / ``step_sf2``), no guard and no recovery,
reporting breakdowns and non-finite blow-ups as they happen.

``run_qda``, ``run_sdasf1_on`` and ``run_sdasf2_on`` take a
:data:`Problem`: a disk-split ``GeneralPencil``, or the ``CayleyPair`` of a
half-plane pencil, whose dense transform is formed for the reduction or the
closed-form start only and released before the first step.

A run holds its live iterate, its history of pencils and, only while the
safeguard runs, a few arrays of the basis's size.  The safeguard checks
against one pencil (:data:`Reference`) and never builds a dense copy.  A run
from a :data:`Problem` checks against it and frees its start after the first
step.  Each step's fresh blocks are sealed (:func:`~qdoubling.linalg.sealed`)
and so become the next pencil without a copy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .doubling import (Kernel, StepOutcome, StopMode, check_stop, select_kernel, step,
                       step_sf1, step_sf2)
from .guard import GuardReport, default_tau, guard
from .linalg import Permutation, RankDeficientError, SingularMatrixError
from .reduction import Idea, InitReport, Variant, closed_form_init, reduce_with_fallback, reinit
from .sfq import (
    BreakdownError,
    CayleyPair,
    GeneralPencil,
    SfqPencil,
    orthonormal_residual,
    swap_perm,
)

class RunStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    BREAKDOWN = "breakdown"


@dataclass(frozen=True)
class QdaConfig:
    rtol: float = 1e-14
    max_iter: int = 50
    stop_mode: StopMode = StopMode.KAHAN
    tau: Optional[float] = None      # guard threshold; None -> default_tau(m, n)
    init_idea: Idea = Idea.IDEA3
    init_variant: Variant = Variant.A_FIRST

    def __post_init__(self):
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tau is not None and not self.tau > 1.0:
            raise ValueError("tau must exceed 1")

    def tau_for(self, m: int, n: int) -> float:
        return self.tau if self.tau is not None else default_tau(m, n)


@dataclass(frozen=True)
class IterationRecord:
    index: int
    abs_update_x: float
    rel_update_x: float
    norm_e: float
    norm_f: float
    norm_x: float
    norm_y: float
    w_condition: float
    w_min_pivot: float
    kernel: Kernel
    guard_events: GuardReport
    pencil: SfqPencil = field(repr=False)


@dataclass(frozen=True)
class QdaResult:
    phi: Optional[np.ndarray]
    psi: Optional[np.ndarray]
    q1: Optional[Permutation]
    q2: Optional[Permutation]
    history: tuple[IterationRecord, ...]
    status: RunStatus
    final: Optional[SfqPencil] = None
    init_report: Optional[InitReport] = None
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.history)


def _all_finite(p: SfqPencil) -> bool:
    return all(bool(np.isfinite(block).all()) for block in (p.E, p.F, p.X, p.Y))


def _no_start(message: str) -> QdaResult:
    """A run that ended before its first step."""
    return QdaResult(phi=None, psi=None, q1=None, q2=None, history=(),
                     status=RunStatus.BREAKDOWN, message=message)


#: What a solver is given: a disk-split pencil, or a half-plane pencil's
#: Cayley pair.
Problem = GeneralPencil | CayleyPair

#: The pencil the safeguard checks a basis against: the :data:`Problem` a
#: run was reduced from, or the ``SfqPencil`` it started from; none is
#: formed as a dense copy.
Reference = Problem | SfqPencil


def _disk(problem: Problem) -> GeneralPencil:
    """The dense disk-split pencil of a problem."""
    return problem.pencil() if isinstance(problem, CayleyPair) else problem


def _safeguard_ok(p: SfqPencil, rtol: float, reference: Reference) -> bool:
    """Residual backstop before declaring convergence.

    The check holds the orthonormal basis of ``sfq_basis(p)``, built in its
    own storage, and the two products with it, a few N-by-m blocks, beside
    the run's history (see :func:`orthonormal_residual`).
    """
    try:
        res = orthonormal_residual(reference, p)
    except (RankDeficientError, SingularMatrixError):
        return False
    return res <= math.sqrt(rtol)


def _relative(delta: float, norm_x: float) -> float:
    if norm_x > 0.0:
        return delta / norm_x
    return 0.0 if delta == 0.0 else math.inf


def _iterate(start: list[SfqPencil], cfg: QdaConfig,
             advance: Callable[[SfqPencil, Kernel], StepOutcome],
             tau: Optional[float], reference: Reference) -> QdaResult:
    """The doubling loop every algorithm runs.

    ``start`` holds the first pencil, and the loop takes it out, so a start
    that no caller keeps is freed once the first step has replaced it.
    ``advance(p, kernel)`` makes one step.  With a ``tau``, the guard keeps
    X and Y under it, and a breakdown is met by one re-reduction, then one
    kernel switch, before it ends the run; ``tau`` None is the classical
    loop, with neither.  A non-finite start ends the run before any step,
    and a non-finite block or norm later ends it as a breakdown.
    """
    p = start.pop()
    if not _all_finite(p):
        return _no_start("non-finite start pencil")
    diffs: list[float] = []
    history: list[IterationRecord] = []
    status = RunStatus.MAX_ITER
    message = ""
    recover = tau is not None
    reinit_used = kernel_switched = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        kernel = select_kernel(p.m, p.n)
        if kernel_switched:
            kernel = Kernel.WTILDE if kernel is Kernel.W else Kernel.W
        try:
            outcome = advance(p, kernel)
        except BreakdownError as exc:
            # Recovery policy: one re-reduction, then one kernel switch.
            if recover and not reinit_used:
                reinit_used = True
                try:
                    p = reinit(p, cfg.init_idea, cfg.init_variant).pencil
                    it -= 1
                    continue
                except BreakdownError:
                    pass
            if recover and not kernel_switched:
                kernel_switched = True
                it -= 1
                continue
            status = RunStatus.BREAKDOWN
            message = f"iteration {it}: {exc}"
            break
        if not _all_finite(outcome.next):
            status = RunStatus.BREAKDOWN
            message = f"non-finite iterate at iteration {it}"
            break
        if tau is not None:
            accepted, greport = guard(outcome.next, tau)
        else:
            accepted, greport = outcome.next, GuardReport()
        with np.errstate(over="ignore"):    # an overflowing norm ends the run below
            delta = float(np.linalg.norm(outcome.next.X - p.X))
            norm_e, norm_f, norm_x, norm_y = (float(np.linalg.norm(block)) for block in
                                              (accepted.E, accepted.F, accepted.X, accepted.Y))
        if not all(map(math.isfinite, (delta, norm_e, norm_f, norm_x, norm_y))):
            # the blocks are finite but a norm is not: no stopping test holds
            status = RunStatus.BREAKDOWN
            message = f"non-finite norm at iteration {it}"
            break
        history.append(IterationRecord(
            index=it, abs_update_x=delta, rel_update_x=_relative(delta, norm_x),
            norm_e=norm_e, norm_f=norm_f, norm_x=norm_x, norm_y=norm_y,
            w_condition=outcome.w_condition, w_min_pivot=outcome.w_min_pivot,
            kernel=outcome.kernel, guard_events=greport, pencil=accepted,
        ))
        diffs.append(delta)
        p = accepted
        if greport.acted:
            continue  # coordinates changed; the update norm is not comparable
        if check_stop(diffs, norm_x, cfg.rtol, cfg.stop_mode):
            if _safeguard_ok(p, cfg.rtol, reference):
                status = RunStatus.CONVERGED
                break
    return QdaResult(phi=p.X, psi=p.Y, q1=p.Q1, q2=p.Q2, history=tuple(history),
                     status=status, final=p, message=message)


def run_sdasfq(p0: SfqPencil | list[SfqPencil], cfg: QdaConfig,
               reference: Optional[Reference] = None) -> QdaResult:
    """Doubling loop on an already-reduced pencil (guard and recovery included).

    The residual safeguard checks against ``reference`` (see
    :data:`Reference`) when given, and otherwise against ``p0``'s own blocks.
    ``p0`` may come in a one-element list, which the loop empties, so that a
    start the caller keeps no other reference to is freed once the first
    step has replaced it; a plain argument stays referenced by the caller
    until the call returns.
    """
    start = p0 if isinstance(p0, list) else [p0]
    m, n = start[0].m, start[0].n
    return _iterate(start, cfg, step, cfg.tau_for(m, n),
                    start[0] if reference is None else reference)


def run_qda(problem: Problem, cfg: QdaConfig = QdaConfig()) -> QdaResult:
    """Full pipeline on a disk-split pencil: reduce, iterate, guard, stop.

    A :class:`~qdoubling.sfq.CayleyPair` has its transform formed only for
    the reduction, and released before the first step; the residual
    safeguard forms the pair's rows from its source a few at a time.  The
    run then holds no N-by-N matrix beyond the caller's pencil.

    The reduced start is handed to the loop and freed once the first step
    has replaced it: the result's ``init_report`` keeps the reduction's idea,
    variant and sizes with ``pencil=None``, and
    ``reduce_with_fallback(g, report.idea, report.variant)``, with ``g`` the
    problem's disk pencil, forms the start again bit for bit.
    """
    disk = _disk(problem)
    try:
        report = reduce_with_fallback(disk, cfg.init_idea, cfg.init_variant)
    except BreakdownError as exc:
        return _no_start(f"initialization: {exc}")
    del disk   # a Cayley pair is needed again only row by row, by the safeguard
    start = [report.pencil]
    report = replace(report, pencil=None)
    return replace(run_sdasfq(start, cfg, reference=problem), init_report=report)


# ---------------------------------------------------------------------------
# Classical baselines
# ---------------------------------------------------------------------------


def _fixed_q(stepper) -> Callable[[SfqPencil, Kernel], StepOutcome]:
    """A baseline's ``advance`` for the shared loop, run with no guard and no recovery."""
    return lambda p, _k: stepper(p.E, p.F, p.X, p.Y)


def run_sdasf1(e0: np.ndarray, f0: np.ndarray, x0: np.ndarray, y0: np.ndarray,
               cfg: QdaConfig = QdaConfig()) -> QdaResult:
    """Classical first-standard-form doubling: fixed identity permutations."""
    m, n = e0.shape[0], f0.shape[0]
    ident = Permutation.identity(m + n)
    p0 = SfqPencil(m=m, n=n, E=e0, F=f0, X=x0, Y=y0, Q1=ident, Q2=ident)
    return _iterate([p0], cfg, _fixed_q(step_sf1), None, p0)


def run_sdasf2(e0: np.ndarray, f0: np.ndarray, x0: np.ndarray, y0: np.ndarray,
               cfg: QdaConfig = QdaConfig()) -> QdaResult:
    """Classical second-standard-form doubling (requires m = n)."""
    n = e0.shape[0]
    if f0.shape[0] != n:
        raise ValueError("the second standard form requires m = n")
    p0 = SfqPencil(m=n, n=n, E=e0, F=f0, X=x0, Y=y0,
                   Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n))
    return _iterate([p0], cfg, _fixed_q(step_sf2), None, p0)


def sdasf1_init(g: GeneralPencil) -> SfqPencil:
    """Closed-form reduction with both permutations fixed to the identity."""
    ident = Permutation.identity(g.size)
    return closed_form_init(g, ident, ident)


def sdasf2_init(g: GeneralPencil) -> SfqPencil:
    """Closed-form reduction onto the second standard form (m = n)."""
    if g.m != g.n:
        raise ValueError("the second standard form requires m = n")
    return closed_form_init(g, Permutation.identity(g.size), swap_perm(g.m, g.n))


def _run_baseline_on(problem: Problem, cfg: QdaConfig, init, stepper,
                     label: str) -> QdaResult:
    """A baseline from its closed-form start, checked against the problem; a
    Cayley pair's transform and the start are freed as ``run_qda`` frees them."""
    try:
        start = [init(_disk(problem))]
    except SingularMatrixError as exc:
        return _no_start(f"{label} initialization: {exc}")
    return _iterate(start, cfg, _fixed_q(stepper), None, problem)


def run_sdasf1_on(problem: Problem, cfg: QdaConfig = QdaConfig()) -> QdaResult:
    return _run_baseline_on(problem, cfg, sdasf1_init, step_sf1, "SF1")


def run_sdasf2_on(problem: Problem, cfg: QdaConfig = QdaConfig()) -> QdaResult:
    return _run_baseline_on(problem, cfg, sdasf2_init, step_sf2, "SF2")


# ---------------------------------------------------------------------------
# Rate-measurement helpers
# ---------------------------------------------------------------------------


def asymptotic_window(history: tuple[IterationRecord, ...] | list[IterationRecord]
                      ) -> tuple[int, int] | None:
    """Index range (inclusive) of records inside the asymptotic regime.

    Starts at the first record whose absolute update falls below
    ``1e-2 * ||X||`` and ends before updates sink under ``1e2 * eps * ||X||``
    (roundoff stagnation).
    """
    eps = float(np.finfo(np.float64).eps)
    lo = None
    for idx, rec in enumerate(history):
        if rec.abs_update_x < 1e-2 * max(rec.norm_x, 1e-300):
            lo = idx
            break
    if lo is None:
        return None
    hi = lo
    for idx in range(lo, len(history)):
        rec = history[idx]
        if rec.abs_update_x < 1e2 * eps * max(rec.norm_x, 1e-300):
            break
        hi = idx
    return lo, hi
