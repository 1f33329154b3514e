"""End-to-end drivers: the Q-doubling algorithm and the classical baselines.

``run_qda`` reduces a general pencil to Q-standard form, iterates the
doubling kernel with the magnitude guard after every step, and terminates on
a Kahan (or plain) update criterion backed by a residual safeguard against
false convergence.  ``run_sdasf1`` / ``run_sdasf2`` run the same loop on the
W-rule with Q frozen (``step_sf1``, and ``step_w`` on SDASF2's own pencil), no
guard and no recovery, reporting breakdowns and non-finite blow-ups as they
happen.

``run_qda``, ``run_sdasf1_on`` and ``run_sdasf2_on`` take a
:data:`Problem`: a disk-split ``GeneralPencil``, or the ``CayleyPair`` of a
half-plane pencil, whose dense transform is formed for the reduction or the
closed-form start only and released before the first step.

A run holds its live iterate, its history of pencils and, only while the
safeguard runs, the orthonormal basis, two m-by-m arrays and one block of
rows of its products.  The safeguard checks
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

from .doubling import Kernel, StepOutcome, step, step_sf1, step_w
from .guard import GuardReport, default_tau, guard
from .linalg import Permutation, RankDeficientError, SingularMatrixError, check_count
from .reduction import Idea, InitReport, Variant, closed_form_init, reduce_with_fallback, reinit
from .sfq import (
    BreakdownError,
    CayleyPair,
    GeneralPencil,
    SfqPencil,
    orthonormal_residual,
    swap_perm,
)

class StopMode(enum.Enum):
    PLAIN = "plain"
    KAHAN = "kahan"


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
        if not 0 < self.rtol < math.inf:
            raise ValueError("rtol must be positive and finite")
        check_count(self.max_iter, "max_iter")
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
    """A run's answer is ``final``: its last accepted pencil, None if it had no finite start."""
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
    return QdaResult(history=(), status=RunStatus.BREAKDOWN, message=message)


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
    own storage, the m-by-m Gram and cross products, and one block of rows
    of the pencil's products with the basis, beside the run's history (see
    :func:`orthonormal_residual`).
    """
    try:
        res = orthonormal_residual(reference, p)
    except (RankDeficientError, SingularMatrixError):
        return False
    return res <= math.sqrt(rtol)


def select_kernel(m: int, n: int) -> Kernel:
    """Solve with the smaller matrix: W (n-by-n) unless n > m."""
    return Kernel.W if n <= m else Kernel.WTILDE


def check_stop(d_now: float, d_prev: Optional[float], x_norm: float, rtol: float,
               mode: StopMode) -> bool:
    """Decide termination from the last update norm ``||X_i - X_{i-1}||_F``
    and the one before it, None at the first step.  The Kahan rule reads
    ``d_now^2 / (d_prev - d_now)`` and falls back to the plain rule at the
    first step and where the update did not shrink.
    """
    plain = d_now <= rtol * x_norm
    if mode is StopMode.PLAIN or d_prev is None or d_prev <= d_now:
        return plain
    return d_now * d_now / (d_prev - d_now) <= rtol * x_norm


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
    kernel switch, before it ends the run; a failed re-reduction inside the
    guard ends it at once.  Each re-reduction starts from the config's idea
    and variant, and no recovery spends an iteration.  ``tau`` None is the
    classical loop, with neither.  A non-finite start ends the run before
    any step, and a non-finite block or norm later ends it as a breakdown.
    """
    p = start.pop()
    if not _all_finite(p):
        return _no_start("non-finite start pencil")
    history: list[IterationRecord] = []
    status = RunStatus.MAX_ITER
    message = ""
    reinit_used = kernel_switched = False
    while len(history) < cfg.max_iter:
        it = len(history) + 1
        kernel = select_kernel(p.m, p.n)
        if kernel_switched:
            kernel = Kernel.WTILDE if kernel is Kernel.W else Kernel.W
        try:
            outcome = advance(p, kernel)
        except BreakdownError as exc:
            # Recovery policy: one re-reduction, then one kernel switch.
            if tau is not None and not reinit_used:
                reinit_used = True
                try:
                    p = reinit(p, cfg.init_idea, cfg.init_variant).pencil
                    continue
                except BreakdownError:
                    pass
            if tau is not None and not kernel_switched:
                kernel_switched = True
                continue
            status = RunStatus.BREAKDOWN
            message = f"iteration {it}: {exc}"
            break
        if not _all_finite(outcome.next):
            status = RunStatus.BREAKDOWN
            message = f"non-finite iterate at iteration {it}"
            break
        if tau is not None:
            try:
                accepted, greport = guard(outcome.next, tau, cfg.init_idea, cfg.init_variant)
            except BreakdownError as exc:
                # the guard's own re-reduction failed: nothing is left to try
                status = RunStatus.BREAKDOWN
                message = f"iteration {it}: guard re-reduction: {exc}"
                break
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
        del outcome     # after a guard action, the unguarded pencil goes before the next step
        p = accepted
        if greport.acted:
            continue  # coordinates changed; the update norm is not comparable
        d_prev = history[-2].abs_update_x if len(history) > 1 else None
        if check_stop(delta, d_prev, norm_x, cfg.rtol, cfg.stop_mode):
            if _safeguard_ok(p, cfg.rtol, reference):
                status = RunStatus.CONVERGED
                break
    return QdaResult(history=tuple(history), status=status, final=p, message=message)


def run_sdasfq(p0: SfqPencil | list[SfqPencil], cfg: QdaConfig,
               reference: Optional[Reference] = None) -> QdaResult:
    """Doubling loop on an already-reduced pencil (guard and recovery included).

    The residual safeguard checks against ``reference`` (see
    :data:`Reference`) when given, and otherwise against ``p0``'s own blocks.
    ``p0`` may come in a one-element list, which the loop empties: with a
    ``reference`` given, as :func:`run_qda` does, a start held nowhere else
    is then freed once the first step has replaced it.  Without one the start
    is the safeguard's reference, as a plain argument is the caller's, until
    the call returns.  A ``reference`` whose split ``(m, n)`` is not the
    start's is refused before any step.
    """
    start = p0 if isinstance(p0, list) else [p0]
    m, n = start[0].m, start[0].n
    if reference is not None:
        split = reference.source if isinstance(reference, CayleyPair) else reference
        if (split.m, split.n) != (m, n):
            raise ValueError(f"the reference's split (m, n) = {(split.m, split.n)} "
                             f"is not the start's {(m, n)}")
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
    """SDASF1's ``advance`` for the shared loop, run with no guard and no recovery."""
    # step_sf1 keeps its (e, f, x, y) signature because the benchmark's
    # tracer wraps driver.step_sf1; SDASF2 calls step_w directly
    return lambda p, _k: stepper(p.E, p.F, p.X, p.Y)


def _sf2_advance(p: SfqPencil, _kernel: Kernel) -> StepOutcome:
    """SDASF2's ``advance``: the W-rule on its own pencil, whose Q never changes."""
    return step_w(p)


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
    p0 = SfqPencil(m=n, n=n, E=e0, F=f0, X=x0, Y=y0,
                   Q1=Permutation.identity(2 * n), Q2=swap_perm(n, n))
    return _iterate([p0], cfg, _sf2_advance, None, p0)


def sdasf1_init(g: GeneralPencil) -> SfqPencil:
    """Closed-form reduction with both permutations fixed to the identity."""
    ident = Permutation.identity(g.size)
    return closed_form_init(g, ident, ident)


def sdasf2_init(g: GeneralPencil) -> SfqPencil:
    """Closed-form reduction onto the second standard form (m = n)."""
    if g.m != g.n:
        raise ValueError("the second standard form requires m = n")
    return closed_form_init(g, Permutation.identity(g.size), swap_perm(g.m, g.n))


def _run_baseline_on(problem: Problem, cfg: QdaConfig, init,
                     advance: Callable[[SfqPencil, Kernel], StepOutcome],
                     label: str) -> QdaResult:
    """A baseline from its closed-form start, checked against the problem; a
    Cayley pair's transform and the start are freed as ``run_qda`` frees them."""
    try:
        start = [init(_disk(problem))]
    except SingularMatrixError as exc:
        return _no_start(f"{label} initialization: {exc}")
    return _iterate(start, cfg, advance, None, problem)


def run_sdasf1_on(problem: Problem, cfg: QdaConfig = QdaConfig()) -> QdaResult:
    return _run_baseline_on(problem, cfg, sdasf1_init, _fixed_q(step_sf1), "SF1")


def run_sdasf2_on(problem: Problem, cfg: QdaConfig = QdaConfig()) -> QdaResult:
    return _run_baseline_on(problem, cfg, sdasf2_init, _sf2_advance, "SF2")

