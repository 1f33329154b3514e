"""The benchmark's workloads: instance generation, one solve, and its check.

Every solve goes through the library's public entry points, looked up on
their modules at call time so that a traced run sees its wrappers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qdoubling.driver as driver_mod
import qdoubling.eig as eig_mod
from qdoubling import (
    CayleyParams,
    Idea,
    QdaConfig,
    QdaResult,
    RunStatus,
    Variant,
    gen_random_split,
    gen_solved_sfq,
    nres2,
    sfq_basis,
)

CFG = QdaConfig()
GAMMA = CayleyParams(-1.0)
#: Acceptance test 09's tolerance on the QDA basis, for its N = 110 instances.
NRES2_TOL = 1e-8
#: The solver's own acceptance level: its residual safeguard passes a basis
#: at ``sqrt(rtol)``.  Used at N = 650, where test 09's 1e-8 is not promised
#: (one instance in 27 converges at 2.3e-8; see README.md).
NRES2_TOL_LARGE = math.sqrt(CFG.rtol)
#: Largest principal-angle sine allowed against a prescribed basis.
BASIS_TOL = 1e-8
ETAS = (1e-4, 1e-5, 1e-6, 1e-7)

#: The order in which ``reduce_with_fallback`` tries (idea, variant) from the
#: default start; the position of the one that succeeded gives the number of
#: attempts an untraced run made.
FALLBACK_ORDER = [(idea, variant) for variant in (Variant.A_FIRST, Variant.B_FIRST)
                  for idea in (Idea.IDEA3, Idea.IDEA2, Idea.IDEA1)]


@dataclass(frozen=True)
class Solve:
    """One solve of one instance: ``kind`` is "halfplane", "sfq" or "sf1".

    ``tol`` bounds the checked error (nres2 or basis distance).
    """

    kind: str
    instance: object
    tol: float = NRES2_TOL


@dataclass
class Outcome:
    """A solve's result, its check, and the counts a traced run must repeat."""

    kind: str
    ok: bool
    result: QdaResult
    error: float            # nres2 or basis distance; nan where not checked
    check_s: float

    def counts(self) -> dict:
        res = self.result
        kinds = [a.kind for rec in res.history for a in rec.guard_events.actions]
        attempts = 0
        if res.init_report is not None:
            report = res.init_report
            attempts = FALLBACK_ORDER.index((report.idea, report.variant)) + 1
        elif res.status is RunStatus.BREAKDOWN and res.message.startswith("initialization"):
            attempts = len(FALLBACK_ORDER)
        return {
            "iterations": res.iterations,
            "actions_x": kinds.count("action_x"),
            "actions_y": kinds.count("action_y"),
            "guard_reinits": kinds.count("reinit"),
            "initial_attempts": attempts,
            "sf1_breakdowns": int(self.kind == "sf1" and res.status is RunStatus.BREAKDOWN),
            "nres2_over_1e-8": int(self.kind == "halfplane" and self.error > NRES2_TOL),
            "history_bytes": sum(rec.pencil.E.nbytes + rec.pencil.F.nbytes
                                 + rec.pencil.X.nbytes + rec.pencil.Y.nbytes
                                 for rec in res.history),
        }


def basis_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between ``span(a)`` and ``span(b)``.

    Taken as the 2-norm of ``(I - Ua Ua^H) Ub``, which is accurate down to
    roundoff; ``sqrt(1 - cos^2)`` from the cosines cancels near 1e-8.
    """
    ua, _ = np.linalg.qr(a)
    ub, _ = np.linalg.qr(b)
    return float(np.linalg.norm(ub - ua @ (ua.conj().T @ ub), 2))


def run_solve(solve: Solve) -> tuple[QdaResult, object]:
    """The timed part: returns the driver result and what the check needs."""
    if solve.kind == "halfplane":
        bases = eig_mod.solve_halfplane(solve.instance.pencil, GAMMA, CFG)
        return bases.source, bases.stable_basis
    if solve.kind == "sfq":
        result = driver_mod.run_sdasfq(solve.instance.pencil, CFG)
        bases = eig_mod.bases_from_result(result)
        return result, bases.stable_basis
    if solve.kind == "sf1":
        disk = eig_mod.cayley(solve.instance.pencil, GAMMA)
        return driver_mod.run_sdasf1_on(disk, CFG), None
    raise ValueError(f"unknown solve kind {solve.kind!r}")


def check(solve: Solve, result: QdaResult, basis) -> Outcome:
    """Untimed: does the answer hold?

    A QDA solve must converge with ``nres2 <= solve.tol`` against the
    original half-plane ``A``; a solved-form solve must span the prescribed
    basis ``Q1^T [I; Phi]`` to within ``solve.tol``.  An SDASF1 solve fails only by raising: its
    breakdown on stressed instances is the expected result.
    """
    t0 = time.perf_counter()
    if solve.kind == "halfplane":
        error = nres2(solve.instance.pencil.A, basis)
        ok = error <= solve.tol
    elif solve.kind == "sfq":
        truth = sfq_basis(solve.instance.pencil, solve.instance.phi)
        error = basis_distance(basis, truth)
        ok = error <= solve.tol
    else:
        error, ok = float("nan"), True
    if solve.kind != "sf1":
        ok = ok and result.status is RunStatus.CONVERGED
    return Outcome(kind=solve.kind, ok=ok, result=result, error=error,
                   check_s=time.perf_counter() - t0)


@dataclass(frozen=True)
class Workload:
    """A set of solves built from a seed.

    ``setup`` returns the solves and the durations of the repeated set-ups;
    ``mem_solves`` solves go through the untimed memory pass; every span in
    ``required_spans`` must fire in a traced run.
    """

    setup: Callable[[int], tuple[list[Solve], list[float]]]
    mem_solves: int
    required_spans: tuple[str, ...]
    solved_form: bool = False       # no reduction and no guard action expected


def _timed(make):
    t0 = time.perf_counter()
    value = make()
    return value, time.perf_counter() - t0


def _kernel_spans(m: int, n: int) -> tuple[str, ...]:
    """The driver solves with the smaller coupling matrix."""
    if n > m:
        return ("doubling.step_wt", "doubling.compute_wt")
    return ("doubling.step_w", "doubling.compute_w")


def _instance_per_setup(make, kinds: tuple[str, ...], tol: float, instances: int):
    """A set-up that generates ``instances`` instances, each timed, and
    solves each one once per kind in ``kinds``."""
    def setup(seed):
        solves, times = [], []
        for j in range(instances):
            inst, dt = _timed(lambda: make(seed * instances + j))
            solves.extend(Solve(kind, inst, tol) for kind in kinds)
            times.append(dt)
        return solves, times
    return setup


_QDA_SPANS = ("eig.cayley", "driver.run_qda", "driver.run_sdasfq",
              "reduction.reduce_with_fallback", "reduction.reduce_pencil",
              "doubling.step", "doubling.q_blocks_of", "linalg.lu_factor",
              "linalg.lu_solve", "guard.guard", "guard.find_violation",
              "sfq.safeguard", "eig.extract")


def split_large(m: int = 300, n: int = 350, instances: int = 3) -> Workload:
    """The N = m + n = 650 point of the size ladder, each instance solved by
    ``solve_halfplane`` and by the SDASF1 baseline on its Cayley transform."""
    setup = _instance_per_setup(lambda seed: gen_random_split(m, n, 8.0, 1e-6, seed),
                                ("halfplane", "sf1"), NRES2_TOL_LARGE, instances)
    spans = _QDA_SPANS + _kernel_spans(m, n) + ("guard.action_x", "driver.run_sdasf1_on",
                                                "doubling.step_sf1")
    return Workload(setup, mem_solves=2, required_spans=spans)


def solved_iterate(m: int = 300, n: int = 300, rho: float = 0.99,
                   instances: int = 3) -> Workload:
    """A pencil already in standard form with a prescribed exact answer."""
    setup = _instance_per_setup(lambda seed: gen_solved_sfq(m, n, rho, rho, seed),
                                ("sfq",), BASIS_TOL, instances)
    spans = ("driver.run_sdasfq", "doubling.step", "doubling.q_blocks_of",
             "linalg.lu_factor", "linalg.lu_solve", "guard.guard",
             "guard.find_violation", "sfq.safeguard", "eig.extract")
    return Workload(setup, mem_solves=1,
                    required_spans=spans + _kernel_spans(m, n), solved_form=True)


def eta_sweep(m: int = 50, n: int = 60, seeds: int = 6, repeats: int = 5) -> Workload:
    """Acceptance test 09's instances, each solved by QDA and by SDASF1.

    Seed ``s`` draws the instance seeds ``seeds * s + 1 ..`` for every eta,
    so seed 0 holds the test's set (instance seeds 1-3) and three more.  Six
    instance seeds per eta, not the test's three, keep the cost of a run from
    depending on which instances the seed drew.  The whole set is generated
    ``repeats`` times to time the set-up.
    """
    def make(seed):
        return [gen_random_split(m, n, 8.0, eta, seeds * seed + j + 1)
                for eta in ETAS for j in range(seeds)]

    def setup(seed):
        times = []
        for _ in range(repeats):
            insts, dt = _timed(lambda: make(seed))
            times.append(dt)
        solves = [Solve(kind, inst) for inst in insts for kind in ("halfplane", "sf1")]
        return solves, times
    spans = _QDA_SPANS + _kernel_spans(m, n) + ("driver.run_sdasf1_on", "doubling.step_sf1")
    return Workload(setup, mem_solves=2 * seeds, required_spans=spans)


WORKLOADS = {"split_large": split_large, "solved_iterate": solved_iterate,
             "eta_sweep": eta_sweep}
