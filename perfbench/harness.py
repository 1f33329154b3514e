"""Measurement loops: the untraced end-to-end run and the traced per-layer run.

Both are closed loops in one process: the next solve starts only after the
previous one and its check are done.  Set-up (instance generation) happens
first and is timed on its own.
"""

from __future__ import annotations

import contextlib
import gc
import math
import sys
import time
import tracemalloc
import traceback
from statistics import median, quantiles

from tracing import LAYER_UNITS, Tracer, layer_metrics, span_summary, zgemm_gflops
from workloads import Outcome, Workload, check, run_solve

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "solve_s_median": "s", "solve_s_p90": "s",
             "solves_per_s": "1/s", "fail_share": "1", "peak_mem_mb": "MiB"}


class BenchError(Exception):
    """The benchmark itself is no longer measuring what it claims to."""


def timed_attempt(solve, tracer: Tracer | None = None) -> tuple[Outcome | None, float]:
    """Run one solve, timed, then check it untimed.

    With a tracer the solve runs under its wrappers inside a "solve" root
    span.  An exception counts as a failed solve.
    """
    traced = tracer is not None
    with tracer.patched() if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.span("solve") if traced else contextlib.nullcontext():
                result, basis = run_solve(solve)
        except Exception:  # the boundary that keeps the benchmark running
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
    return check(solve, result, basis), elapsed


def memory_pass(solves) -> float:
    """Largest over ``solves`` of the peak MiB allocated while one runs."""
    peaks = []
    tracemalloc.start()
    try:
        for solve in solves:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                result = run_solve(solve)
            except Exception:  # counted as a failure by the timed loop
                traceback.print_exc(file=sys.stderr)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            result = None   # released before the next baseline
    finally:
        tracemalloc.stop()
    return max(peaks)


def sum_counts(outcomes) -> dict:
    total: dict[str, int] = {}
    for outcome in outcomes:
        for key, value in outcome.counts().items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: set-up, an untimed memory pass, then the timed loop.

    The loop passes through the solves in order, again and again.  On a
    shared host the machine's speed comes and goes in stretches of seconds
    to minutes, so the two bounded timings are fastest ones: ``solve_s`` is the mean over the
    solves of each one's fastest time in the run, and ``solves_per_s`` the
    rate of the fastest whole pass.  The median of single solve times is
    reported beside them.
    """
    solves, setup_times = workload.setup(seed)
    peak_mb = memory_pass(solves[:workload.mem_solves])
    times, first_cycle = [], {}
    by_solve: dict[int, list[float]] = {}
    by_pass: dict[int, list[float]] = {}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        index = attempted % len(solves)
        outcome, elapsed = timed_attempt(solves[index])
        attempted += 1
        if outcome is None or not outcome.ok:
            failed += 1
            continue
        times.append(elapsed)
        by_solve.setdefault(index, []).append(elapsed)
        by_pass.setdefault((attempted - 1) // len(solves), []).append(elapsed)
        first_cycle.setdefault(index, outcome)
    passes = [sum(p) for p in by_pass.values() if len(p) == len(solves)]
    metrics = {
        "setup_s": median(setup_times),
        "solve_s": (sum(min(v) for v in by_solve.values()) / len(by_solve)
                    if by_solve else math.nan),
        "solve_s_median": median(times) if times else math.nan,
        "solves_per_s": (len(solves) / min(passes) if passes
                         else len(times) / sum(times) if times else 0.0),
        "fail_share": failed / attempted,
        "peak_mem_mb": peak_mb,
    }
    if len(times) >= 100:   # at least ten solves beyond the 90th percentile
        metrics["solve_s_p90"] = quantiles(times, n=10)[-1]
    counts = sum_counts(first_cycle.values()) if len(first_cycle) == len(solves) else {}
    counts.pop("history_bytes", None)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": len(times), "passes": len(passes),
            "fewest_repeats": min(map(len, by_solve.values()), default=0),
            "counts": counts, "units": E2E_UNITS}


def per_layer(workload: Workload, seed: int, seconds: float) -> dict:
    """Traced run: each solve runs untraced and traced; whole cycles only.

    The traced twin must repeat the untraced counts exactly, every span in
    ``workload.required_spans`` must fire, and a solved-form workload must
    make no reduction attempt and no guard action.
    """
    solves, _ = workload.setup(seed)
    gemm_rate = zgemm_gflops()
    tracer = Tracer()
    traced, ratios, check_s, nres = [], [], 0.0, []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for index, solve in enumerate(solves):
            # Alternate which twin runs first, so that neither gains from the
            # caches the other warmed.
            if (attempted // 2) % 2:
                outcome, traced_s = timed_attempt(solve, tracer)
                plain, plain_s = timed_attempt(solve)
            else:
                plain, plain_s = timed_attempt(solve)
                outcome, traced_s = timed_attempt(solve, tracer)
            attempted += 2
            if plain is None or outcome is None or not (plain.ok and outcome.ok):
                failed += (plain is None or not plain.ok) + (outcome is None or not outcome.ok)
                continue
            if plain.counts() != outcome.counts():
                raise BenchError(f"solve {index}: traced counts {outcome.counts()} "
                                 f"differ from untraced {plain.counts()}")
            traced.append(outcome)
            ratios.append(traced_s / plain_s - 1.0)
            check_s += outcome.check_s
            if outcome.kind == "halfplane":
                nres.append(outcome.error)
    summary = span_summary(tracer.spans)
    counts = sum_counts(traced)
    first_cycle = sum_counts(traced[:len(solves)])
    fired = summary["names"]
    missing = [name for name in workload.required_spans if name not in fired]
    if missing:
        raise BenchError(f"required spans never fired (a call site moved?): {missing}")
    if counts.get("initial_attempts", 0) != summary["initial_attempts"]:
        raise BenchError(f"traced reduction attempts {summary['initial_attempts']} differ "
                         f"from the results' {counts.get('initial_attempts', 0)}")
    if workload.solved_form:
        acted = {name: fired[name]["calls"] for name in
                 ("reduction.reduce_pencil", "guard.action_x", "guard.action_y",
                  "guard.reinit") if name in fired}
        if acted:
            raise BenchError(f"solved-form workload reduced or guarded: {acted}")
    metrics = layer_metrics(summary, len(traced), counts, {
        "eig.nres2_s": check_s / len(traced) if traced else 0.0,
        "eig.nres2_max": max(nres, default=0.0),
        "machine.zgemm_gflops": gemm_rate,
        "trace.overhead_frac": median(ratios) if ratios else 0.0,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": len(traced), "counts": first_cycle, "units": LAYER_UNITS,
            "spans": tracer.spans}
