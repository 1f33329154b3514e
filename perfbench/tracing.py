"""Spans around the library's layer boundaries, and the per-layer metrics.

Tracing patches the module attributes through which the library calls each
layer (``driver.step``, ``doubling.lu_factor``, ``guard.action_x``, ...) with
wrappers that record a span (name, start, end, parent) around the call, and
puts the originals back when the ``with`` block ends.  Nothing under ``src/``
is modified.  A span's self time is its duration minus the time covered by
its child spans.

Flop counts are computed from array shapes (8 real flops per complex
multiply-add), never measured: the reduction's rank-1 updates, the products
of each doubling step, and the LU factorization and triangular solves.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from statistics import median

import qdoubling.doubling as doubling_mod
import qdoubling.driver as driver_mod
import qdoubling.eig as eig_mod
import qdoubling.linalg as linalg_mod
import qdoubling.reduction as reduction_mod
from qdoubling import QdaConfig, select_kernel

# ``qdoubling.guard`` the attribute is the function the package re-exports.
guard_mod = importlib.import_module("qdoubling.guard")

#: The residual safeguard rejects a basis above ``sqrt(rtol)``; the workloads
#: all run the default configuration.
SAFEGUARD_LIMIT = math.sqrt(QdaConfig().rtol)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}
        self.error = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Computed flop counts
# ---------------------------------------------------------------------------


def _gemms(*shapes: tuple[int, int, int]) -> int:
    """Flops of the complex products ``(a x b) @ (b x c)`` listed."""
    return sum(8 * a * b * c for a, b, c in shapes)


def reduction_flops(m: int, n: int) -> int:
    """Rank-1 updates of one complete pivoted reduction of an (m+n) pencil.

    Every A-side step updates the ``t`` rows above its pivot row and every
    B-side step the rows below, in both working matrices, whatever the idea
    or the order of the steps.
    """
    size = m + n
    rows = sum(size - 1 - k for k in range(n)) + sum(size - 1 - k for k in range(m))
    return 16 * size * rows


def form_w_flops(m: int, n: int) -> int:
    """Products in ``compute_w`` (pass ``n, m`` for ``compute_wt``)."""
    return _gemms((n, m, n), (n, m, m), (n, m, n))


def step_w_flops(m: int, n: int) -> int:
    """Products in ``step_w`` outside ``compute_w`` and the solves.

    ``step_wt`` is its mirror image: pass ``n, m``.
    """
    return _gemms((n, m, m), (m, m, n), (m, n, m), (m, m, m), (m, m, m),
                  (n, n, n), (n, n, m), (n, m, m), (m, m, n), (m, n, n))


def step_sf1_flops(m: int, n: int) -> int:
    """Products in ``step_sf1`` outside its two factorizations and solves."""
    return _gemms((n, m, n), (m, n, m), (m, m, m), (n, n, n),
                  (n, m, m), (n, n, m), (m, n, n), (m, m, n))


def lu_factor_flops(k: int) -> int:
    return 8 * (k - 1) * k * (2 * k - 1) // 6


def lu_solve_flops(k: int, cols: int) -> int:
    return 8 * k * (k - 1) * cols


def zgemm_gflops(size: int = 650, reps: int = 5) -> float:
    """Reference rate: median of ``reps`` timed ``size``-square complex GEMMs."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return _gemms((size, size, size)) / median(times) / 1e9


# ---------------------------------------------------------------------------
# Notes: what a span records about its call, from arguments and result
# ---------------------------------------------------------------------------


def _note_reduce(args, result):
    g = args[0]
    return {"flops": reduction_flops(g.m, g.n), "growth": result.pivot_growth}


def _note_step(args, result):
    p = args[0]
    kernel = args[1] if len(args) > 1 else None
    return {"mark": kernel is not None and kernel is not select_kernel(p.m, p.n)}


def _note_sizes(flops):
    def note(args, result):
        p = args[0]
        return {"flops": flops(p.m, p.n)}
    return note


def _note_step_sf1(args, result):
    return {"flops": step_sf1_flops(args[0].shape[0], args[1].shape[0])}


def _note_lu_factor(args, result):
    return {"flops": lu_factor_flops(args[0].shape[0])}


def _note_lu_solve(args, result):
    factors, rhs = args[0], args[1]
    cols = rhs.shape[1] if rhs.ndim == 2 else 1
    return {"flops": lu_solve_flops(factors.n, cols)}


def _note_guard(args, result):
    return {"mark": result[1].acted}


def _note_safeguard(args, result):
    return {"mark": not result <= SAFEGUARD_LIMIT}


def _targets():
    """(owner, attribute, span name, note) for every wrapped call site."""
    return (
        (eig_mod, "cayley", "eig.cayley", None),
        (eig_mod, "run_qda", "driver.run_qda", None),
        (eig_mod, "bases_from_result", "eig.extract", None),
        (driver_mod, "run_sdasfq", "driver.run_sdasfq", None),
        (driver_mod, "run_sdasf1_on", "driver.run_sdasf1_on", None),
        (driver_mod, "reduce_with_fallback", "reduction.reduce_with_fallback", None),
        (driver_mod, "reinit", "driver.reinit", None),
        (driver_mod, "step", "doubling.step", _note_step),
        (driver_mod, "step_sf1", "doubling.step_sf1", _note_step_sf1),
        (driver_mod, "guard", "guard.guard", _note_guard),
        (driver_mod, "orthonormal_residual", "sfq.safeguard", _note_safeguard),
        (reduction_mod, "reduce_with_fallback", "reduction.reduce_with_fallback", None),
        (reduction_mod, "reduce_pencil", "reduction.reduce_pencil", _note_reduce),
        (doubling_mod, "step_w", "doubling.step_w", _note_sizes(step_w_flops)),
        (doubling_mod, "step_wt", "doubling.step_wt",
         _note_sizes(lambda m, n: step_w_flops(n, m))),
        (doubling_mod, "compute_w", "doubling.compute_w", _note_sizes(form_w_flops)),
        (doubling_mod, "compute_wt", "doubling.compute_wt",
         _note_sizes(lambda m, n: form_w_flops(n, m))),
        (doubling_mod, "q_blocks_of", "doubling.q_blocks_of", None),
        (doubling_mod, "lu_factor", "linalg.lu_factor", _note_lu_factor),
        (linalg_mod, "lu_factor", "linalg.lu_factor", _note_lu_factor),
        (linalg_mod.LUFactors, "solve", "linalg.lu_solve", _note_lu_solve),
        (guard_mod, "find_violation", "guard.find_violation", None),
        (guard_mod, "action_x", "guard.action_x", None),
        (guard_mod, "action_y", "guard.action_y", None),
        (guard_mod, "reinit", "guard.reinit", None),
    )


class Tracer:
    """Keeps spans in memory; ``patched()`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: str = "") -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx)

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            span = self._close(idx)
            if note is not None:
                span.attrs = note(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, note in _targets():
                if attr not in owner.__dict__:
                    raise LookupError(f"{owner.__name__}.{attr} is gone: a traced "
                                      "call site moved; update perfbench/tracing.py")
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit for every per-layer metric the benchmark reports.
LAYER_UNITS = {
    "reduction.s": "s", "reduction.attempts": "count",
    "reduction.failed_attempts": "count", "reduction.pivot_growth": "1",
    "reduction.reinit_calls": "count", "reduction.flops": "flop",
    "reduction.gflops": "GF/s", "reduction.share": "1",
    "doubling.steps": "count", "doubling.w_steps": "count",
    "doubling.wt_steps": "count", "doubling.step_s": "s",
    "doubling.step_self_s": "s", "doubling.form_w_s": "s",
    "doubling.qblocks_s": "s", "doubling.step_gflops": "GF/s",
    "doubling.sf1_steps": "count", "doubling.sf1_step_s": "s",
    "doubling.sf1_breakdowns": "count", "doubling.sf1_share": "1",
    "linalg.lu_factor_s": "s", "linalg.lu_factor_calls": "count",
    "linalg.lu_solve_s": "s", "linalg.lu_solve_calls": "count",
    "linalg.lu_gflops": "GF/s",
    "guard.s": "s", "guard.calls": "count", "guard.acted_share": "1",
    "guard.scan_s": "s", "guard.actions_x": "count", "guard.actions_y": "count",
    "guard.reinits": "count",
    "sfq.safeguard_s": "s", "sfq.safeguard_calls": "count",
    "sfq.safeguard_rejects": "count",
    "driver.iterations": "count", "driver.self_s": "s",
    "driver.recoveries": "count", "driver.history_mb": "MiB",
    "eig.cayley_s": "s", "eig.extract_s": "s", "eig.nres2_s": "s",
    "eig.nres2_max": "1",
    "machine.zgemm_gflops": "GF/s", "trace.overhead_frac": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def span_summary(spans: list[Span]) -> dict:
    """Totals of time, self time, calls, errors and flops per span name.

    Also counts the reduction attempts made directly by a driver (not by a
    re-reduction), which can be cross-checked against an untraced run.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    names: dict[str, dict] = {}
    initial_attempts = 0
    for idx, span in enumerate(spans):
        agg = names.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                           "errors": 0, "flops": 0, "marks": 0})
        agg["s"] += span.duration
        agg["self_s"] += span.duration - child_time[idx]
        agg["calls"] += 1
        agg["errors"] += bool(span.error)
        agg["flops"] += span.attrs.get("flops", 0)
        # A safeguard that raises is a rejection too (``_safeguard_ok``).
        agg["marks"] += bool(span.attrs.get("mark")
                             or (span.error and span.name == "sfq.safeguard"))
        if span.name == "reduction.reduce_pencil":
            caller = spans[span.parent]
            if caller.parent >= 0 and spans[caller.parent].name.startswith("driver.run"):
                initial_attempts += 1
    growth = [s.attrs["growth"] for s in spans
              if s.name == "reduction.reduce_pencil" and "growth" in s.attrs]
    return {"names": names, "initial_attempts": initial_attempts,
            "pivot_growth": median(growth) if growth else 0.0}


def layer_metrics(summary: dict, solves: int, counts: dict, extra: dict) -> dict:
    """Per-solve layer metrics from a span summary and result-derived counts.

    ``counts`` holds totals taken from the traced solves' results
    (iterations, SF1 breakdowns, history bytes); ``extra`` the values measured
    outside the solves (checks, reference GEMM, tracing overhead).
    """
    names = summary["names"]
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "flops": 0, "marks": 0}

    def get(name):
        return names.get(name, empty)

    def per(value):
        return value / max(solves, 1)

    solve_s = get("solve")["s"]
    red, pencil = get("reduction.reduce_with_fallback"), get("reduction.reduce_pencil")
    steps = get("doubling.step")
    step_w, step_wt = get("doubling.step_w"), get("doubling.step_wt")
    form_w, form_wt = get("doubling.compute_w"), get("doubling.compute_wt")
    qblocks, sf1 = get("doubling.q_blocks_of"), get("doubling.step_sf1")
    factor, lsolve = get("linalg.lu_factor"), get("linalg.lu_solve")
    guard, scan = get("guard.guard"), get("guard.find_violation")
    safeguard = get("sfq.safeguard")
    step_self = steps["self_s"] + step_w["self_s"] + step_wt["self_s"]
    form_s = form_w["s"] + form_wt["s"]
    step_flops = step_w["flops"] + step_wt["flops"] + form_w["flops"] + form_wt["flops"]
    driver_self = sum(agg["self_s"] for name, agg in names.items()
                      if name.startswith("driver.run"))
    metrics = {
        "reduction.s": per(red["s"]),
        "reduction.attempts": per(pencil["calls"]),
        "reduction.failed_attempts": per(pencil["errors"]),
        "reduction.pivot_growth": summary["pivot_growth"],
        "reduction.reinit_calls": per(get("guard.reinit")["calls"] + get("driver.reinit")["calls"]),
        "reduction.flops": per(pencil["flops"]),
        "reduction.gflops": _ratio(pencil["flops"], pencil["s"]) / 1e9,
        "reduction.share": _ratio(red["s"], solve_s),
        "doubling.steps": per(steps["calls"]),
        "doubling.w_steps": per(step_w["calls"]),
        "doubling.wt_steps": per(step_wt["calls"]),
        "doubling.step_s": per(steps["s"]),
        "doubling.step_self_s": per(step_self),
        "doubling.form_w_s": per(form_s),
        "doubling.qblocks_s": per(qblocks["s"]),
        "doubling.step_gflops": _ratio(step_flops, step_self + form_s) / 1e9,
        "doubling.sf1_steps": per(sf1["calls"]),
        "doubling.sf1_step_s": per(sf1["s"]),
        "doubling.sf1_breakdowns": per(counts["sf1_breakdowns"]),
        "doubling.sf1_share": _ratio(sf1["s"], solve_s),
        "linalg.lu_factor_s": per(factor["s"]),
        "linalg.lu_factor_calls": per(factor["calls"]),
        "linalg.lu_solve_s": per(lsolve["s"]),
        "linalg.lu_solve_calls": per(lsolve["calls"]),
        "linalg.lu_gflops": _ratio(factor["flops"] + lsolve["flops"],
                                   factor["s"] + lsolve["s"]) / 1e9,
        "guard.s": per(guard["s"]),
        "guard.calls": per(guard["calls"]),
        "guard.acted_share": _ratio(guard["marks"], guard["calls"]),
        "guard.scan_s": per(scan["s"]),
        "guard.actions_x": per(get("guard.action_x")["calls"]),
        "guard.actions_y": per(get("guard.action_y")["calls"]),
        "guard.reinits": per(get("guard.reinit")["calls"]),
        "sfq.safeguard_s": per(safeguard["s"]),
        "sfq.safeguard_calls": per(safeguard["calls"]),
        "sfq.safeguard_rejects": per(safeguard["marks"]),
        "driver.iterations": per(counts["iterations"]),
        "driver.self_s": per(driver_self),
        "driver.recoveries": per(get("driver.reinit")["calls"] + steps["marks"]),
        "driver.history_mb": per(counts["history_bytes"]) / 2**20,
        "eig.cayley_s": per(get("eig.cayley")["s"]),
        "eig.extract_s": per(get("eig.extract")["s"]),
    }
    metrics.update(extra)
    return metrics
