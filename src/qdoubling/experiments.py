"""Desk-scale experiment harnesses behind the CLI.

Each experiment runs the Q-doubling solver next to the classical baselines
on generated instances and emits the comparison as machine-readable rows
(one per run) plus a pivoted summary table with the metric rows
``norm_x_fro``, ``cpu_seconds``, ``nres1``, ``nres2``, ``iterations``.
CPU times are reported for orientation only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .driver import QdaConfig, QdaResult, RunStatus, run_qda, run_sdasf1_on
from .eig import nres1, nres2
from .fileio import write_history_csv
from .linalg import RankDeficientError, solve_transposed
from .sfq import CayleyPair, sfq_basis
from .problems import CriticalSpec, gen_bse_like, gen_critical, gen_random_split

#: Summary-table row labels paired with the RunRow attribute they report.
METRIC_ROWS = [
    ("|X|_F", "norm_x_fro"),
    ("CPU", "cpu_seconds"),
    ("NRes_1", "nres1"),
    ("NRes_2", "nres2"),
    ("#it'n", "iterations"),
]

#: Value written into summary tables for runs that did not produce a result.
FAILED = "--"

#: The fixed settings of the three experiments.
ETA_SWEEP_ALPHA = 8.0
ETA_SWEEP_ETAS = (1e-4, 1e-5, 1e-6, 1e-7)
BSE_GAP_SCALE = 2.0
BSE_MISSCALE = 1e-3
CRITICAL_SPEC = CriticalSpec(m_prime=3, n_prime=3, blocks=((2, 1.0 + 0j),),
                             rho_stable=0.3, rho_anti=0.3)


@dataclass(frozen=True)
class RunRow:
    experiment: str
    algorithm: str
    label: str            # e.g. "eta=1e-06" or "seed=2"
    seed: int
    status: str
    iterations: int
    norm_x_fro: float
    nres1: float
    nres2: float
    cpu_seconds: float


def _measure(experiment: str, algorithm: str, label: str, seed: int,
             h: np.ndarray, result: QdaResult, elapsed: float) -> RunRow:
    xnorm = r1 = r2 = float("nan")
    if result.final is not None:
        xnorm = float(np.linalg.norm(result.final.X))
        basis = sfq_basis(result.final)
        try:
            r1, r2 = nres1(h, basis, x_norm=xnorm), nres2(h, basis)
        except RankDeficientError:
            pass    # a rank-deficient basis has no residual: both stay NaN
    return RunRow(experiment, algorithm, label, seed, result.status.value,
                  result.iterations, xnorm, r1, r2, elapsed)


def _maybe_dump(out_dir: Optional[Path], result: QdaResult,
                algorithm: str, label: str, seed: int) -> None:
    if out_dir is not None and result.history:
        safe = label.replace("=", "").replace(".", "p")
        write_history_csv(out_dir / f"history_{algorithm}_{safe}_seed{seed}.csv",
                          result.history)


def _compare(experiment: str, cases, gamma: float,
             out_dir: Optional[str | Path]) -> list[RunRow]:
    """QDA next to SDASF1 on each half-plane ``(label, seed, pencil)`` case."""
    out_path = Path(out_dir) if out_dir is not None else None
    rows: list[RunRow] = []
    for label, seed, g in cases:
        for algorithm, runner in (("qda", run_qda), ("sdasf1", run_sdasf1_on)):
            t0 = time.perf_counter()
            result = runner(CayleyPair(g, gamma), QdaConfig())
            elapsed = time.perf_counter() - t0
            rows.append(_measure(experiment, algorithm, label, seed, g.A, result, elapsed))
            _maybe_dump(out_path, result, algorithm, label, seed)
    return rows


def eta_sweep(m: int = 50, n: int = 60, seeds: Sequence[int] = (1, 2, 3),
              gamma: float = -1.0, out_dir: Optional[str | Path] = None) -> list[RunRow]:
    """Robustness sweep over shrinking basis conditioning (QDA vs SDASF1)."""
    cases = ((f"eta={eta:.0e}", seed,
              gen_random_split(m, n, ETA_SWEEP_ALPHA, eta, seed).pencil)
             for eta in ETA_SWEEP_ETAS for seed in seeds)
    return _compare("eta_sweep", cases, gamma, out_dir)


def bse_like(n: int = 64, seeds: Sequence[int] = (1, 2, 3), gamma: float = -1.0,
             out_dir: Optional[str | Path] = None) -> list[RunRow]:
    """Hamiltonian-structured comparison, plus a mis-scaled-coupling variant."""
    cases = ((f"variant={variant}", seed,
              gen_bse_like(n, BSE_GAP_SCALE, seed, coupling_scale=coupling).pencil)
             for variant, coupling in (("plain", 1.0), ("misscaled", BSE_MISSCALE))
             for seed in seeds)
    return _compare("bse_like", cases, gamma, out_dir)


def critical_rate(seeds: Sequence[int] = (2,),
                  out_dir: Optional[str | Path] = None) -> list[dict]:
    """Per-iteration error ratios on critical instances (linear rate 1/2)."""
    out_path = Path(out_dir) if out_dir is not None else None
    tables: list[dict] = []
    for seed in seeds:
        inst = gen_critical(CRITICAL_SPEC, seed)
        t0 = time.perf_counter()
        result = run_qda(inst.pencil, QdaConfig())
        elapsed = time.perf_counter() - t0
        per_iter = []
        for rec in result.history:
            qz = inst.true_basis_stable[rec.pencil.Q1.image, :]
            phi = solve_transposed(qz[:inst.pencil.m], qz[inst.pencil.m:])
            err = float(np.linalg.norm(rec.pencil.X - phi))
            ratio = err / per_iter[-1]["errX"] if per_iter else float("nan")
            per_iter.append({"i": rec.index, "errX": err,
                             "errRatio": ratio, "wMinPivot": rec.w_min_pivot})
        tables.append({"seed": seed, "status": result.status.value,
                       "iterations": result.iterations,
                       "cpu_seconds": elapsed, "perIteration": per_iter})
        _maybe_dump(out_path, result, "qda", "critical", seed)
    return tables


def pivot_table(rows: Sequence[RunRow]) -> list[list[str]]:
    """Summary with one metric row per algorithm and one column per label.

    A cell is marked ``--`` when a run in it broke down or any of its values
    is not finite; when several seeds share a label the cell reports the
    worst (largest) value across seeds.
    """
    cells: dict[tuple[str, str], list[RunRow]] = {}
    for row in rows:
        cells.setdefault((row.algorithm, row.label), []).append(row)
    labels = list(dict.fromkeys(row.label for row in rows))
    algorithms = list(dict.fromkeys(row.algorithm for row in rows))

    def cell(runs: list[RunRow], attr: str) -> str:
        values = [getattr(run, attr) for run in runs]
        if not runs or any(run.status == RunStatus.BREAKDOWN.value for run in runs) \
                or not np.isfinite(values).all():
            return FAILED
        return f"{max(values):.6g}"

    return [["metric", "algorithm", *labels]] + [
        [metric, algorithm, *(cell(cells.get((algorithm, label), []), attr) for label in labels)]
        for metric, attr in METRIC_ROWS for algorithm in algorithms]
