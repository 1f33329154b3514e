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
from .linalg import solve_transposed
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
    if result.final is None:
        return RunRow(experiment, algorithm, label, seed, result.status.value,
                      result.iterations, float("nan"), float("nan"), float("nan"),
                      elapsed)
    xnorm = float(np.linalg.norm(result.phi))
    basis = sfq_basis(result.final)
    try:
        r1 = nres1(h, basis, x_norm=xnorm)
        r2 = nres2(h, basis)
    except Exception:
        r1, r2 = float("nan"), float("nan")
    return RunRow(experiment, algorithm, label, seed, result.status.value,
                  result.iterations, xnorm, r1, r2, elapsed)


def _history_name(algorithm: str, label: str, seed: int) -> str:
    safe = label.replace("=", "").replace(".", "p")
    return f"history_{algorithm}_{safe}_seed{seed}.csv"


def _maybe_dump(out_dir: Optional[Path], result: QdaResult,
                algorithm: str, label: str, seed: int) -> None:
    if out_dir is not None and result.history:
        write_history_csv(out_dir / _history_name(algorithm, label, seed),
                          result.history)


def _compare(experiment: str, cases, gamma: float, cfg: QdaConfig,
             out_dir: Optional[str | Path]) -> list[RunRow]:
    """QDA next to SDASF1 on each half-plane ``(label, seed, pencil)`` case."""
    out_path = Path(out_dir) if out_dir is not None else None
    rows: list[RunRow] = []
    for label, seed, g in cases:
        for algorithm, runner in (("qda", run_qda), ("sdasf1", run_sdasf1_on)):
            t0 = time.perf_counter()
            result = runner(CayleyPair(g, gamma), cfg)
            elapsed = time.perf_counter() - t0
            rows.append(_measure(experiment, algorithm, label, seed, g.A, result, elapsed))
            _maybe_dump(out_path, result, algorithm, label, seed)
    return rows


def eta_sweep(m: int = 50, n: int = 60, alpha: float = 8.0,
              etas: Sequence[float] = (1e-4, 1e-5, 1e-6, 1e-7),
              seeds: Sequence[int] = (1, 2, 3), gamma: float = -1.0,
              cfg: QdaConfig = QdaConfig(), out_dir: Optional[str | Path] = None
              ) -> list[RunRow]:
    """Robustness sweep over shrinking basis conditioning (QDA vs SDASF1)."""
    cases = ((f"eta={eta:.0e}", seed, gen_random_split(m, n, alpha, eta, seed).pencil)
             for eta in etas for seed in seeds)
    return _compare("eta_sweep", cases, gamma, cfg, out_dir)


def bse_like(n: int = 64, gap_scale: float = 2.0,
             seeds: Sequence[int] = (1, 2, 3), gamma: float = -1.0,
             misscale: float = 1e-3, cfg: QdaConfig = QdaConfig(),
             out_dir: Optional[str | Path] = None) -> list[RunRow]:
    """Hamiltonian-structured comparison, plus a mis-scaled-coupling variant."""
    cases = ((f"variant={variant}", seed,
              gen_bse_like(n, gap_scale, seed, coupling_scale=coupling).pencil)
             for variant, coupling in (("plain", 1.0), ("misscaled", misscale))
             for seed in seeds)
    return _compare("bse_like", cases, gamma, cfg, out_dir)


def critical_rate(m_prime: int = 3, n_prime: int = 3, block_size: int = 2,
                  omega: complex = 1.0 + 0j, rho: float = 0.3,
                  seeds: Sequence[int] = (2,), cfg: QdaConfig = QdaConfig(),
                  out_dir: Optional[str | Path] = None) -> list[dict]:
    """Per-iteration error ratios on critical instances (linear rate 1/2)."""
    out_path = Path(out_dir) if out_dir is not None else None
    spec = CriticalSpec(m_prime=m_prime, n_prime=n_prime,
                        blocks=((block_size, omega),), rho_stable=rho, rho_anti=rho)
    tables: list[dict] = []
    for seed in seeds:
        inst = gen_critical(spec, seed)
        t0 = time.perf_counter()
        result = run_qda(inst.pencil, cfg)
        elapsed = time.perf_counter() - t0
        errs = []
        z = inst.true_basis_stable
        for rec in result.history:
            qz = z[rec.pencil.Q1.image, :]
            phi = solve_transposed(qz[:inst.pencil.m], qz[inst.pencil.m:])
            errs.append(float(np.linalg.norm(rec.pencil.X - phi)))
        per_iter = []
        for idx, rec in enumerate(result.history):
            ratio = errs[idx] / errs[idx - 1] if idx else float("nan")
            per_iter.append({"i": rec.index, "errX": errs[idx],
                             "errRatio": ratio, "wMinPivot": rec.w_min_pivot})
        tables.append({"seed": seed, "status": result.status.value,
                       "iterations": result.iterations,
                       "cpu_seconds": elapsed, "perIteration": per_iter})
        _maybe_dump(out_path, result, "qda", "critical", seed)
    return tables


def pivot_table(rows: Sequence[RunRow]) -> list[list[str]]:
    """Summary with one metric row per algorithm and one column per label.

    Cells for runs that broke down are marked ``--``; when several seeds share
    a label the cell reports the worst (largest) value across seeds.
    """
    labels: list[str] = []
    for row in rows:
        if row.label not in labels:
            labels.append(row.label)
    algorithms: list[str] = []
    for row in rows:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    table = [["metric", "algorithm", *labels]]
    for metric, attr in METRIC_ROWS:
        for algorithm in algorithms:
            line = [metric, algorithm]
            for label in labels:
                cell = FAILED
                values = []
                for row in rows:
                    if row.algorithm != algorithm or row.label != label:
                        continue
                    value = getattr(row, attr)
                    if row.status == RunStatus.BREAKDOWN.value or not np.isfinite(value):
                        values = []
                        break
                    values.append(value)
                if values:
                    cell = f"{max(values):.6g}"
                line.append(cell)
            table.append(line)
    return table
