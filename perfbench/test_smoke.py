"""Smoke test of the benchmark harness at N of about 20 (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q

The tier-1 suite does not collect it (``testpaths = ["tests"]``).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "split_large": lambda: workloads.split_large(m=10, n=12, instances=2),
    "solved_iterate": lambda: workloads.solved_iterate(m=10, n=10, instances=2),
    "eta_sweep": lambda: workloads.eta_sweep(m=9, n=11, seeds=1, repeats=2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_metrics(name):
    run = harness.end_to_end(SMALL[name](), seed=1, seconds=0.2)
    assert run["attempted"] >= 1 and run["failed"] == 0
    metrics = run["metrics"]
    assert metrics["fail_share"] == 0.0
    for key in ("setup_s", "solve_s", "solves_per_s", "peak_mem_mb"):
        assert metrics[key] > 0.0, key
    assert set(metrics) <= set(harness.E2E_UNITS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_repeats_counts(name):
    first = harness.per_layer(SMALL[name](), seed=1, seconds=0.1)
    second = harness.per_layer(SMALL[name](), seed=1, seconds=0.1)
    assert first["failed"] == 0
    assert set(first["metrics"]) == set(tracing.LAYER_UNITS)
    exact = ("driver.iterations", "guard.actions_x", "guard.actions_y",
             "reduction.attempts", "doubling.sf1_breakdowns")
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_solved_form_bypasses_reduction_and_guard():
    metrics = harness.per_layer(SMALL["solved_iterate"](), seed=2, seconds=0.1)["metrics"]
    assert metrics["reduction.attempts"] == 0
    assert metrics["guard.actions_x"] == metrics["guard.actions_y"] == 0
    assert metrics["doubling.w_steps"] == metrics["doubling.steps"] > 0


def test_missing_span_fails_loudly():
    workload = dataclasses.replace(SMALL["solved_iterate"](),
                                   required_spans=("reduction.reduce_pencil",))
    with pytest.raises(harness.BenchError, match="never fired"):
        harness.per_layer(workload, seed=1, seconds=0.1)


def test_patching_restores_the_library():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._targets()]
    with tracing.Tracer().patched():
        assert any(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_basis_distance_resolves_tiny_angles():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q[:, :3]
    b = a + 1e-12 * q[:, 3:6]
    assert workloads.basis_distance(a, b) == pytest.approx(1e-12, rel=1e-2)


def test_reduction_flops_match_the_rank1_updates(monkeypatch):
    from qdoubling import Idea, cayley, gen_random_split, reduce_pencil

    g = cayley(gen_random_split(6, 8, 8.0, 1e-3, seed=1).pencil, workloads.GAMMA)
    counted = []
    outer = np.outer

    def counting_outer(a, b):
        counted.append(8 * np.size(a) * np.size(b))
        return outer(a, b)

    for idea in (Idea.IDEA1, Idea.IDEA3):
        counted.clear()
        monkeypatch.setattr(np, "outer", counting_outer)
        reduce_pencil(g, idea)
        monkeypatch.setattr(np, "outer", outer)
        assert sum(counted) == tracing.reduction_flops(g.m, g.n)


def test_cli_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eta_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
