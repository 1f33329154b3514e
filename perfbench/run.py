"""Benchmark of the qdoubling solver: one workload, one seed, one run.

    python3 perfbench/run.py --workload split_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures the per-layer
metrics from a traced run.  The human-readable report goes to standard
output, followed by one JSON line holding the metrics that BENCHMARK.json
names; the full record (environment, every metric, counts and, when traced,
the spans) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("split_large", "solved_iterate", "eta_sweep")
#: BLAS threads, fixed before numpy loads: iterates are bitwise repeatable
#: only at a fixed count, and one thread is the steadiest on a shared machine.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS, "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdoubling" / "__init__.py").is_file():
        print(f"no library source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import qdoubling

    if Path(qdoubling.__file__).resolve().parent != SRC / "qdoubling":
        print(f"imported qdoubling from {qdoubling.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    try:
        if args.trace:
            run = harness.per_layer(workload, args.seed, args.seconds)
        else:
            run = harness.end_to_end(workload, args.seed, args.seconds)
    except (harness.BenchError, LookupError) as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        return 3

    units = run["units"]
    for name, value in run["metrics"].items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    for key in ("samples", "passes", "fewest_repeats"):
        if key in run:
            print(f"{key:28s} {run[key]}")
    print("counts " + json.dumps(run["counts"], sort_keys=True))

    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing:
        print(f"metrics named in BENCHMARK.json were not measured: {missing}", file=sys.stderr)
        return 3
    record = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    full = {"env": env, "result": record, "samples": run["samples"],
            "counts": run["counts"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()}}
    if "spans" in run:
        full["spans"] = [[s.name, s.start, s.end, s.parent, s.attrs, s.error]
                         for s in run["spans"]]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(full))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
