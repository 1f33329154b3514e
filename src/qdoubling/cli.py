"""Command-line harness: generate instances, solve pencils, run experiments.

Exit codes for ``solve``: 0 converged, 2 iteration limit, 3 breakdown.  Any
command prints one ``error:`` line and exits 1 on a flag it cannot parse, a
refused flag value, input or output.  Each file write makes its directory.
All randomness flows through ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .driver import (
    QdaConfig,
    RunStatus,
    run_qda,
    run_sdasf1_on,
    run_sdasf2_on,
)
from .eig import bases_from_result, nres1, nres2
from .experiments import bse_like, critical_rate, eta_sweep, pivot_table
from .fileio import (
    read_matrix,
    write_csv,
    write_history_csv,
    write_manifest,
    write_matrix,
    write_permutation,
)
from .linalg import RankDeficientError, SingularMatrixError
from .problems import CriticalSpec, gen_bse_like, gen_critical, gen_random_split
from .reduction import Idea, Variant
from .sfq import CayleyPair, GeneralPencil

_EXIT_FOR_STATUS = {
    RunStatus.CONVERGED: 0,
    RunStatus.MAX_ITER: 2,
    RunStatus.BREAKDOWN: 3,
}

_RUNNERS = {"qda": run_qda, "sdasf1": run_sdasf1_on, "sdasf2": run_sdasf2_on}


class _Parser(argparse.ArgumentParser):
    """Raises on a flag it cannot parse, so ``main`` reports it like a refused value."""
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdoubling", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a test instance")
    gen.add_argument("--family", required=True, choices=["split", "bse", "critical"])
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--m", type=int, default=20)
    gen.add_argument("--n", type=int, default=25)
    gen.add_argument("--alpha", type=float, default=8.0)
    gen.add_argument("--eta", type=float, default=1.0)
    gen.add_argument("--gap-scale", type=float, default=2.0)
    gen.add_argument("--coupling-scale", type=float, default=1.0)
    gen.add_argument("--m-prime", type=int, default=3)
    gen.add_argument("--n-prime", type=int, default=3)
    gen.add_argument("--blocks", default="2:1+0j",
                     help="semicolon-separated size:omega pairs, e.g. '2:1+0j;1:1j'")
    gen.add_argument("--rho-stable", type=float, default=0.3)
    gen.add_argument("--rho-anti", type=float, default=0.3)

    solve = sub.add_parser("solve", help="compute the split eigenspace bases")
    solve.add_argument("--matrix-a", required=True)
    solve.add_argument("--matrix-b", required=True)
    solve.add_argument("--m", type=int, required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument("--algorithm", default="qda", choices=["qda", "sdasf1", "sdasf2"])
    solve.add_argument("--gamma", type=float, default=None,
                       help="negative Cayley parameter; omit if already disk-split")
    solve.add_argument("--rtol", type=float, default=1e-14)
    solve.add_argument("--tau", type=float, default=None)
    solve.add_argument("--idea", default="3", choices=["1", "2", "3"])
    solve.add_argument("--variant", default="afirst", choices=[v.value for v in Variant])
    solve.add_argument("--max-iter", type=int, default=50)

    exp = sub.add_parser("experiment", help="run a canned comparison")
    exp.add_argument("--name", required=True,
                     choices=["eta_sweep", "bse_like", "critical_rate"])
    exp.add_argument("--out", required=True)
    exp.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    exp.add_argument("--m", type=int, default=50)
    exp.add_argument("--n", type=int, default=60)
    exp.add_argument("--bse-n", type=int, default=64)
    exp.add_argument("--gamma", type=float, default=-1.0)

    res = sub.add_parser("residual", help="normalized residuals of a basis")
    res.add_argument("--matrix-a", required=True)
    res.add_argument("--matrix-b", default=None)
    res.add_argument("--basis", required=True)
    res.add_argument("--x-norm", type=float, default=None)
    return parser


def _config_from_args(args) -> QdaConfig:
    return QdaConfig(
        rtol=args.rtol, max_iter=args.max_iter, tau=args.tau,
        init_idea=Idea(f"idea{args.idea}"), init_variant=Variant(args.variant),
    )


def _parse_block(item: str) -> tuple[int, complex]:
    """One ``size:omega`` item of ``--blocks``."""
    try:
        size, omega = item.split(":")
        return int(size), complex(omega)
    except ValueError:
        raise ValueError(f"--blocks item {item!r} is not of the form size:omega") from None


def _cmd_gen(args) -> int:
    if args.family == "split":
        inst = gen_random_split(args.m, args.n, args.alpha, args.eta, args.seed)
        params = {"m": args.m, "n": args.n, "alpha": args.alpha, "eta": args.eta}
    elif args.family == "bse":
        inst = gen_bse_like(args.n, args.gap_scale, args.seed,
                            coupling_scale=args.coupling_scale)
        params = {"n": args.n, "gapScale": args.gap_scale,
                  "couplingScale": args.coupling_scale}
    else:
        spec = CriticalSpec(m_prime=args.m_prime, n_prime=args.n_prime,
                            blocks=tuple(map(_parse_block, args.blocks.split(";"))),
                            rho_stable=args.rho_stable, rho_anti=args.rho_anti)
        inst = gen_critical(spec, args.seed)
        params = {"mPrime": args.m_prime, "nPrime": args.n_prime,
                  "blocks": args.blocks, "rhoStable": args.rho_stable,
                  "rhoAnti": args.rho_anti}
    out = Path(args.out)
    write_matrix(out / "A.json", inst.pencil.A)
    write_matrix(out / "B.json", inst.pencil.B)
    truth_files = {}
    if inst.true_basis_stable is not None:
        write_matrix(out / "Z.json", inst.true_basis_stable)
        write_matrix(out / "M.json", inst.true_m)
        truth_files = {"stableBasis": "Z.json", "stableBlock": "M.json"}
    manifest = {
        "command": "gen", "family": args.family, "seed": args.seed,
        "parameters": params, "m": inst.pencil.m, "n": inst.pencil.n,
        "toolVersion": __version__,
        "files": {"A": "A.json", "B": "B.json", **truth_files},
        "spectra": {
            "stable": _complex_list(inst.stable_eigs),
            "antiStable": _complex_list(inst.anti_stable_eigs),
            "circle": _complex_list(inst.circle_eigs),
        },
    }
    write_manifest(out / "manifest.json", manifest)
    print(f"wrote instance to {out}")
    return 0


def _complex_list(values) -> list[list[float]] | None:
    if values is None:
        return None
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]


def _cmd_solve(args) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ValueError(f"--out {out} exists and is not a directory")
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    g = GeneralPencil(A=a, B=b, m=args.m, n=args.n)
    problem = g if args.gamma is None else CayleyPair(g, args.gamma)
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    result = _RUNNERS[args.algorithm](problem, cfg)
    elapsed = time.perf_counter() - t0
    summary = {
        "command": "solve", "algorithm": args.algorithm,
        "status": result.status.value, "iterations": result.iterations,
        "message": result.message, "cpuSeconds": elapsed,
        "toolVersion": __version__,
        "parameters": {
            "m": args.m, "n": args.n, "gamma": args.gamma, "rtol": args.rtol,
            "tau": args.tau, "idea": args.idea,
            "variant": args.variant, "maxIter": args.max_iter,
        },
    }
    final = result.final
    if final is not None:
        write_permutation(out / "Q1.json", final.Q1)
        write_permutation(out / "Q2.json", final.Q2)
        write_matrix(out / "X.json", final.X)
        write_matrix(out / "Y.json", final.Y)
        write_history_csv(out / "iterations.csv", result.history)
        x_norm = float(np.linalg.norm(final.X))
        summary["normXFro"] = x_norm
        summary["maxAbsX"] = float(np.abs(final.X).max())
        summary["tau"] = cfg.tau_for(args.m, args.n)
        bases = bases_from_result(result)
        if np.array_equal(b, np.eye(a.shape[0])):
            try:
                summary["nres1"] = nres1(a, bases.stable_basis, x_norm=x_norm)
                summary["nres2"] = nres2(a, bases.stable_basis)
            except RankDeficientError as exc:  # advisory metrics
                summary["residualError"] = str(exc)
        write_matrix(out / "stable_basis.json", bases.stable_basis)
        write_matrix(out / "anti_stable_basis.json", bases.anti_stable_basis)
    write_manifest(out / "summary.json", summary)
    return _EXIT_FOR_STATUS[result.status]


def _cmd_experiment(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    if not seeds:
        raise ValueError("--seeds names no seed")
    CayleyPair.check_gamma(args.gamma)
    out = Path(args.out)
    if args.name == "critical_rate":
        params = {}    # the critical instances have a fixed size and no Cayley step
        tables = critical_rate(seeds=seeds, out_dir=out)
        write_manifest(out / "critical_rate.json", {"runs": tables, "seeds": list(seeds)})
        write_csv(out / "critical_rate.csv", [["seed", "i", "errX", "errRatio", "wMinPivot"], *(
            [t["seed"], r["i"], repr(r["errX"]), repr(r["errRatio"]), repr(r["wMinPivot"])]
            for t in tables for r in t["perIteration"])])
        files = ["critical_rate.json", "critical_rate.csv"]
        done = f"wrote critical-rate tables to {out}"
    else:
        if args.name == "eta_sweep":
            params = {"m": args.m, "n": args.n, "gamma": args.gamma}
            rows = eta_sweep(m=args.m, n=args.n, seeds=seeds, gamma=args.gamma, out_dir=out)
        else:
            params = {"bseN": args.bse_n, "gamma": args.gamma}
            rows = bse_like(n=args.bse_n, seeds=seeds, gamma=args.gamma, out_dir=out)
        dicts = [asdict(row) for row in rows]
        write_csv(out / "runs.csv", [list(dicts[0]), *(d.values() for d in dicts)])
        write_csv(out / "table.csv", pivot_table(rows))
        write_manifest(out / "runs.json", {"rows": dicts, "seeds": list(seeds)})
        files = ["runs.csv", "table.csv", "runs.json"]
        done = f"wrote {len(rows)} runs to {out}"
    write_manifest(out / "manifest.json", {
        "command": "experiment", "name": args.name, "parameters": params,
        "seeds": list(seeds), "toolVersion": __version__, "files": files})
    print(done)
    return 0


def _cmd_residual(args) -> int:
    a = read_matrix(args.matrix_a)
    z = read_matrix(args.basis)
    if args.matrix_b is not None:
        b = read_matrix(args.matrix_b)
        if not np.array_equal(b, np.eye(a.shape[0])):
            raise ValueError("residual metrics need B = I")
    print(json.dumps({"nres1": nres1(a, z, x_norm=args.x_norm), "nres2": nres2(a, z)}))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return {"gen": _cmd_gen, "solve": _cmd_solve, "experiment": _cmd_experiment,
                "residual": _cmd_residual}[args.command](args)
    except (ValueError, OSError, RankDeficientError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
