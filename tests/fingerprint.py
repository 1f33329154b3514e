"""Bitwise fingerprint of the library's outputs.

Prints one ``name sha256`` line per output: the four generators, the four
solvers under the default and one non-default configuration (every result
field and every guard action), the driver runs of the acceptance suite, the
files ``qdoubling solve`` writes, the three experiments and the benchmark's
instance families at small sizes, and one instance of each family at full
size, where the solvers run on two lanes.
Run it on two checkouts of ``src/`` and ``diff`` the outputs to show that a
change keeps every output bit for bit::

    PYTHONPATH=src python tests/fingerprint.py > after.txt

The hashes depend on the BLAS build, so no golden file is kept: both runs
must use the same machine and packages.  Run as a script, it pins OpenBLAS
to one thread before numpy loads.  Each line hashes an output's type, field
names, array dtypes, shapes and bytes and the ``repr`` of its scalars; CPU
times are left out.
"""

from __future__ import annotations

import os

if __name__ == "__main__":      # OpenBLAS reads this once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import dataclasses
import enum
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from qdoubling import (
    CayleyPair,
    CayleyParams,
    CriticalSpec,
    Idea,
    Permutation,
    QdaConfig,
    StopMode,
    Variant,
    bases_from_result,
    cayley,
    dual,
    gen_bse_like,
    gen_critical,
    gen_random_split,
    gen_solved_sfq,
    run_qda,
    run_sdasf1_on,
    run_sdasf2_on,
    run_sdasfq,
    solve_halfplane,
)
from qdoubling.cli import main as cli_main
from qdoubling.experiments import bse_like, critical_rate, eta_sweep

from conftest import NO_GUARD, random_sfq

#: The non-default configuration: a low guard threshold, so that the guard
#: acts, the idea-1 B-first start and the plain stopping rule.
OTHER_CFG = QdaConfig(tau=20.0, init_idea=Idea.IDEA1, init_variant=Variant.B_FIRST,
                      stop_mode=StopMode.PLAIN)
CONFIGS = (("default", QdaConfig()), ("other", OTHER_CFG))
SEEDS = (1, 2, 3)
CRITICAL_SPECS = (CriticalSpec(3, 3, ((2, 1.0 + 0j),), 0.3, 0.3),
                  CriticalSpec(2, 1, ((1, 1j), (2, -1.0 + 0j)), 0.5, 0.4))


def _feed(h, obj) -> None:
    """Feed ``obj`` to the hash ``h`` with its type, so that no two outputs
    of different structure share an encoding."""
    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, Permutation):
        _feed(h, obj.image)
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}{{".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)};".encode())
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)};".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (enum.Enum, bool, int, float, complex, str, bytes, np.generic)) \
            or obj is None:
        h.update(f"{type(obj).__name__} {obj!r};".encode())
    else:
        raise TypeError(f"no fingerprint for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def generators():
    """Every field of each generator's instance, at two shapes and three seeds."""
    for seed in SEEDS:
        for m, n in ((5, 7), (12, 9)):
            yield f"gen_random_split/{m}x{n}/s{seed}", gen_random_split(m, n, 8.0, 1e-3, seed)
            yield f"gen_solved_sfq/{m}x{n}/s{seed}", gen_solved_sfq(m, n, 0.9, 0.9, seed)
        for n in (4, 9):
            yield f"gen_bse_like/{n}/s{seed}", gen_bse_like(n, 2.0, seed, coupling_scale=0.5)
        for k, spec in enumerate(CRITICAL_SPECS):
            yield f"gen_critical/spec{k}/s{seed}", gen_critical(spec, seed)


def _result_fields(name, result):
    """One line per field of a solver result, and one for its guard actions."""
    for f in dataclasses.fields(result):
        yield f"{name}/{f.name}", getattr(result, f.name)
    yield f"{name}/guard_actions", [rec.guard_events.actions for rec in result.history]


def solvers():
    """``run_qda``, ``run_sdasf1_on`` and ``run_sdasf2_on`` on a half-plane
    split, a Hamiltonian and a critical pencil, and ``run_sdasfq`` on a
    solved one, under each configuration."""
    problems = (("split", CayleyPair(gen_random_split(12, 12, 8.0, 1e-6, 1).pencil, -1.0)),
                ("bse", CayleyPair(gen_bse_like(10, 2.0, 2, coupling_scale=1e-3).pencil, -1.0)),
                ("critical", gen_critical(CRITICAL_SPECS[0], 2).pencil))
    for label, cfg in CONFIGS:
        for family, problem in problems:
            for runner in (run_qda, run_sdasf1_on, run_sdasf2_on):
                yield from _result_fields(f"{runner.__name__}/{family}/{label}",
                                          runner(problem, cfg))
        for seed in SEEDS:
            inst = gen_solved_sfq(8, 7, 0.95, 0.95, seed)
            yield from _result_fields(f"run_sdasfq/solved_s{seed}/{label}",
                                      run_sdasfq(inst.pencil, cfg))


def acceptance():
    """The driver runs of ``tests/test_acceptance.py`` (tests 03, 04, 05,
    07, 09 and 10), each on its test's instance and configuration."""
    gamma = CayleyParams(-1.0)
    for seed in range(1, 6):
        g = cayley(gen_random_split(20, 25, 8.0, 1.0, seed).pencil, gamma)
        yield from _result_fields(f"acceptance/03/s{seed}", run_qda(g, QdaConfig()))
        inst = gen_solved_sfq(6, 7, 0.6, 0.7, seed)
        yield from _result_fields(f"acceptance/04/s{seed}", run_sdasfq(
            inst.pencil, QdaConfig(rtol=1e-12, stop_mode=StopMode.KAHAN)))
    rng = np.random.default_rng(505)
    cfg = QdaConfig(max_iter=6, rtol=1e-300, tau=NO_GUARD)
    for m, n in ((3, 5), (4, 4), (2, 6), (5, 3), (4, 5)):
        p0 = random_sfq(rng, m, n, scale=0.35)
        yield from _result_fields(f"acceptance/05/{m}x{n}/primal", run_sdasfq(p0, cfg))
        yield from _result_fields(f"acceptance/05/{m}x{n}/dual", run_sdasfq(dual(p0), cfg))
    yield from _result_fields("acceptance/07", run_qda(gen_critical(CRITICAL_SPECS[0], 2).pencil,
                                                       QdaConfig()))
    for eta, seed in itertools.product((1e-4, 1e-5, 1e-6, 1e-7), (1, 2, 3)):
        g = cayley(gen_random_split(50, 60, 8.0, eta, seed).pencil, gamma)
        yield from _result_fields(f"acceptance/09/{eta:.0e}/s{seed}/qda", run_qda(g, QdaConfig()))
        if eta in (1e-6, 1e-7):
            yield from _result_fields(f"acceptance/09/{eta:.0e}/s{seed}/sf1",
                                      run_sdasf1_on(g, QdaConfig()))
    for seed in (1, 2, 3):
        g = cayley(gen_bse_like(64, 2.0, seed).pencil, gamma)
        yield from _result_fields(f"acceptance/10/s{seed}/qda", run_qda(g, QdaConfig()))
        g = cayley(gen_bse_like(64, 2.0, seed, coupling_scale=1e-3).pencil, gamma)
        yield from _result_fields(f"acceptance/10/s{seed}/sf1", run_sdasf1_on(g, QdaConfig()))


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):     # gen names its temporary folder
        return cli_main(list(argv))


def cli_solve():
    """The files ``qdoubling solve`` writes for each algorithm (and for QDA
    under the non-default flags), ``summary.json`` without ``cpuSeconds``."""
    runs = {algorithm: ("--algorithm", algorithm) for algorithm in ("qda", "sdasf1", "sdasf2")}
    runs["qda-other"] = ("--tau", "20", "--idea", "1", "--variant", "bfirst", "--stop", "plain")
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp, "inst")
        _cli("gen", "--family", "split", "--m", "8", "--n", "8", "--eta", "1e-4",
             "--seed", "3", "--out", str(inst))
        for name, flags in runs.items():
            out = Path(tmp, name)
            code = _cli("solve", "--matrix-a", str(inst / "A.json"), "--matrix-b",
                        str(inst / "B.json"), "--m", "8", "--n", "8", "--gamma", "-1",
                        "--out", str(out), *flags)
            yield f"cli_solve/{name}/exit_code", code
            for path in sorted(out.iterdir()):
                if path.name == "summary.json":
                    summary = json.loads(path.read_text())
                    del summary["cpuSeconds"]
                    yield f"cli_solve/{name}/{path.name}", summary
                else:
                    yield f"cli_solve/{name}/{path.name}", path.read_bytes()


def experiments():
    """Each row of the three experiments, without its CPU time."""
    for name, rows in (("eta_sweep", eta_sweep(m=4, n=5, seeds=(1, 2))),
                       ("bse_like", bse_like(n=4, seeds=(1, 2)))):
        for row in rows:
            yield (f"experiment/{name}/{row.algorithm}/{row.label}/s{row.seed}",
                   dataclasses.replace(row, cpu_seconds=0.0))
    for table in critical_rate(seeds=(1, 2)):
        del table["cpu_seconds"]
        yield f"experiment/critical_rate/s{table['seed']}", table


def benchmark_families():
    """The benchmark's instance families at small sizes, each solved as its
    workload solves it: a split pencil by ``solve_halfplane`` and by SDASF1
    on its Cayley transform, a solved pencil by ``run_sdasfq``, and the
    eta sweep's instances."""
    gamma = CayleyParams(-1.0)
    for seed, (m, n) in itertools.product(SEEDS, ((12, 15), (50, 60), (60, 70))):
        name = f"split_large/{m}x{n}/s{seed}"
        inst = gen_random_split(m, n, 8.0, 1e-6, seed)
        bases = solve_halfplane(inst.pencil, gamma, QdaConfig())
        yield f"{name}/bases", (bases.stable_basis, bases.anti_stable_basis)
        yield from _result_fields(f"{name}/qda", bases.source)
        yield from _result_fields(f"{name}/sf1",
                                  run_sdasf1_on(cayley(inst.pencil, gamma), QdaConfig()))
    for seed, size in itertools.product(SEEDS, (20, 60)):
        name = f"solved_iterate/{size}/s{seed}"
        result = run_sdasfq(gen_solved_sfq(size, size, 0.99, 0.99, seed).pencil, QdaConfig())
        yield f"{name}/basis", bases_from_result(result).stable_basis
        yield from _result_fields(f"{name}/sfq", result)
    for eta in (1e-4, 1e-5, 1e-6, 1e-7):
        for seed in (1, 2):
            inst = gen_random_split(6, 8, 8.0, eta, seed)
            bases = solve_halfplane(inst.pencil, gamma, QdaConfig())
            name = f"eta_sweep/{eta:.0e}/s{seed}"
            yield name, (inst, bases.stable_basis, bases.anti_stable_basis)
            yield from _result_fields(f"{name}/qda", bases.source)


def full_size():
    """One instance of each benchmark family at the benchmark's size, where
    the doubling steps and the reduction run on two lanes: a split pencil
    (N = 650) by ``solve_halfplane`` and by SDASF1 on its Cayley transform,
    and a solved pencil (N = 600) by ``run_sdasfq``."""
    gamma = CayleyParams(-1.0)
    inst = gen_random_split(300, 350, 8.0, 1e-6, 1)
    bases = solve_halfplane(inst.pencil, gamma, QdaConfig())
    yield "full_size/split/bases", (bases.stable_basis, bases.anti_stable_basis)
    yield from _result_fields("full_size/split/qda", bases.source)
    yield from _result_fields("full_size/split/sf1",
                              run_sdasf1_on(cayley(inst.pencil, gamma), QdaConfig()))
    result = run_sdasfq(gen_solved_sfq(300, 300, 0.99, 0.99, 1).pencil, QdaConfig())
    yield "full_size/solved/basis", bases_from_result(result).stable_basis
    yield from _result_fields("full_size/solved/sfq", result)


SECTIONS = (generators, solvers, acceptance, cli_solve, experiments, benchmark_families,
            full_size)


def fingerprint(sections=SECTIONS):
    """The ``name sha256`` lines of the given sections, in order."""
    for section in sections:
        for name, output in section():
            yield f"{name} {digest(output)}"


def main() -> None:
    for line in fingerprint():
        print(line)


if __name__ == "__main__":
    main()
