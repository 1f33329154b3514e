import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdoubling.experiments
from qdoubling import (
    GeneralPencil,
    Permutation,
    QdaConfig,
    QdaResult,
    RunStatus,
    SfqPencil,
    run_sdasf1_on,
)
from qdoubling.experiments import FAILED, METRIC_ROWS, RunRow, _measure, bse_like, pivot_table


def make_row(algorithm, label, status="converged", nres2=1e-14):
    return RunRow(experiment="x", algorithm=algorithm, label=label, seed=1,
                  status=status, iterations=7, norm_x_fro=1.0, nres1=1e-15,
                  nres2=nres2, cpu_seconds=0.1)


def scanned_pivot_table(rows):
    """Reference: every cell scans all rows for its algorithm and label."""
    labels = [r.label for i, r in enumerate(rows) if r.label not in [q.label for q in rows[:i]]]
    algorithms = [r.algorithm for i, r in enumerate(rows)
                  if r.algorithm not in [q.algorithm for q in rows[:i]]]
    table = [["metric", "algorithm", *labels]]
    for metric, attr in METRIC_ROWS:
        for algorithm in algorithms:
            line = [metric, algorithm]
            for label in labels:
                cell = [r for r in rows if (r.algorithm, r.label) == (algorithm, label)]
                values = [getattr(r, attr) for r in cell]
                bad = any(r.status == "breakdown" or not math.isfinite(getattr(r, attr))
                          for r in cell)
                line.append(FAILED if bad or not cell else f"{max(values):.6g}")
            table.append(line)
    return table


values = st.one_of(st.floats(0, 1e6), st.sampled_from([float("nan"), float("inf")]))
run_rows = st.builds(RunRow, experiment=st.just("x"), algorithm=st.sampled_from(["qda", "sf1"]),
                     label=st.sampled_from(["a", "b", "c"]), seed=st.just(1),
                     status=st.sampled_from(["converged", "breakdown", "max_iter"]),
                     iterations=st.integers(0, 9), norm_x_fro=values, nres1=values,
                     nres2=values, cpu_seconds=values)


class TestPivotTable:
    @given(rows=st.lists(run_rows, max_size=12))
    def test_matches_a_scan_of_every_row_per_cell(self, rows):
        assert pivot_table(rows) == scanned_pivot_table(rows)

    def test_breakdown_marks_cell_failed(self):
        rows = [make_row("qda", "eta=1e-06"),
                make_row("sdasf1", "eta=1e-06", status="breakdown", nres2=float("nan"))]
        table = pivot_table(rows)
        header = table[0]
        assert header == ["metric", "algorithm", "eta=1e-06"]
        by_key = {(line[0], line[1]): line[2] for line in table[1:]}
        assert by_key[("NRes_2", "qda")] == "1e-14"
        assert by_key[("NRes_2", "sdasf1")] == FAILED
        assert by_key[("#it'n", "sdasf1")] == FAILED

    def test_worst_seed_reported(self):
        rows = [make_row("qda", "eta=1e-04", nres2=1e-14),
                make_row("qda", "eta=1e-04", nres2=5e-13)]
        table = pivot_table(rows)
        by_key = {(line[0], line[1]): line[2] for line in table[1:]}
        assert by_key[("NRes_2", "qda")] == "5e-13"

    def test_non_finite_value_marks_only_its_metric(self):
        rows = [make_row("qda", "eta=1e-04"),
                make_row("qda", "eta=1e-04", nres2=float("inf"))]
        by_key = {(line[0], line[1]): line[2] for line in pivot_table(rows)[1:]}
        assert by_key[("NRes_2", "qda")] == FAILED
        assert by_key[("NRes_1", "qda")] == "1e-15"

    def test_label_an_algorithm_never_ran_is_failed(self):
        rows = [make_row("qda", "eta=1e-04"), make_row("sdasf1", "eta=1e-05"),
                make_row("qda", "eta=1e-05")]
        table = pivot_table(rows)
        assert table[0] == ["metric", "algorithm", "eta=1e-04", "eta=1e-05"]
        assert [line[1] for line in table[1:3]] == ["qda", "sdasf1"]
        assert table[2][2:] == [FAILED, "1"]


class TestBseLikeExperiment:
    def test_small_instance_rows(self, tmp_path):
        rows = bse_like(n=12, seeds=(1,), out_dir=tmp_path)
        variants = {(r.algorithm, r.label) for r in rows}
        assert ("qda", "variant=plain") in variants
        assert ("sdasf1", "variant=misscaled") in variants
        qda_plain = [r for r in rows if r.algorithm == "qda" and r.label == "variant=plain"]
        assert qda_plain[0].status == "converged"
        assert qda_plain[0].nres2 <= 1e-10
        assert list(tmp_path.glob("history_qda_*.csv"))


class TestMeasure:
    @staticmethod
    def measured(x):
        """The row ``_measure`` makes of a run that ended on ``Q1 = I`` and ``x``."""
        n, m = x.shape
        ident = Permutation.identity(m + n)
        final = SfqPencil(m=m, n=n, E=np.eye(m), F=np.eye(n), X=x, Y=np.zeros((m, n)),
                          Q1=ident, Q2=ident)
        result = QdaResult(phi=final.X, psi=final.Y, q1=ident, q2=ident, history=(),
                           status=RunStatus.CONVERGED, final=final)
        return _measure("x", "qda", "seed=1", 1, np.eye(m + n), result, 0.0)

    def test_rank_deficient_basis_gives_a_nan_row(self):
        # [I; X] with one column 1e20 times the other: R's diagonal spans 20 decades
        row = self.measured(np.diag([1e20, 1.0]))
        assert row.norm_x_fro == 1e20
        assert math.isnan(row.nres1) and math.isnan(row.nres2)

    def test_a_run_without_a_final_pencil_gives_a_nan_row_and_failed_cells(self):
        # with B's first m columns zero, SF1's closed-form start is singular
        a, b = np.eye(4), np.diag([0.0, 0.0, 1.0, 1.0])
        result = run_sdasf1_on(GeneralPencil(A=a, B=b, m=2, n=2), QdaConfig())
        assert result.final is None
        row = _measure("x", "sdasf1", "seed=1", 1, a, result, 0.5)
        assert (row.status, row.iterations, row.cpu_seconds) == ("breakdown", 0, 0.5)
        assert all(map(math.isnan, (row.norm_x_fro, row.nres1, row.nres2)))
        assert [line[2] for line in pivot_table([row])[1:]] == [FAILED] * len(METRIC_ROWS)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(h, z):
            raise RuntimeError("not a residual failure")

        monkeypatch.setattr(qdoubling.experiments, "nres2", broken)
        with pytest.raises(RuntimeError, match="not a residual failure"):
            self.measured(np.eye(2))
