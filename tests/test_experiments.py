from qdoubling.experiments import FAILED, RunRow, bse_like, pivot_table


def make_row(algorithm, label, status="converged", nres2=1e-14):
    return RunRow(experiment="x", algorithm=algorithm, label=label, seed=1,
                  status=status, iterations=7, norm_x_fro=1.0, nres1=1e-15,
                  nres2=nres2, cpu_seconds=0.1)


class TestPivotTable:
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
