import csv
import json
import weakref

import numpy as np
import pytest

import qdoubling.driver

from qdoubling import CayleyPair, Permutation, gen_random_split
from qdoubling.cli import main
from qdoubling.fileio import (
    read_matrix,
    read_permutation,
    write_matrix,
    write_permutation,
)

from conftest import complex_normal


class TestFileFormats:
    def test_matrix_roundtrip_bit_identical(self, rng, tmp_path):
        a = complex_normal(rng, 5, 3)
        path = tmp_path / "m.json"
        write_matrix(path, a)
        np.testing.assert_array_equal(read_matrix(path), a)
        first = path.read_bytes()
        write_matrix(path, read_matrix(path))
        assert path.read_bytes() == first

    def test_matrix_rejects_nonfinite(self, tmp_path):
        bad = np.array([[np.inf]], dtype=complex)
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "m.json", bad)

    def test_matrix_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "re": [1, 2], "im": [0, 0]}))
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_permutation_roundtrip(self, rng, tmp_path):
        p = Permutation(rng.permutation(6))
        path = tmp_path / "p.json"
        write_permutation(path, p)
        assert read_permutation(path) == p


class TestGen:
    def test_split_instance_regenerates_bit_identical(self, tmp_path):
        args = ["gen", "--family", "split", "--m", "4", "--n", "5",
                "--alpha", "8", "--eta", "0.001", "--seed", "7"]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("A.json", "B.json", "Z.json", "M.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bse_and_critical_manifests(self, tmp_path):
        assert main(["gen", "--family", "bse", "--n", "8", "--seed", "3",
                     "--out", str(tmp_path / "bse")]) == 0
        manifest = json.loads((tmp_path / "bse" / "manifest.json").read_text())
        assert manifest["spectra"]["stable"] is None
        assert main(["gen", "--family", "critical", "--m-prime", "1",
                     "--n-prime", "1", "--blocks", "1:1+0j", "--seed", "3",
                     "--out", str(tmp_path / "crit")]) == 0
        manifest = json.loads((tmp_path / "crit" / "manifest.json").read_text())
        assert len(manifest["spectra"]["circle"]) == 2

    @pytest.mark.parametrize("flags", [("split", "--eta", "0"), ("split", "--alpha", "1"),
                                       ("critical", "--blocks", "bad"),
                                       ("critical", "--rho-stable", "2"),
                                       ("bse", "--gap-scale", "-1"),
                                       ("split", "--eta", "nan"),
                                       ("bse", "--coupling-scale", "nan"),
                                       ("bse", "--n", "0")],
                             ids=["eta", "alpha", "blocks", "rho-stable", "gap-scale",
                                  "eta-nan", "coupling-scale-nan", "bse-n-0"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, flags):
        family, *flag = flags
        out = tmp_path / "inst"
        code = main(["gen", "--family", family, *flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_block_names_the_item_and_the_form(self, tmp_path, capsys):
        assert main(["gen", "--family", "critical", "--blocks", "2:1+0j;3",
                     "--out", str(tmp_path / "inst")]) == 1
        err = capsys.readouterr().err
        assert "'3'" in err and "size:omega" in err


class TestSolve:
    def write_instance(self, tmp_path, **kwargs):
        params = dict(m=4, n=5, alpha=8.0, eta=1.0, seed=11)
        params.update(kwargs)
        inst = gen_random_split(**params)
        write_matrix(tmp_path / "A.json", inst.pencil.A)
        write_matrix(tmp_path / "B.json", inst.pencil.B)
        return inst

    def test_diagonal_pencil_exit_zero(self, tmp_path):
        write_matrix(tmp_path / "A.json", np.diag([0.5, 2.0]).astype(complex))
        write_matrix(tmp_path / "B.json", np.eye(2, dtype=complex))
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "1", "--n", "1", "--out", str(tmp_path / "sol")])
        assert code == 0
        x = read_matrix(tmp_path / "sol" / "X.json")
        assert np.abs(x).max() <= 1e-12
        summary = json.loads((tmp_path / "sol" / "summary.json").read_text())
        assert summary["status"] == "converged"

    def test_outputs_written(self, tmp_path):
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--gamma", "-1",
                     "--out", str(tmp_path / "sol")])
        assert code == 0
        for name in ("Q1.json", "Q2.json", "X.json", "Y.json",
                     "iterations.csv", "summary.json"):
            assert (tmp_path / "sol" / name).exists()
        with open(tmp_path / "sol" / "iterations.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["i", "absUpdateX", "relUpdateX"]
        assert len(rows) >= 2

    def test_sdasf1_on_stressed_instance_fails_or_blows_up(self, tmp_path):
        self.write_instance(tmp_path, m=10, n=12, eta=1e-7, seed=1)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "10", "--n", "12", "--gamma", "-1",
                     "--algorithm", "sdasf1", "--out", str(tmp_path / "sol")])
        if code == 0:
            summary = json.loads((tmp_path / "sol" / "summary.json").read_text())
            assert summary["normXFro"] >= 1e4
        else:
            assert code == 3

    def test_qda_on_stressed_instance_exit_zero(self, tmp_path):
        self.write_instance(tmp_path, m=10, n=12, eta=1e-7, seed=1)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "10", "--n", "12", "--gamma", "-1",
                     "--out", str(tmp_path / "sol")])
        assert code == 0
        summary = json.loads((tmp_path / "sol" / "summary.json").read_text())
        assert summary["nres2"] <= 1e-8

    def solve_watching_the_dense_pair(self, tmp_path, monkeypatch, algorithm, step_name):
        """Exit code, and which of the dense Cayley pair and its two matrices
        were alive when the first ``driver.<step_name>`` began."""
        refs, alive = [], []
        form = CayleyPair.pencil
        first_step = getattr(qdoubling.driver, step_name)

        def tracked_pencil(pair):
            disk = form(pair)
            refs.extend(weakref.ref(obj) for obj in (disk, disk.A, disk.B))
            return disk

        def watched_step(*args):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return first_step(*args)

        monkeypatch.setattr(CayleyPair, "pencil", tracked_pencil)
        monkeypatch.setattr(qdoubling.driver, step_name, watched_step)
        self.write_instance(tmp_path, m=6, n=7, eta=1e-2, seed=3)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "6", "--n", "7", "--gamma", "-1",
                     "--algorithm", algorithm, "--out", str(tmp_path / "sol")])
        assert len(refs) == 3
        return code, alive

    def test_cayley_pair_is_released_before_the_first_step(self, tmp_path, monkeypatch):
        code, alive = self.solve_watching_the_dense_pair(tmp_path, monkeypatch, "qda", "step")
        assert code == 0
        assert alive == [[False, False, False]]

    def test_baseline_releases_the_cayley_pair_after_its_start(self, tmp_path, monkeypatch):
        _, alive = self.solve_watching_the_dense_pair(tmp_path, monkeypatch, "sdasf1",
                                                      "step_sf1")
        assert alive == [[False, False, False]]

    @pytest.mark.parametrize("flag", [("--tau", "0.5"), ("--tau", "nan"), ("--rtol", "0"),
                                      ("--rtol", "nan"), ("--max-iter", "0"), ("--gamma", "1")],
                             ids=["tau", "tau-nan", "rtol", "rtol-nan", "max-iter", "gamma"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, flag):
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", *flag, "--out", str(tmp_path / "sol")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sdasf2_algorithm(self, tmp_path):
        self.write_instance(tmp_path, m=5, n=5, seed=1)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "5", "--n", "5", "--gamma", "-1",
                     "--algorithm", "sdasf2", "--out", str(tmp_path / "sol")])
        assert code == 0

    def test_sdasf2_requires_square_split(self, tmp_path):
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--gamma", "-1",
                     "--algorithm", "sdasf2", "--out", str(tmp_path / "sol")])
        assert code == 1

    def test_parse_error_exit_one(self, tmp_path):
        (tmp_path / "A.json").write_text("{not json")
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "A.json"),
                     "--m", "1", "--n", "1", "--out", str(tmp_path / "sol")])
        assert code == 1

    def test_dimension_error_exit_one(self, tmp_path):
        write_matrix(tmp_path / "A.json", np.eye(3, dtype=complex))
        write_matrix(tmp_path / "B.json", np.eye(4, dtype=complex))
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "2", "--n", "1", "--out", str(tmp_path / "sol")])
        assert code == 1


class TestResidualCommand:
    def test_reports_metrics(self, tmp_path, capsys):
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=2)
        write_matrix(tmp_path / "A.json", inst.pencil.A)
        write_matrix(tmp_path / "Z.json", inst.true_basis_stable)
        code = main(["residual", "--matrix-a", str(tmp_path / "A.json"),
                     "--basis", str(tmp_path / "Z.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nres1"] <= 1e-12 and out["nres2"] <= 1e-13


class TestExperimentCommand:
    def test_small_eta_sweep_table(self, tmp_path):
        code = main(["experiment", "--name", "eta_sweep", "--m", "6", "--n", "7",
                     "--seeds", "1", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "table.csv") as fh:
            rows = list(csv.reader(fh))
        metrics = {row[0] for row in rows[1:]}
        assert metrics == {"|X|_F", "CPU", "NRes_1", "NRes_2", "#it'n"}
        assert rows[0][2:] == ["eta=1e-04", "eta=1e-05", "eta=1e-06", "eta=1e-07"]
        assert (tmp_path / "runs.csv").exists()
        history = list(tmp_path.glob("history_qda_*.csv"))
        assert history

    def test_critical_rate_outputs(self, tmp_path):
        code = main(["experiment", "--name", "critical_rate", "--seeds", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "critical_rate.json").read_text())
        per_iter = data["runs"][0]["perIteration"]
        ratios = [row["errRatio"] for row in per_iter[4:-4]]
        assert any(0.35 <= r <= 0.65 for r in ratios)

    @pytest.mark.parametrize("flag", [("--gamma", "1"), ("--seeds", ""), ("--seeds", "1,x")],
                             ids=["gamma", "no-seeds", "bad-seed"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, flag):
        out = tmp_path / "exp"
        code = main(["experiment", "--name", "eta_sweep", "--m", "4", "--n", "5",
                     *flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()
