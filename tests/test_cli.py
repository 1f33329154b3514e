import csv
import json
import weakref

import numpy as np
import pytest

import qdoubling
import qdoubling.cli
import qdoubling.driver

from qdoubling import CayleyPair, Permutation, gen_random_split
from qdoubling.cli import main
from qdoubling.fileio import (
    matrix_to_obj,
    read_matrix,
    write_csv,
    write_matrix,
    write_permutation,
)

from conftest import complex_normal


def assert_one_error_line(code, capture, out=None):
    """Exit code 1, nothing on stdout, one ``error:`` line and no traceback on
    stderr, and no ``out`` directory made; returns the line.  ``capture`` is
    ``capsys``, or ``capfd`` where a library might print from C."""
    stdout, err = capture.readouterr()
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out is None or not out.exists()
    return err


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

    @pytest.mark.parametrize("sizes", [{"rows": 2.7}, {"rows": True, "cols": 2}, {"cols": 1.0},
                                       {"rows": -2, "cols": -1}],
                             ids=["rows-2.7", "rows-true", "cols-1.0", "negative"])
    def test_matrix_sizes_must_be_integers(self, tmp_path, sizes):
        # each of these used to load, its size truncated or a bool read as 1;
        # the negative pair got numpy's reshape message
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 1, "re": [1, 2], "im": [0, 0], **sizes}))
        with pytest.raises(ValueError, match='"rows" and "cols" must be integers'):
            read_matrix(path)

    @pytest.mark.parametrize("payload", [{"re": [True, False]}, {"re": ["1.5", "2"]},
                                         {"rows": 1, "re": 5, "im": 0},
                                         {"rows": 1, "re": [[1]], "im": [[0]]},
                                         {"im": None}],
                             ids=["bools", "strings", "bare-number", "nested", "null"])
    def test_matrix_entries_must_be_flat_lists_of_numbers(self, tmp_path, payload):
        # each of these but the last used to load: [true, false] as [1, 0],
        # "1.5" as 1.5, 5 as [5] and [[1]] as [1]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 1, "re": [1, 2], "im": [0, 0],
                                    **payload}))
        with pytest.raises(ValueError, match='"re" and "im" must be flat lists of numbers'):
            read_matrix(path)

    # JSON's Infinity, and an integer past the float64 range, which used to
    # raise an OverflowError that the CLI does not catch
    @pytest.mark.parametrize("entry", [float("inf"), 10**400], ids=["infinity", "past-float64"])
    def test_matrix_file_entries_must_be_finite(self, tmp_path, entry):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "re": [1, entry], "im": [0, 0]}))
        with pytest.raises(ValueError, match="non-finite entries"):
            read_matrix(path)

    def test_csv_is_written_whole_with_crlf_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [["a", "b"], [1, "x,y"], (2.5, "")])
        assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\n2.5,\r\n'
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_permutation_roundtrip(self, rng, tmp_path):
        # permutation files are written only: check the JSON itself
        p = Permutation(rng.permutation(6))
        path = tmp_path / "p.json"
        write_permutation(path, p)
        obj = json.loads(path.read_text())
        assert obj == {"size": 6, "image": p.image.tolist()}
        assert all(type(k) is int for k in obj["image"])

    def test_write_makes_a_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "m.json"
        write_matrix(path, np.eye(2, dtype=complex))
        np.testing.assert_array_equal(read_matrix(path), np.eye(2))
        assert [p.name for p in path.parent.iterdir()] == ["m.json"]


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
                                       ("bse", "--n", "0"),
                                       ("split", "--eta", "1e12"),
                                       ("split", "--eta", "inf"),
                                       ("split", "--alpha", "inf"),
                                       ("bse", "--gap-scale", "inf")],
                             ids=["eta", "alpha", "blocks", "rho-stable", "gap-scale",
                                  "eta-nan", "coupling-scale-nan", "bse-n-0",
                                  "eta-huge", "eta-inf", "alpha-inf", "gap-scale-inf"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, flags):
        family, *flag = flags
        out = tmp_path / "inst"
        code = main(["gen", "--family", family, *flag, "--out", str(out)])
        err = assert_one_error_line(code, capsys, out)
        assert flag[0].removeprefix("--").replace("-", "_") in err

    def test_nan_omega_is_off_the_unit_circle(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code = main(["gen", "--family", "critical", "--blocks", "2:nan", "--out", str(out)])
        assert "is not on the unit circle" in assert_one_error_line(code, capsys, out)

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

    def test_a_failed_residual_is_reported_in_the_summary(self, tmp_path, monkeypatch):
        def rank_deficient(*args):
            raise qdoubling.RankDeficientError("basis is numerically rank deficient")

        monkeypatch.setattr(qdoubling.cli, "nres2", rank_deficient)
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--gamma", "-1", "--out", str(tmp_path / "sol")])
        assert code == 0
        summary = json.loads((tmp_path / "sol" / "summary.json").read_text())
        assert summary["residualError"] == "basis is numerically rank deficient"
        assert "nres2" not in summary and summary["nres1"] <= 1e-10

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
                                      ("--rtol", "nan"), ("--rtol", "inf"), ("--max-iter", "0"),
                                      ("--gamma", "1"), ("--gamma=-inf",), ("--algorithm", "bogus"),
                                      ("--m", "one")],
                             ids=["tau", "tau-nan", "rtol", "rtol-nan", "rtol-inf", "max-iter",
                                  "gamma", "gamma-inf", "algorithm-bogus", "m-one"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, flag):
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", *flag, "--out", str(tmp_path / "sol")])
        assert_one_error_line(code, capsys, tmp_path / "sol")

    def test_matrix_file_holding_an_array_is_one_error_line(self, tmp_path, capsys):
        self.write_instance(tmp_path)
        (tmp_path / "A.json").write_text("[1, 2]")
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--out", str(tmp_path / "sol")])
        assert_one_error_line(code, capsys, tmp_path / "sol")

    @pytest.mark.parametrize("cols", [True, 9.5], ids=["cols-true", "cols-9.5"])
    def test_matrix_size_not_an_integer_is_one_error_line(self, tmp_path, capsys, cols):
        # a 9.5 used to be read as the 9 columns the file holds
        inst = self.write_instance(tmp_path)
        (tmp_path / "B.json").write_text(json.dumps({**matrix_to_obj(inst.pencil.B),
                                                     "cols": cols}))
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--out", str(tmp_path / "sol")])
        assert "must be integers" in assert_one_error_line(code, capsys, tmp_path / "sol")

    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("--out is checked before any input is read or solved")

        monkeypatch.setattr(qdoubling.cli, "read_matrix", never)
        monkeypatch.setitem(qdoubling.cli._RUNNERS, "qda", never)
        self.write_instance(tmp_path)
        (tmp_path / "sol").write_text("kept")
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--gamma", "-1", "--out", str(tmp_path / "sol")])
        assert_one_error_line(code, capsys)
        assert (tmp_path / "sol").read_text() == "kept"

    def test_sdasf2_algorithm(self, tmp_path):
        self.write_instance(tmp_path, m=5, n=5, seed=1)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "5", "--n", "5", "--gamma", "-1",
                     "--algorithm", "sdasf2", "--out", str(tmp_path / "sol")])
        assert code == 0

    def test_sdasf2_requires_square_split(self, tmp_path, capsys):
        self.write_instance(tmp_path)
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "4", "--n", "5", "--gamma", "-1",
                     "--algorithm", "sdasf2", "--out", str(tmp_path / "sol")])
        err = assert_one_error_line(code, capsys, tmp_path / "sol")
        assert "requires m" in err

    def test_parse_error_exit_one(self, tmp_path, capsys):
        (tmp_path / "A.json").write_text("{not json")
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "A.json"),
                     "--m", "1", "--n", "1", "--out", str(tmp_path / "sol")])
        assert_one_error_line(code, capsys, tmp_path / "sol")

    def test_dimension_error_exit_one(self, tmp_path, capsys):
        write_matrix(tmp_path / "A.json", np.eye(3, dtype=complex))
        write_matrix(tmp_path / "B.json", np.eye(4, dtype=complex))
        code = main(["solve", "--matrix-a", str(tmp_path / "A.json"),
                     "--matrix-b", str(tmp_path / "B.json"),
                     "--m", "2", "--n", "1", "--out", str(tmp_path / "sol")])
        assert_one_error_line(code, capsys, tmp_path / "sol")


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

    # at rows-7.5 the file's full-rank 7-by-3 basis used to load, 7.5 read as 7;
    # at b-identity-2x2 the 2-by-2 B was taken for the 7-by-7 identity; the
    # basis of no columns reached ZGETRF, whose complaint went to stdout
    # (which capfd sees), and then failed in f2py's argument check
    @pytest.mark.parametrize("files", [{"B": 2 * np.eye(7)}, {"Z": np.ones((7, 3))},
                                       {"Z": [1, 2]},
                                       {"Z": {"rows": 7.5, "cols": 3, "im": [0.0] * 21,
                                              "re": np.eye(7, 3).ravel().tolist()}},
                                       {"B": np.eye(2)},
                                       {"Z": {"rows": 7, "cols": 0, "re": [], "im": []}}],
                             ids=["b-not-identity", "rank-deficient", "array-file", "rows-7.5",
                                  "b-identity-2x2", "no-columns"])
    def test_bad_input_is_one_error_line(self, tmp_path, capfd, files):
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=2)
        files = {"A": inst.pencil.A, "Z": inst.true_basis_stable, **files}
        args = ["residual"]
        for name, payload in files.items():
            path = tmp_path / f"{name}.json"
            if isinstance(payload, (list, dict)):
                path.write_text(json.dumps(payload))
            else:
                write_matrix(path, payload)
            args += [{"A": "--matrix-a", "B": "--matrix-b", "Z": "--basis"}[name], str(path)]
        assert_one_error_line(main(args), capfd)

    @pytest.mark.parametrize("x_norm", ["--x-norm=inf", "--x-norm=nan", "--x-norm=-1"])
    def test_x_norm_must_be_finite_and_nonnegative(self, tmp_path, capsys, x_norm):
        # each used to print a residual and exit 0, inf as "nres1": 0.0
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=2)
        write_matrix(tmp_path / "A.json", inst.pencil.A)
        write_matrix(tmp_path / "Z.json", inst.true_basis_stable)
        code = main(["residual", "--matrix-a", str(tmp_path / "A.json"),
                     "--basis", str(tmp_path / "Z.json"), x_norm])
        assert "x_norm must be finite" in assert_one_error_line(code, capsys)

    @pytest.mark.parametrize("a, z", [(np.ones((3, 4)), np.eye(3, 1)), (np.eye(7), np.eye(3, 1))],
                             ids=["a-3x4", "basis-rows-not-a-size"])
    def test_a_must_be_square_and_the_basis_of_its_rows(self, tmp_path, capsys, a, z):
        # both used to end in numpy's matmul message, naming neither shape
        write_matrix(tmp_path / "A.json", a)
        write_matrix(tmp_path / "Z.json", z)
        code = main(["residual", "--matrix-a", str(tmp_path / "A.json"),
                     "--basis", str(tmp_path / "Z.json")])
        line = assert_one_error_line(code, capsys)
        assert "need a square H and a basis of its rows" in line
        assert f"H of shape {a.shape} and a basis of shape {z.shape}" in line


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

    @pytest.mark.parametrize("name, flags, params, files", [
        ("eta_sweep", ["--m", "4", "--n", "5"], {"m": 4, "n": 5, "gamma": -1.0},
         ["runs.csv", "table.csv", "runs.json"]),
        ("bse_like", ["--bse-n", "4"], {"bseN": 4, "gamma": -1.0},
         ["runs.csv", "table.csv", "runs.json"]),
        ("critical_rate", [], {}, ["critical_rate.json", "critical_rate.csv"]),
    ], ids=["eta_sweep", "bse_like", "critical_rate"])
    def test_writes_a_manifest(self, tmp_path, name, flags, params, files):
        assert main(["experiment", "--name", name, *flags, "--seeds", "1,2",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {"command": "experiment", "name": name, "parameters": params,
                            "seeds": [1, 2], "toolVersion": qdoubling.__version__,
                            "files": files}
        for file in files:
            assert (tmp_path / file).exists()
        assert list(tmp_path.glob("history_qda_*seed2.csv"))
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("name, flag", [
        ("eta_sweep", ("--gamma", "1")), ("eta_sweep", ("--seeds", "")),
        ("eta_sweep", ("--seeds", "1,x")), ("eta_sweep", ("--m", "0")),
        ("eta_sweep", ("--gamma=-inf",)), ("bse_like", ("--bse-n", "0")),
    ], ids=["gamma", "no-seeds", "bad-seed", "m-0", "gamma-inf", "bse-n-0"])
    def test_invalid_flag_is_one_error_line(self, tmp_path, capsys, name, flag):
        out = tmp_path / "exp"
        code = main(["experiment", "--name", name, "--m", "4", "--n", "5", "--bse-n", "4",
                     "--seeds", "1", *flag, "--out", str(out)])
        assert_one_error_line(code, capsys, out)
