"""Tests for the command-line driver: workflows and exit codes."""

import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import wavelogit
from wavelogit.cli import main
from wavelogit.dataio import load_dataset, load_model

# child processes import the package from the source tree under test
SOURCE_DIR = str(Path(wavelogit.__file__).resolve().parent.parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE_DIR, os.environ.get("PYTHONPATH")])),
}

SIM_ARGS = [
    "--n-per-class", "20",
    "--n-test-per-class", "8",
    "--d", "64",
    "--j0", "2",
    "--support", "10,30,50",
    "--effects", "1.2,0.9,0.8",
    "--seed", "3",
]


def simulate(tmp_path):
    train = str(tmp_path / "train.csv")
    test = str(tmp_path / "test.csv")
    code = main(["simulate", "--out", train, "--test-out", test] + SIM_ARGS)
    assert code == 0
    return train, test


class TestWorkflow:
    def test_simulate_writes_both_splits(self, tmp_path):
        train, test = simulate(tmp_path)
        assert load_dataset(train).n == 40
        assert load_dataset(test).n == 16

    def test_fit_predict_evaluate_export(self, tmp_path, capsys):
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main([
            "fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
            "--j0", "2", "--out", model_path,
        ]) == 0
        model = load_model(model_path)
        assert model.estimator == "wnet" and model.basis.d == 64

        probs_path = str(tmp_path / "p.csv")
        assert main(["predict", "--model", model_path, "--data", test, "--out", probs_path]) == 0
        rows = Path(probs_path).read_text().splitlines()
        assert rows[0] == "prob" and len(rows) == 17

        assert main(["evaluate", "--model", model_path, "--data", test]) == 0
        out = capsys.readouterr().out
        assert "AUC " in out
        assert ("validated" in out) or ("not_validated" in out)

        beta_path = str(tmp_path / "beta.csv")
        assert main(["export-beta", "--model", model_path, "--out", beta_path]) == 0
        assert Path(beta_path).read_text().splitlines()[0] == "t,beta"

    def test_cv_selects_and_saves(self, tmp_path, capsys):
        train, _ = simulate(tmp_path)
        model_path = str(tmp_path / "cv.json")
        assert main([
            "cv", "--data", train, "--method", "wnet", "--n-lambda", "5",
            "--j0", "2", "--folds", "4", "--out", model_path,
        ]) == 0
        assert "selected wnet" in capsys.readouterr().out
        assert load_model(model_path).estimator == "wnet"

    def test_cv_aicc_path(self, tmp_path, capsys):
        train, _ = simulate(tmp_path)
        model_path = str(tmp_path / "aicc.json")
        assert main([
            "cv", "--data", train, "--method", "wpcr",
            "--lambda-grid", "0.01,0.5", "--q-grid", "2,4",
            "--j0", "2", "--select", "aicc", "--out", model_path,
        ]) == 0
        assert "AICc" in capsys.readouterr().out
        model = load_model(model_path)
        assert model.estimator == "wpcr" and model.q in (2, 4)

    def test_cv_summary_counts_failed_points(self, tmp_path, capsys):
        train, _ = simulate(tmp_path)
        capsys.readouterr()
        args = [
            "cv", "--data", train, "--method", "wpcr", "--lambda-grid", "0.01",
            "--j0", "2", "--select", "aicc", "--out", str(tmp_path / "m.json"),
        ]
        assert main(args + ["--q-grid", "1,2"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(" over 2 configurations)")
        # q=500 exceeds the 40-curve training set: a DataError for that point only
        assert main(args + ["--q-grid", "1,500"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("selected wpcr: lambda=0.01, q=1 (AICc = ")
        assert line.endswith(" over 2 configurations, 1 of 2 failed)")

    def test_simulate_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(["simulate", "--out", a] + SIM_ARGS) == 0
        assert main(["simulate", "--out", b] + SIM_ARGS) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--bogus"])
        assert info.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_file_is_2(self, tmp_path):
        out = str(tmp_path / "m.json")
        assert main(["fit", "--data", "no-such.csv", "--method", "wnet", "--out", out]) == 2

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as fh:
            fh.write("label,t1,t2,t3,t4\n0,1,2,3\n")
        out = str(tmp_path / "m.json")
        assert main(["fit", "--data", bad, "--method", "wnet", "--out", out]) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_dimension_mismatch_is_2(self, tmp_path):
        train, _ = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        main(["fit", "--data", train, "--method", "wnet", "--j0", "2", "--out", model_path])
        other = str(tmp_path / "other.csv")
        main(["simulate", "--out", other, "--n-per-class", "4", "--d", "32",
              "--j0", "2", "--support", "10", "--effects", "1.0"])
        assert main(["evaluate", "--model", model_path, "--data", other]) == 2

    def test_numerical_error_is_3(self, tmp_path, capsys):
        train, _ = simulate(tmp_path)
        out = str(tmp_path / "m.json")
        # every grid point asks for more components than a fold can support
        code = main([
            "cv", "--data", train, "--method", "wpcr", "--lambda-grid", "0.1",
            "--q-grid", "100", "--j0", "2", "--out", out,
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_effects_without_support_is_2(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--out", out, "--effects", "1.0"]) == 2

    def test_non_finite_lambda_is_2(self, tmp_path):
        """A NaN penalty once made the wnet backtracking loop spin forever,
        so the command runs in a child process under a time limit."""
        train, _ = simulate(tmp_path)
        for flags in (["fit", "--lambda", "nan"], ["cv", "--lambda-grid", "0.5,nan"]):
            child = subprocess.run(
                [sys.executable, "-m", "wavelogit", *flags, "--data", train,
                 "--method", "wnet", "--j0", "2", "--out", str(tmp_path / "m.json")],
                env=CHILD_ENV, capture_output=True, text=True, timeout=60,
            )
            assert child.returncode == 2, child.stderr
            assert "finite" in child.stderr

    @pytest.mark.parametrize("n_lambda", ["0", "-1"])
    def test_empty_lambda_grid_is_2(self, tmp_path, capsys, n_lambda):
        train, _ = simulate(tmp_path)
        out = str(tmp_path / "m.json")
        args = ["cv", "--data", train, "--method", "wnet", "--n-lambda", n_lambda,
                "--j0", "2", "--out", out]
        assert main(args) == 2
        assert "at least one point" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [("8", "-1"), ("-1", "8"), ("0", "8")])
    def test_bad_simulate_count_is_2(self, tmp_path, capsys, counts):
        args = ["simulate", "--out", str(tmp_path / "a.csv"),
                "--test-out", str(tmp_path / "b.csv"),
                "--n-per-class", counts[0], "--n-test-per-class", counts[1]]
        assert main(args) == 2
        assert "need --n-per-class >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "cv"])
    def test_negative_seed_is_2(self, tmp_path, capsys, command):
        train, _ = simulate(tmp_path)
        out = str(tmp_path / "out")
        args = {
            "simulate": ["simulate", "--out", out],
            "cv": ["cv", "--data", train, "--method", "wnet", "--n-lambda", "2",
                   "--j0", "2", "--out", out],
        }[command]
        assert main(args + ["--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dataset", "model"])
    def test_non_utf8_file_is_2(self, tmp_path, capsys, kind):
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                     "--j0", "2", "--out", model_path]) == 0
        target = test if kind == "dataset" else model_path
        with open(target, "ab") as fh:
            fh.write(b"\xff\xfe")
        assert main(["evaluate", "--model", model_path, "--data", test]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_model_with_string_j0_is_2(self, tmp_path, capsys):
        """A bad wavelet level fails when the model loads, not while scoring."""
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                     "--j0", "2", "--out", model_path]) == 0
        doc = json.loads(Path(model_path).read_text())
        doc["j0"] = "2"
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        assert main(["evaluate", "--model", model_path, "--data", test]) == 2
        assert "j0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("q", [1]),
            ("iterations", "x"),
            ("lambda", "nan"),
            ("tau", "-3"),
            ("kkt_residual", "inf"),
            ("q", -4),
            ("q", None),
        ],
    )
    def test_invalid_model_field_is_2(self, tmp_path, capsys, field, value):
        """Every field is checked when the model loads, also those scoring
        does not read; a wpcr model needs a component count, so null q fails."""
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wpcr", "--q", "2",
                     "--lambda", "0.1", "--out", model_path]) == 0
        doc = json.loads(Path(model_path).read_text())
        doc[field] = value
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        assert main(["evaluate", "--model", model_path, "--data", test]) == 2
        assert "is corrupted" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "cv", "predict", "export-beta"])
    def test_unwritable_out_is_2(self, tmp_path, capsys, command):
        """An --out in a missing directory or naming a directory is refused
        with the writers' message, and no temporary file is left."""
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                     "--j0", "2", "--out", model_path]) == 0
        (tmp_path / "taken").mkdir()
        capsys.readouterr()
        for out in (str(tmp_path / "missing" / "x"), str(tmp_path / "taken")):
            args = {
                "simulate": ["simulate", "--out", out] + SIM_ARGS,
                "fit": ["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                        "--j0", "2", "--out", out],
                "cv": ["cv", "--data", train, "--method", "wnet", "--n-lambda", "2",
                       "--j0", "2", "--out", out],
                "predict": ["predict", "--model", model_path, "--data", test, "--out", out],
                "export-beta": ["export-beta", "--model", model_path, "--out", out],
            }[command]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith(f"wavelogit: error: cannot write {out}: ")
            assert list(tmp_path.rglob("*.tmp*")) == []

    def test_cv_checks_out_before_fitting(self, tmp_path, capsys, monkeypatch):
        train, _ = simulate(tmp_path)
        fits = []
        monkeypatch.setattr("wavelogit.select.fit_estimator", lambda *a, **k: fits.append(a))
        monkeypatch.setattr("wavelogit.cli.fit_estimator", lambda *a, **k: fits.append(a))
        out = str(tmp_path / "missing" / "m.json")
        args = ["cv", "--data", train, "--method", "wnet", "--j0", "2", "--out", out]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"wavelogit: error: cannot write {out}: ")
        assert fits == []

    def test_simulate_unwritable_test_out_leaves_no_file(self, tmp_path, capsys):
        train = tmp_path / "a.csv"
        test = tmp_path / "missing" / "b.csv"
        assert main(["simulate", "--out", str(train), "--test-out", str(test)] + SIM_ARGS) == 2
        assert capsys.readouterr().err.startswith(f"wavelogit: error: cannot write {test}: ")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command", ["simulate", "cv"])
    def test_closed_stdout_is_2_after_writing(self, tmp_path, command):
        """A reader that has gone away (``| head -0``) costs only the summary:
        the files are written, exit 2, and no traceback."""
        train, _ = simulate(tmp_path)
        out = tmp_path / "out"
        args = {
            "simulate": ["simulate", "--out", str(out)] + SIM_ARGS,
            "cv": ["cv", "--data", train, "--method", "wnet", "--n-lambda", "2",
                   "--j0", "2", "--out", str(out)],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "wavelogit", *args], stdout=write_end,
                stderr=subprocess.PIPE, env=CHILD_ENV, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (2, "")
        (load_dataset if command == "simulate" else load_model)(str(out))
