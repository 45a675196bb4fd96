"""Tests for the command-line driver: workflows and exit codes."""

import hashlib
import json
import os
from pathlib import Path
import stat
import subprocess
import sys
import warnings

import pytest

import wavelogit
from wavelogit import cli, penalized
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
        assert model.config.estimator == "wnet" and model.basis.d == 64

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
        assert load_model(model_path).config.estimator == "wnet"

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
        assert model.config.estimator == "wpcr" and model.config.q in (2, 4)

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

    @pytest.mark.parametrize(
        "args, digests",
        [
            (
                ["--n-per-class", "75", "--n-test-per-class", "25", "--seed", "0"],
                {
                    "train.csv": "4447ed212594d98a78ae3781cca5c1623adc14c5c120fcb267fc74e8ca64a86f",
                    "test.csv": "13a418bc12d2856267afdf3804ebed630b1221454f1145de7ce516882daa330e",
                },
            ),
            (
                # five blocks of 64 rows; class 1 starts mid-block, at row 150
                ["--n-per-class", "150", "--d", "1024", "--wavelet", "db8"],
                {"train.csv": "3d8349024e5796f98b4d7d72088bb35948ed6bde6862f600008c9c65ff6fbb8c"},
            ),
            (
                # five blocks of 64 rows; the splits end at rows 100 and 250 and
                # class 1 starts at row 150, each inside a block
                ["--n-per-class", "100", "--n-test-per-class", "50", "--d", "1024",
                 "--wavelet", "db8"],
                {
                    "train.csv": "e207eb7db2d670bc3d8243ec99ac6f603c14d538257829055fabc4f757c0200c",
                    "test.csv": "9f1af5bba23e30f2c8b05e7adb85ce3408b3dc410ec30fec405f7c0365967cc0",
                },
            ),
        ],
        ids=["readme-set", "multi-block", "multi-block-split"],
    )
    def test_simulate_bytes_are_pinned(self, tmp_path, capsys, args, digests):
        """The files of the whole-matrix generator, kept byte for byte by
        the block generator that replaced it."""
        paths = {name: tmp_path / name for name in digests}
        test_out = ["--test-out", str(paths["test.csv"])] if "test.csv" in paths else []
        assert main(["simulate", "--out", str(paths["train.csv"]), *test_out, *args]) == 0
        capsys.readouterr()
        written = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert written == digests


@pytest.fixture(scope="module")
def overflow_set(tmp_path_factory):
    """Finite curves (effects of 1e308) whose coefficients' squares overflow."""
    data = str(tmp_path_factory.mktemp("overflow") / "big.csv")
    assert main(["simulate", "--out", data, "--n-per-class", "20", "--d", "32", "--j0", "2",
                 "--support", "10", "--effects", "1e308", "--seed", "0"]) == 0
    return data


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

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_curve_that_overflows_is_2(self, tmp_path, capsys, command):
        """Row 1 holds 32 finite values of 1e308, which overflow the
        transform: predict wrote a NaN and evaluate printed an AUC, both
        exiting 0. Now both exit 2, and predict writes no file."""
        data, model, probs = (str(tmp_path / name) for name in ("d.csv", "m.json", "p.csv"))
        main(["simulate", "--out", data, "--n-per-class", "20", "--d", "32", "--j0", "2",
              "--support", "10", "--effects", "1.0"])
        assert main(["fit", "--data", data, "--method", "wnet", "--lambda", "0.5",
                     "--j0", "2", "--out", model]) == 0
        lines = Path(data).read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",1e308" * 32
        Path(data).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["--model", model, "--data", data] + (["--out", probs] if command == "predict" else [])
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "linear predictor is not finite" in captured.err
        assert not os.path.exists(probs)

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

    def test_gradient_that_overflows_is_3(self, tmp_path):
        """Finite curves with effects of 1e308 overflow the wnet gradient;
        the backtracking loop once doubled an infinite step bound forever,
        so the commands run in a child process under a time limit."""
        train = str(tmp_path / "big.csv")
        assert main(["simulate", "--out", train, "--n-per-class", "20", "--d", "32",
                     "--j0", "2", "--support", "10", "--effects", "1e308", "--seed", "0"]) == 0
        for flags in (["fit", "--lambda", "0.5"], ["cv", "--lambda-grid", "0.5,1"]):
            child = subprocess.run(
                [sys.executable, "-m", "wavelogit", *flags, "--data", train,
                 "--method", "wnet", "--j0", "2", "--out", str(tmp_path / "m.json")],
                env=CHILD_ENV, capture_output=True, text=True, timeout=60,
            )
            assert child.returncode == 3, child.stderr
            assert "wavelogit: numerical error:" in child.stderr
        assert not os.path.exists(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--method", "wnet", "--lambda", "0.5"],
            ["fit", "--method", "wcr", "--q", "2"],
            ["fit", "--method", "wls", "--q", "2"],
            ["fit", "--method", "wpcr", "--q", "2", "--lambda", "0.5"],
            ["fit", "--method", "wpls", "--q", "2", "--lambda", "0.5"],
            *(["cv", "--method", method] for method in penalized.ESTIMATORS),
            ["cv", "--method", "wpcr", "--select", "aicc"],
            ["cv", "--method", "wpls", "--select", "aicc"],
        ],
        ids=" ".join,
    )
    def test_coefficients_too_large_to_fit_are_3(self, tmp_path, capfd, overflow_set, argv):
        """The SVD failed with a traceback (exit 1), the tau grid was NaN
        (exit 2), and the other fits warned before exiting 3."""
        out = tmp_path / "m.json"
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--data", overflow_set, "--j0", "2", "--out", str(out)])
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("wavelogit: numerical error:") and err.count("\n") == 1
        assert not out.exists()

    def test_huge_j0_is_2(self, tmp_path, capsys):
        """A j0 of 2**62 once built a 2**62-bit integer to check it: a
        MemoryError traceback and exit 1, from the flag or a model file."""
        j0 = 2**62
        message = f"coarsest scale j0={j0} leaves no detail levels for d="
        assert main(["simulate", "--out", str(tmp_path / "x.csv"), "--j0", str(j0)]) == 2
        assert message + "256" in capsys.readouterr().err
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                     "--j0", "2", "--out", model_path]) == 0
        doc = json.loads(Path(model_path).read_text())
        doc["j0"] = j0
        Path(model_path).write_text(json.dumps(doc))
        capsys.readouterr()
        probs = tmp_path / "p.csv"
        assert main(["predict", "--model", model_path, "--data", test,
                     "--out", str(probs)]) == 2
        assert message + "64" in capsys.readouterr().err
        assert not probs.exists()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_curve_that_overflows_the_transform_prints_one_line(self, tmp_path, capsys, command):
        """A row of thirty-two 1e308 overflows the transform: numpy's
        warnings printed before the error; now the error is the only line."""
        data = tmp_path / "d.csv"
        rows = [f"{i % 2}," + ",".join(["1e308" if i == 0 else "0.5"] * 32) for i in range(6)]
        data.write_text("\n".join(["label," + ",".join(f"t{j}" for j in range(1, 33)), *rows]))
        method = ["--method", "wnet"] + (["--lambda", "0.5"] if command == "fit" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--data", str(data), *method, "--j0", "2",
                         "--out", str(tmp_path / "m.json")])
        assert (code, capsys.readouterr().err) == (
            2, "wavelogit: error: coefficients must be finite\n")

    @pytest.mark.parametrize("n_lambda", ["0", "-1"])
    def test_empty_lambda_grid_is_2(self, tmp_path, capsys, n_lambda):
        train, _ = simulate(tmp_path)
        out = str(tmp_path / "m.json")
        args = ["cv", "--data", train, "--method", "wnet", "--n-lambda", n_lambda,
                "--j0", "2", "--out", out]
        assert main(args) == 2
        assert "at least one point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts",
        # (--n-per-class, --n-test-per-class, whether --test-out is given)
        [("8", "-1", True), ("-1", "8", True), ("0", "8", True), ("8", "0", True),
         ("8", "-1", False)],
    )
    def test_bad_simulate_count_is_2(self, tmp_path, capsys, counts):
        """Refused before any file is written; a split needs a held-out curve."""
        test_out = ["--test-out", str(tmp_path / "b.csv")] if counts[2] else []
        args = ["simulate", "--out", str(tmp_path / "a.csv"), *test_out,
                "--n-per-class", counts[0], "--n-test-per-class", counts[1]]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "need --n-per-class >= 1 and --n-test-per-class >= " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("test_out", ["same.csv", "./same.csv", "link.csv"])
    def test_simulate_outputs_naming_one_file_is_2(self, tmp_path, monkeypatch, capsys, test_out):
        """Both outputs resolving to one file is refused before writing:
        the held-out curves would overwrite the training ones."""
        monkeypatch.chdir(tmp_path)
        os.symlink("same.csv", "link.csv")
        assert main(["simulate", "--out", "same.csv", "--test-out", test_out] + SIM_ARGS) == 2
        assert "--out and --test-out name the same file" in capsys.readouterr().err
        assert sorted(os.listdir()) == ["link.csv"] and not os.path.exists("same.csv")

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
        """An --out in a missing directory, naming a directory or naming a
        FIFO is refused with the writers' message, and no temporary file is
        left; the FIFO, which the writers' rename would replace with a
        regular file, stays a FIFO."""
        train, test = simulate(tmp_path)
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", train, "--method", "wnet", "--lambda", "1.0",
                     "--j0", "2", "--out", model_path]) == 0
        (tmp_path / "taken").mkdir()
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)
        capsys.readouterr()
        for out in (str(tmp_path / "missing" / "x"), str(tmp_path / "taken"), fifo):
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
            err = capsys.readouterr().err
            assert err.startswith(f"wavelogit: error: cannot write {out}: ")
            assert out != fifo or err.endswith(": not a regular file\n")
            assert list(tmp_path.rglob("*.tmp*")) == []
        if command == "simulate":
            assert main(["simulate", "--out", str(tmp_path / "s.csv"), "--test-out", fifo]
                        + SIM_ARGS) == 2
            assert capsys.readouterr().err == (
                f"wavelogit: error: cannot write {fifo}: not a regular file\n"
            )
            assert not (tmp_path / "s.csv").exists()
            assert list(tmp_path.rglob("*.tmp*")) == []
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.parametrize(
        "flags, parameter",
        [
            (["fit", "--method", "wls", "--q", "4", "--lambda", "5"], "lambda"),
            (["fit", "--method", "wnet", "--lambda", "1", "--q", "7"], "q"),
            (["fit", "--method", "wpcr", "--q", "4", "--lambda", "0.1", "--tau", "0.9"], "tau"),
            (["cv", "--method", "wcr", "--lambda-grid", "0,2.5"], "lambda"),
            (["cv", "--method", "wnet", "--n-lambda", "2", "--q-grid", "2"], "q"),
            (["cv", "--method", "wpls", "--n-lambda", "2", "--tau-grid", "0.1"], "tau"),
        ],
    )
    def test_ignored_parameter_is_2(self, tmp_path, capsys, flags, parameter):
        """A flag the method does not take used to be dropped or written into
        the model file; now it is refused before any file is written."""
        train, test = simulate(tmp_path)
        out = str(tmp_path / "m.json")
        capsys.readouterr()
        assert main(flags + ["--data", train, "--j0", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavelogit: error: ") and "takes no " in err
        assert f"got {parameter}=" in err
        assert sorted(tmp_path.iterdir()) == sorted(map(Path, (train, test)))

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


# What ``cv`` selects on the README training set, as its summary prints it.
# A change that moves a selection or rewords the summary on purpose updates
# these lines and says so.
README_SELECTIONS = [
    (
        ["--method", "wnet", "--n-lambda", "4"],
        "selected wnet: lambda=0.980962 (5-fold CV AUC = 0.814222 over 4 configurations, "
        "1 of 4 failed)",
    ),
    (
        # q=1 slices the reduction shared with q=4
        ["--method", "wpcr", "--select", "aicc", "--n-lambda", "3", "--q-grid", "1,4"],
        "selected wpcr: lambda=0.00211342, q=1 (AICc = 207.913 over 6 configurations)",
    ),
    (
        ["--method", "wpls", "--select", "aicc", "--n-lambda", "3", "--q-grid", "1,4"],
        "selected wpls: lambda=0.00211342, q=4 (AICc = 10.5241 over 6 configurations)",
    ),
    (
        ["--method", "wls", "--q-grid", "1,2"],
        "selected wls: q=2, tau=0.0575168 (5-fold CV AUC = 0.808 over 6 "
        "configurations, 1 of 6 failed)",
    ),
    (
        ["--method", "wcr", "--q-grid", "1,2"],
        "selected wcr: q=1, tau=0.0540869 (5-fold CV AUC = 0.656 over 6 "
        "configurations)",
    ),
]


def test_readme_set_selections_are_pinned(tmp_path, capsys):
    train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    assert main([
        "simulate", "--out", train, "--test-out", test,
        "--n-per-class", "75", "--n-test-per-class", "25", "--seed", "0",
    ]) == 0
    capsys.readouterr()
    model = str(tmp_path / "m.json")
    for args, summary in README_SELECTIONS:
        assert main(["cv", "--data", train, *args, "--out", model, "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == summary


@pytest.fixture(scope="module")
def readme_train(tmp_path_factory):
    """The README training set: 150 curves of d = 256."""
    folder = tmp_path_factory.mktemp("readme")
    train = str(folder / "train.csv")
    assert main([
        "simulate", "--out", train, "--test-out", str(folder / "test.csv"),
        "--n-per-class", "75", "--n-test-per-class", "25", "--seed", "0",
    ]) == 0
    return train


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize("method, kind", [("wcr", "sparse_pca"), ("wls", "sparse_pls")])
def test_tau_grid_fits_one_dense_reduction(tmp_path, monkeypatch, readme_train, method, kind):
    """The default tau grid of every q comes from one tau = 0 reduction of
    the full data, fit at the largest q (16), not one per q."""
    fits = []
    real_fit = penalized.sparse_component_fit

    def counting_fit(theta, labels, q, sparsity, kind):
        fits.append((theta.shape[0], q, sparsity, kind))
        return real_fit(theta, labels, q, sparsity, kind)

    def stop(data, grid, folds):
        raise _GridBuilt(grid)

    monkeypatch.setattr(penalized, "sparse_component_fit", counting_fit)
    monkeypatch.setattr(cli, "cross_validate", stop)
    args = ["cv", "--data", readme_train, "--method", method, "--out", str(tmp_path / "m.json")]
    with pytest.raises(_GridBuilt) as info:
        main(args)
    assert fits == [(150, 16, 0.0, kind)]
    grid = info.value.args[0]
    assert [config.q for config in grid] == [q for q in (1, 2, 4, 8, 16) for _ in range(3)]
    assert [config.tau > 0.0 for config in grid] == [False, True, True] * 5


@pytest.mark.parametrize("method", ["wcr", "wls"])
@pytest.mark.parametrize(
    "q_grid, message",
    [
        ("0", "estimator '{}' needs a component count q >= 1"),
        ("-3", "estimator '{}' needs a component count q >= 1"),
        ("4,0", "estimator '{}' needs a component count q >= 1"),
        ("150", "q=150 outside valid range [1, 149] for n=150, d=256"),
        ("16,500", "q=500 outside valid range [1, 149] for n=150, d=256"),
    ],
    ids=["zero", "negative", "zero-after-valid", "above-limit", "above-limit-after-valid"],
)
def test_invalid_q_grid_entry_is_2(tmp_path, capsys, readme_train, method, q_grid, message):
    """A q that the shared tau = 0 reduction cannot serve fails as a fit at
    that q alone would, without slicing an empty or wrapped-around block
    of loadings."""
    out = str(tmp_path / "m.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["cv", "--data", readme_train, "--method", method,
                     f"--q-grid={q_grid}", "--out", out])
    assert (code, capsys.readouterr().err) == (2, f"wavelogit: error: {message.format(method)}\n")
