"""Tests for scoring in row blocks: `predict`, `evaluate` and `predict_proba`.

The curve reader and `predict_proba` split the rows where `dwt_forward`
does, so a file scored block by block gets the bits of the whole array, and
each block's scores are one matrix-vector product whatever the BLAS thread
count.
"""

import json
import os
from pathlib import Path
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import wavelogit
from wavelogit import wavelet
from wavelogit.cli import main
from wavelogit.dataio import CurveDataset, load_dataset, save_dataset, save_model
from wavelogit.metrics import auc
from wavelogit.model import FittedModel
from wavelogit.penalized import FitConfig
from wavelogit.wavelet import dwt_inverse, make_basis

SOURCE_DIR = str(Path(wavelogit.__file__).resolve().parent.parent)


def child_env(blas_threads):
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE_DIR, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "OMP_NUM_THREADS": str(blas_threads),
    }


def random_model(d, family="db4"):
    """A model with a unit-norm coefficient vector and no intercept."""
    omega = np.random.default_rng(0).standard_normal(d)
    return FittedModel(
        config=FitConfig(estimator="wnet", lam=0.5),
        basis=make_basis(family, 3, d),
        intercept=0.0,
        omega=omega / np.linalg.norm(omega),
        kkt_residual=0.0,
        iterations=1,
    )


def random_curves(model, n):
    """Curves whose linear predictor under ``model`` is about -4 +- 1, a sum
    of terms of about +-10: another order of that sum changes the last bits
    of eta, and since p is about e^eta there, the bits of p."""
    rng = np.random.default_rng(1)
    noise = 100.0 * rng.standard_normal((n, model.basis.d))
    shift = rng.standard_normal(n) - 4.0 - noise @ model.omega
    theta = noise + np.outer(shift, model.omega)
    return CurveDataset(curves=dwt_inverse(theta, model.basis), labels=np.arange(n) % 2)


def write_pair(tmp_path, n, d, family="db4"):
    model, data = str(tmp_path / "model.json"), str(tmp_path / "data.csv")
    fitted = random_model(d, family)
    save_model(fitted, model)
    save_dataset(random_curves(fitted, n), data)
    return model, data


def read_probabilities(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "prob"
    return np.array([float(v) for v in lines[1:]])


def rows_per_block(d):
    return wavelet._BLOCK_VALUES // d


# every row count around the block boundaries, for d = 1024 (64 rows a block)
# and d = 16 (4096 rows a block)
BOUNDARY_CASES = [
    (d, n)
    for d in (1024, 16)
    for n in (rows_per_block(d) - 1, rows_per_block(d), rows_per_block(d) + 1,
              2 * rows_per_block(d) + 1)
]


class TestBlockBoundaries:
    @pytest.mark.parametrize("d, n", BOUNDARY_CASES)
    def test_predict_file_is_the_whole_array_scores(self, tmp_path, capsys, d, n):
        model, data = write_pair(tmp_path, n, d, family="db8")
        out = str(tmp_path / "probs.csv")
        assert main(["predict", "--model", model, "--data", data, "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}: {n} probabilities\n"
        whole = wavelogit.load_model(model).predict_proba(load_dataset(data).curves)
        assert whole.shape == (n,)
        assert np.array_equal(read_probabilities(out), whole)

    @pytest.mark.parametrize("d, n", BOUNDARY_CASES)
    def test_evaluate_prints_the_auc_of_the_whole_array(self, tmp_path, capsys, d, n):
        model, data = write_pair(tmp_path, n, d)
        assert main(["evaluate", "--model", model, "--data", data]) == 0
        dataset = load_dataset(data)
        area = auc(wavelogit.load_model(model).predict_proba(dataset.curves), dataset.labels)
        assert capsys.readouterr().out.splitlines()[0] == f"AUC {area:.3f}"

    def test_predict_proba_is_the_whole_array_product_in_one_blas_thread(self):
        """Block by block, ``predict_proba`` gives the bits of one product over
        the whole coefficient matrix, when that product runs in one thread."""
        script = textwrap.dedent("""\
            import json, sys
            import numpy as np
            from wavelogit.glm import link_logistic
            from wavelogit.wavelet import dwt_forward
            sys.path.insert(0, sys.argv[1])
            from test_scoring import BOUNDARY_CASES, random_curves, random_model
            differ = []
            for d, n in BOUNDARY_CASES:
                model = random_model(d)
                curves = random_curves(model, n).curves
                theta = dwt_forward(curves, model.basis)
                whole = link_logistic(theta @ model.omega + model.intercept)
                if not np.array_equal(model.predict_proba(curves), whole):
                    differ.append([d, n])
            print(json.dumps(differ))
        """)
        child = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent)],
            env=child_env(1), capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == []


def test_predict_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """A whole-matrix product split over BLAS threads sums some rows in
    another order; one block's product does not."""
    n, d = 5001, 256
    model, data = str(tmp_path / "model.json"), str(tmp_path / "data.csv")
    fitted = random_model(d)
    save_model(fitted, model)
    dataset = random_curves(fitted, n)
    table = np.column_stack([dataset.labels, dataset.curves])
    header = "label," + ",".join(f"t{j}" for j in range(1, d + 1))
    np.savetxt(data, table, fmt="%.4g", delimiter=",", header=header, comments="")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"probs{threads}.csv"
        child = subprocess.run(
            [sys.executable, "-m", "wavelogit", "predict", "--model", model, "--data", data,
             "--out", str(out)],
            env=child_env(threads), capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestStreamedErrors:
    D = 1024
    N = 2 * rows_per_block(D) + 1  # the last block holds the merged 1-row tail

    def write_rows(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        header = "label," + ",".join(f"t{j}" for j in range(1, self.D + 1))
        path.write_bytes(b"\n".join([header.encode(), *rows]) + b"\n")
        return str(path)

    def good_row(self, label=0):
        return f"{label}," + ",".join(["0.25"] * self.D)

    def test_bad_cell_in_the_last_block_names_its_line(self, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        save_model(random_model(self.D), model)
        rows = [self.good_row(i % 2).encode() for i in range(self.N - 1)]
        rows.append(("1,0.5,oops" + ",1" * (self.D - 2)).encode())
        data = self.write_rows(tmp_path, rows)
        out = tmp_path / "probs.csv"
        assert main(["predict", "--model", model, "--data", data, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{data}:{self.N + 1}: value 'oops' is not a number" in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "model.json"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bad_utf8_after_the_first_block_wins_over_a_bad_cell(
        self, tmp_path, capsys, command
    ):
        model = str(tmp_path / "model.json")
        save_model(random_model(self.D), model)
        rows = [self.good_row(i % 2).encode() for i in range(self.N)]
        rows[0] = ("0,oops" + ",1" * (self.D - 1)).encode()
        rows[rows_per_block(self.D) + 10] = b"1," + b"\xff" + b",1" * (self.D - 1)
        data = self.write_rows(tmp_path, rows)
        out = ["--out", str(tmp_path / "probs.csv")] if command == "predict" else []
        assert main([command, "--model", model, "--data", data, *out]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err
        assert "oops" not in err
        assert not (tmp_path / "probs.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_dimension_mismatch_is_refused_from_the_header(self, tmp_path, capsys, command):
        """The model's d is checked against the header before any row is
        parsed, so a bad row does not hide the mismatch."""
        model = str(tmp_path / "model.json")
        save_model(random_model(64), model)
        data = tmp_path / "data.csv"
        data.write_text("label," + ",".join(f"t{j}" for j in range(1, 33)) + "\n0,oops\n")
        out = ["--out", str(tmp_path / "probs.csv")] if command == "predict" else []
        assert main([command, "--model", model, "--data", str(data), *out]) == 2
        err = capsys.readouterr().err
        assert f"model {model} expects d=64, dataset {data} has d=32" in err
        assert "oops" not in err


class TestBoundedMemory:
    def test_predict_proba_temporaries_do_not_grow_with_the_batch(self):
        model = random_model(1024, family="db8")
        extra = []
        for n in (200, 2000):
            curves = random_curves(model, n).curves
            tracemalloc.start()
            try:
                probs = model.predict_proba(curves)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - probs.nbytes)
        # the whole batch's coefficients would add 16 MB
        assert extra[1] <= extra[0] + 2**17, extra

    def test_evaluate_holds_the_scores_not_the_curves(self, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        fitted = random_model(256)
        save_model(fitted, model)
        header = "label," + ",".join(f"t{j}" for j in range(1, 257))
        peaks = []
        for n in (300, 3000):
            dataset = random_curves(fitted, n)
            data = str(tmp_path / f"data{n}.csv")
            table = np.column_stack([dataset.labels, dataset.curves])
            np.savetxt(data, table, fmt="%.4g", delimiter=",", header=header, comments="")
            del dataset, table
            tracemalloc.start()
            try:
                assert main(["evaluate", "--model", model, "--data", data]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # labels and scores take 16 bytes a row; the curves would take 2048
        assert peaks[1] - peaks[0] <= 16 * 2700 + 2**17, peaks
