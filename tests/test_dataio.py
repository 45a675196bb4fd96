"""Tests for CSV ingestion, model persistence, and exports."""

import gc
import json
import os
import stat
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavelogit.cli import main
from wavelogit.dataio import (
    CurveDataset,
    _dataset_blocks,
    export_beta,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    save_probabilities,
    time_grid,
    to_coefficients,
)
from wavelogit.exceptions import (
    DataError,
    DimensionError,
    ModelFileError,
    ParseError,
)
from wavelogit.glm import link_logistic
from wavelogit.model import FittedModel, model_from_fit
from wavelogit.penalized import FitConfig, fit_estimator
from wavelogit.simulate import SynthSpec, generate_dataset
from wavelogit.wavelet import FILTERS, dwt_forward, dwt_inverse, make_basis

# every boundary str.splitlines splits on, "\r\n" counting as one
LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def tiny_dataset(rng=None, n=12, d=16):
    rng = rng or np.random.default_rng(0)
    curves = rng.standard_normal((n, d))
    labels = (np.arange(n) % 2).astype(float)
    return CurveDataset(curves=curves, labels=labels)


def fitted_model(estimator="wnet", q=None, tau=0.0, d=16, j0=2, n=40, family="db4"):
    rng = np.random.default_rng(1)
    dataset = tiny_dataset(rng, n=n, d=d)
    basis = make_basis(family, j0, d)
    data = to_coefficients(dataset, basis)
    # wcr/wls are unpenalized and take no lambda
    lam = 0.0 if estimator in ("wcr", "wls") else 0.1
    config = FitConfig(estimator=estimator, lam=lam, q=q, tau=tau)
    return model_from_fit(fit_estimator(data, config), config, basis), dataset


class TestCurveDataset:
    def test_validation(self):
        with pytest.raises(DataError):
            CurveDataset(curves=np.zeros((3, 12)), labels=np.zeros(3))  # d not 2^k
        with pytest.raises(DataError):
            CurveDataset(curves=np.zeros((3, 8)), labels=np.array([0.0, 2.0, 1.0]))
        with pytest.raises(DimensionError):
            CurveDataset(curves=np.zeros((3, 8)), labels=np.zeros(4))
        bad = np.zeros((3, 8))
        bad[1, 2] = np.nan
        with pytest.raises(DataError):
            CurveDataset(curves=bad, labels=np.zeros(3))

    @pytest.mark.parametrize("row, value", [(0, np.inf), (100, np.nan), (128, -np.inf)])
    def test_non_finite_value_in_any_block_is_refused(self, row, value):
        # 64 rows a block at d = 1024; row 128 is the tail joined to the second
        curves = np.zeros((129, 1024))
        curves[row, 5] = value
        with pytest.raises(DataError, match="^curve values must be finite$"):
            CurveDataset(curves=curves, labels=np.zeros(129))

    def test_to_coefficients_matches_transform(self):
        dataset = tiny_dataset()
        basis = make_basis("db4", 2, 16)
        data = to_coefficients(dataset, basis)
        np.testing.assert_array_equal(data.theta, dwt_forward(dataset.curves, basis))
        np.testing.assert_array_equal(data.labels, dataset.labels)
        with pytest.raises(DimensionError):
            to_coefficients(dataset, make_basis("db4", 2, 32))


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path):
        dataset = tiny_dataset()
        path = str(tmp_path / "data.csv")
        save_dataset(dataset, path)
        back = load_dataset(path)
        assert np.array_equal(back.curves, dataset.curves)
        assert np.array_equal(back.labels, dataset.labels)

    def test_rows_writes_the_slices_in_order(self, tmp_path):
        """``rows`` writes the file a copy of those rows would write."""
        dataset = tiny_dataset(n=10)
        picked = np.r_[6:9, 0:2]
        copy = CurveDataset(curves=dataset.curves[picked], labels=dataset.labels[picked])
        sliced, copied = tmp_path / "sliced.csv", tmp_path / "copied.csv"
        save_dataset(dataset, str(sliced), (slice(6, 9), slice(0, 2), slice(4, 4)))
        save_dataset(copy, str(copied))
        assert sliced.read_bytes() == copied.read_bytes()
        whole = tmp_path / "whole.csv"
        save_dataset(dataset, str(whole))
        save_dataset(dataset, str(sliced), (slice(0, 3), slice(3, None)))
        assert sliced.read_bytes() == whole.read_bytes()

    def test_fifo_target_is_refused_and_kept(self, tmp_path):
        """Renaming the temporary file over a FIFO would replace it with a
        regular file, so the writer refuses an existing path that is neither
        a regular file nor a directory."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(DataError, match=f"^cannot write {fifo}: not a regular file$"):
            save_dataset(tiny_dataset(), str(fifo))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_generated_dataset_round_trip(self, tmp_path):
        spec = SynthSpec(
            n_per_class=10,
            basis=make_basis("db4", 2, 32),
            true_support=(10, 20),
            effect_sizes=(0.7, 0.5),
            seed=5,
        )
        dataset = generate_dataset(spec)
        path = str(tmp_path / "gen.csv")
        save_dataset(dataset, path)
        back = load_dataset(path)
        assert np.array_equal(back.curves, dataset.curves)

    def test_emits_lf_only(self, tmp_path):
        path = str(tmp_path / "lf.csv")
        save_dataset(tiny_dataset(), path)
        raw = Path(path).read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_accepts_crlf(self, tmp_path):
        path = str(tmp_path / "crlf.csv")
        save_dataset(tiny_dataset(n=4), path)
        text = Path(path).read_text()
        with open(path, "w", newline="") as fh:
            fh.write(text.replace("\n", "\r\n"))
        back = load_dataset(path)
        assert back.n == 4

    def test_ragged_row_names_line(self, tmp_path):
        path = str(tmp_path / "ragged.csv")
        lines = ["label,t1,t2,t3,t4", "0,1,2,3,4", "1,1,2,3,4,5", "0,1,2,3,4"]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert info.value.line == 3
        assert "3" in str(info.value)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = str(tmp_path / "cell.csv")
        with open(path, "w") as fh:
            fh.write("label,t1,t2,t3,t4\n0,1,2,3,4\n1,1,oops,3,4\n")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert info.value.line == 3

    def test_bad_label_rejected(self, tmp_path):
        path = str(tmp_path / "lab.csv")
        with open(path, "w") as fh:
            fh.write("label,t1,t2,t3,t4\n2,1,2,3,4\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_nan_value_rejected(self, tmp_path):
        path = str(tmp_path / "nan.csv")
        with open(path, "w") as fh:
            fh.write("label,t1,t2,t3,t4\n0,1,nan,3,4\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_non_power_of_two_rejected(self, tmp_path):
        path = str(tmp_path / "d3.csv")
        with open(path, "w") as fh:
            fh.write("label,t1,t2,t3\n0,1,2,3\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_empty_and_header_only(self, tmp_path):
        empty = str(tmp_path / "empty.csv")
        open(empty, "w").close()
        with pytest.raises(ParseError):
            load_dataset(empty)
        header = str(tmp_path / "header.csv")
        with open(header, "w") as fh:
            fh.write("label,t1,t2,t3,t4\n")
        with pytest.raises(ParseError):
            load_dataset(header)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("label,t1,t2,t3,t4\n", 2),
            ("label,t1,t2,t3,t4", 2),
            ("label,t1,t2,t3,t4\n\n\r\n\x0c", 2),
        ],
    )
    def test_files_without_rows_name_their_line(self, tmp_path, text, line):
        path = tmp_path / "short.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            load_dataset(str(path))
        assert info.value.line == line

    def test_peak_memory_is_the_curves(self, tmp_path):
        """The reader holds one copy of the curves and a line of text, never
        the whole text or its list of lines."""
        path = str(tmp_path / "big.csv")
        save_dataset(tiny_dataset(n=400, d=1024), path)
        tracemalloc.start()
        try:
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= back.curves.nbytes + 2**20, peak - back.curves.nbytes

    def test_writer_holds_one_row(self, tmp_path):
        """The writer converts one row at a time to Python floats; a slice's
        or a block's .tolist() would hold 2 to 12.5 MiB of them here."""
        dataset = tiny_dataset(n=400, d=1024)
        tracemalloc.start()
        try:
            save_dataset(dataset, str(tmp_path / "big.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_rows_gained_after_the_count_are_not_read(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(tiny_dataset(n=6), str(path))
        d, n, blocks = _dataset_blocks(str(path))
        with open(path, "a") as fh:
            fh.write("1," + ",".join(["9"] * d) + "\n")
        labels, curves = np.empty(n), np.empty((n, d))
        for rows, block_labels, block in blocks:
            labels[rows], curves[rows] = block_labels, block
        assert (d, n) == (16, 6)
        np.testing.assert_array_equal(curves, tiny_dataset(n=6).curves)

    def test_rows_lost_after_the_count_are_an_error(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(tiny_dataset(n=6), str(path))
        _, _, blocks = _dataset_blocks(str(path))
        path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
        with pytest.raises(DataError, match="lost rows while it was read"):
            list(blocks)

    @pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
    def test_every_splitlines_boundary_ends_a_row(self, tmp_path, boundary):
        """Rows end wherever str.splitlines splits; blank lines are skipped and
        the last row needs no terminator."""
        path = tmp_path / "rows.csv"
        path.write_bytes(boundary.join(["label,t1,t2", "0,1,2", "", "1,3,4"]).encode())
        back = load_dataset(str(path))
        np.testing.assert_array_equal(back.curves, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(back.labels, [0.0, 1.0])

    @pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
    def test_boundary_inside_a_row_names_its_line(self, tmp_path, boundary):
        path = tmp_path / "split.csv"
        path.write_bytes(("label,t1,t2\n0,1,2\n\n1,3" + boundary + "4\n").encode())
        with pytest.raises(ParseError) as info:
            load_dataset(str(path))
        assert info.value.line == 4
        assert "expected 3 values, found 2" in str(info.value)

    def test_bad_utf8_after_a_bad_cell_is_reported_first(self, tmp_path):
        """The whole file is decoded before any row is parsed, however far
        past the first bad cell the undecodable byte lies."""
        rows = "\n".join("0," + ",".join(["1.5"] * 1024) for _ in range(40))
        path = tmp_path / "mixed.csv"
        text = "label," + ",".join(f"t{j}" for j in range(1, 1025)) + "\n0,oops" + ",1" * 1023
        path.write_bytes((text + "\n" + rows + "\n").encode() + b"\xff\n")
        with pytest.raises(DataError) as info:
            load_dataset(str(path))
        assert not isinstance(info.value, ParseError)
        assert "not UTF-8 text" in str(info.value)

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"lbl,t1,t2\n0,1,2\n",
            b"label,t1,t2\n0,1,2\n1,x,3\n",
            b"label,t1,t2\n0,1,2\n\xff\n",
        ],
        ids=["empty", "bad-header", "bad-cell", "not-utf8"],
    )
    def test_no_file_left_open_after_an_error(self, tmp_path, monkeypatch, raw):
        """The file is closed when load_dataset raises, not when the error's
        traceback is collected: no ResourceWarning reaches the hook."""
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError):
                load_dataset(str(path))
            gc.collect()
        assert [u.exc_type for u in unraisable] == []


class TestModelFile:
    def test_round_trip_predictions_bit_exact(self, tmp_path):
        """For every family, the fitted and the reloaded model both score a
        curve as the link of its coefficients in the fit's own basis."""
        for family in sorted(FILTERS):
            for estimator, q in (("wnet", None), ("wpcr", 3), ("wls", 2)):
                model, dataset = fitted_model(estimator=estimator, q=q, family=family)
                path = str(tmp_path / f"{family}-{estimator}.json")
                save_model(model, path)
                back = load_model(path)
                assert back.basis == model.basis
                theta = to_coefficients(dataset, make_basis(family, 2, 16)).theta
                expected = link_logistic(theta @ model.omega + model.intercept)
                assert np.array_equal(model.predict_proba(dataset.curves), expected)
                assert np.array_equal(back.predict_proba(dataset.curves), expected)

    def test_round_trip_reduced_model_exact(self, tmp_path):
        model, _ = fitted_model(estimator="wpls", q=4)
        path = str(tmp_path / "m.json")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.omega, model.omega)
        assert back.intercept == model.intercept and back.config == model.config
        assert back.config.q == 4 and back.config.estimator == "wpls"
        assert "loadings" not in json.loads(Path(path).read_text())

    def test_unknown_version_refused(self, tmp_path):
        model, _ = fitted_model()
        path = str(tmp_path / "m.json")
        save_model(model, path)
        doc = json.loads(Path(path).read_text())
        doc["format_version"] = 3
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ModelFileError) as info:
            load_model(path)
        assert "3" in str(info.value)

    def test_corrupted_field_refused(self, tmp_path):
        model, _ = fitted_model()
        path = str(tmp_path / "m.json")
        save_model(model, path)
        doc = json.loads(Path(path).read_text())
        doc["omega"][3] = "oops"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_missing_field_refused(self, tmp_path):
        model, _ = fitted_model()
        path = str(tmp_path / "m.json")
        save_model(model, path)
        doc = json.loads(Path(path).read_text())
        del doc["intercept"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_ignored_parameter_refused(self, tmp_path, capsys):
        """A wcr model that records a nonzero lambda does not load, nor does
        one that records a loading threshold, as earlier builds of sparse
        PCA wrote; predict on it exits 2 and writes nothing."""
        model, dataset = fitted_model(estimator="wcr", q=2)
        path, data_path = str(tmp_path / "m.json"), str(tmp_path / "d.csv")
        out = tmp_path / "p.csv"
        save_dataset(dataset, data_path)
        for field, value in (("lambda", "0.5"), ("tau", "0.05")):
            save_model(model, path)
            doc = json.loads(Path(path).read_text())
            assert doc["format_version"] == 2 and doc[field] == "0"
            doc[field] = value
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with pytest.raises(ModelFileError, match=f"takes no {field}, got {field}={value}"):
                load_model(path)
            capsys.readouterr()
            assert main(["predict", "--model", path, "--data", data_path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("wavelogit: error: ") and f"takes no {field}" in err
            assert not out.exists()

    def test_not_json_refused(self, tmp_path):
        path = str(tmp_path / "m.json")
        # nesting deeper than the decoder's recursion limit
        for text in ("not a model", "[" * 100_000 + "]" * 100_000):
            with open(path, "w") as fh:
                fh.write(text)
            with pytest.raises(ModelFileError):
                load_model(path)


class TestExports:
    def make_model(self, omega, d=16, j0=2):
        return FittedModel(
            config=FitConfig(estimator="wnet", lam=0.5),
            basis=make_basis("db4", j0, d),
            intercept=0.0,
            omega=omega,
            kkt_residual=0.0,
            iterations=1,
        )

    def test_time_grid_midpoints(self):
        grid = time_grid(4)
        np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875])

    def test_zero_model_exports_zero_column(self, tmp_path):
        path = str(tmp_path / "beta.csv")
        export_beta(self.make_model(np.zeros(16)), path)
        rows = Path(path).read_text().splitlines()
        assert rows[0] == "t,beta"
        assert len(rows) == 17
        assert all(row.split(",")[1] == "0" for row in rows[1:])

    def test_single_atom_export(self, tmp_path):
        omega = np.zeros(16)
        omega[9] = 1.25
        path = str(tmp_path / "atom.csv")
        export_beta(self.make_model(omega), path)
        rows = Path(path).read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        expected = dwt_inverse(omega, make_basis("db4", 2, 16))
        assert np.array_equal(values, expected)
        times = np.array([float(r.split(",")[0]) for r in rows])
        np.testing.assert_allclose(times, (np.arange(16) + 0.5) / 16)

    def test_probabilities_round_trip(self, tmp_path):
        probs = np.random.default_rng(2).random(9)
        path = str(tmp_path / "p.csv")
        save_probabilities(probs, path)
        rows = Path(path).read_text().splitlines()
        assert rows[0] == "prob"
        assert np.array_equal(np.array([float(r) for r in rows[1:]]), probs)
