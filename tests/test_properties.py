"""Property tests: transform, AUC, soft-threshold, sparse reductions, line
reading, curve CSV rows, the reals of every written file, CV folds, model
files and malformed input.

Every test runs a fixed, derandomized set of examples with no example
database, so the suite stays deterministic.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavelogit import dataio
from wavelogit.dataio import (
    CurveDataset,
    export_beta,
    load_dataset,
    load_model,
    save_model,
    save_probabilities,
    time_grid,
    to_coefficients,
)
from wavelogit.exceptions import DataError, NumericalError, ParseError
from wavelogit.metrics import auc
from wavelogit.model import FittedModel, model_from_fit
from wavelogit.penalized import ESTIMATORS, FitConfig, build_reduction, fit_estimator
from wavelogit.reduce import pca_fit, soft_threshold, sparse_component_fit
from wavelogit.select import make_folds
from wavelogit.wavelet import FILTERS, dwt_forward, dwt_inverse, make_basis

from oracles import deal_folds

DATA_DIR = Path(__file__).parent / "data"
# every one-character boundary str.splitlines splits on ("\r\n" is the other)
BOUNDARY_CHARS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def fixed(max_examples):
    return settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def transform_cases(draw):
    family = draw(st.sampled_from(sorted(FILTERS)))
    levels = draw(st.integers(1, 7))
    j0 = draw(st.integers(0, levels - 1))
    rows = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    x = np.random.default_rng(seed).standard_normal((rows, 2**levels)) * scale
    return make_basis(family, j0, 2**levels), x


class TestTransformProperties:
    @fixed(150)
    @given(transform_cases())
    def test_round_trip_and_energy(self, case):
        basis, x = case
        theta = dwt_forward(x, basis)
        scale = np.max(np.abs(x))
        np.testing.assert_allclose(dwt_inverse(theta, basis), x, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            np.sum(theta * theta, axis=1), np.sum(x * x, axis=1), rtol=1e-12
        )


def pair_count_auc(scores, labels):
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (pos.size * neg.size)


@st.composite
def scored_labels(draw):
    n = draw(st.integers(2, 30))
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    labels[0], labels[1] = 0.0, 1.0
    # few distinct values, so most draws carry ties
    levels = draw(st.integers(1, 6))
    scores = np.array(
        draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)), dtype=float
    ) / levels
    return scores, labels


class TestAucProperties:
    @fixed(150)
    @given(scored_labels())
    def test_equals_pair_counting(self, case):
        scores, labels = case
        assert abs(auc(scores, labels) - pair_count_auc(scores, labels)) <= 1e-12


finite = st.floats(-1e6, 1e6, allow_nan=False)
thresholds = st.floats(0.0, 1e3, allow_nan=False)


class TestSoftThresholdProperties:
    @fixed(200)
    @given(st.lists(finite, min_size=1, max_size=20), thresholds, thresholds)
    def test_shrinkage_laws(self, values, a, b):
        x = np.array(values)
        out = soft_threshold(x, a)
        assert np.all((np.sign(out) == np.sign(x)) | (out == 0.0))
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out[np.abs(x) <= a] == 0.0)
        twice = soft_threshold(soft_threshold(x, a), b)
        once = soft_threshold(x, a + b)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-15 * max(1.0, np.max(np.abs(x))))


class TestSparseReductionProperties:
    @fixed(80)
    @given(
        st.sampled_from(["pca", "sparse_pls"]),
        st.integers(0, 2**32 - 1),
        st.integers(4, 30),
        st.integers(2, 24),
        st.floats(1e-3, 0.9),
        st.data(),
    )
    def test_leading_equals_fresh_fit(self, reduction, seed, n, d, tau, data):
        """Components are built in sequence, so the fit at q_max sliced to q
        is the fit at q bit for bit, and a fit that fails at q fails at q_max.
        Every fitted column has unit norm."""
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
        labels = (np.arange(n) % 2).astype(float)
        q_max = data.draw(st.integers(2, min(n - 1, d)))
        q = data.draw(st.integers(1, q_max - 1))

        def fit(components):
            try:
                if reduction == "pca":
                    return pca_fit(theta, components)
                return sparse_component_fit(theta, labels, components, tau)
            except (DataError, NumericalError) as exc:
                return type(exc)

        full, fresh = fit(q_max), fit(q)
        if isinstance(fresh, type):
            assert full is fresh
        elif isinstance(full, type):
            return
        else:
            for loadings in (full, fresh):
                assert np.max(np.abs(np.linalg.norm(loadings, axis=0) - 1.0)) <= 1e-10
            sliced = np.ascontiguousarray(full[:, :q])
            assert np.array_equal(sliced, fresh)
            assert sliced.flags.c_contiguous == fresh.flags.c_contiguous


def small_dataset(seed, n=40, d=16):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 2).astype(float)
    curves = rng.standard_normal((n, d)) + 0.3 * np.outer(labels, rng.standard_normal(d))
    return CurveDataset(curves=curves, labels=labels)


def as_version_1(path, data, reduction):
    """Rewrite a saved model in format version 1, which also held a reduced
    fit's training column means and loadings."""
    doc = json.loads(Path(path).read_text())
    doc["format_version"] = 1
    center = data.theta.mean(axis=0)
    doc["center"] = None if reduction is None else [format(v, ".17g") for v in center]
    doc["loadings"] = (
        None if reduction is None else [format(v, ".17g") for v in reduction.ravel()]
    )
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class TestModelFileProperties:
    @fixed(25)
    @given(
        st.sampled_from(ESTIMATORS),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.01, 0.1, 1.0]),
    )
    def test_save_load_predictions_bit_exact(self, tmp_path_factory, estimator, seed, lam):
        dataset = small_dataset(seed)
        basis = make_basis("db4", 2, 16)
        data = to_coefficients(dataset, basis)
        config = FitConfig(
            estimator=estimator,
            lam=0.0 if estimator in ("wcr", "wls") else lam,  # unpenalized: no lambda
            q=None if estimator == "wnet" else 2,
        )
        model = model_from_fit(fit_estimator(data, config), config, basis)
        before = model.predict_proba(dataset.curves)
        path = tmp_path_factory.mktemp("model") / "m.json"
        save_model(model, str(path))
        assert np.array_equal(load_model(str(path)).predict_proba(dataset.curves), before)
        as_version_1(path, data, build_reduction(data, config))
        assert np.array_equal(load_model(str(path)).predict_proba(dataset.curves), before)

    def test_version_1_file_predicts_as_written(self):
        """A reduced model saved in format version 1, with its probabilities."""
        i, j = np.meshgrid(np.arange(24), np.arange(16), indexing="ij")
        labels = (np.arange(24) % 2).astype(float)
        curves = ((i * 7 + j * 3) % 11 - 5) / 4.0 + np.outer(labels, j[0] % 5 == 2) * 0.75
        model = load_model(str(DATA_DIR / "model_v1_wpls.json"))
        probs_csv = (DATA_DIR / "model_v1_wpls_probs.csv").read_text()
        expected = [float(v) for v in probs_csv.split()[1:]]
        assert model.config.estimator == "wpls" and model.config.q == 2
        assert np.array_equal(model.predict_proba(curves), np.array(expected))


# malformed input -------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def valid_model_doc():
    omega = [format(v, ".17g") for v in np.linspace(-1.0, 1.0, 8)]
    return {
        "format_version": 2, "estimator": "wpcr", "family": "haar", "j0": 1, "d": 8,
        "lambda": "0.5", "q": 2, "tau": "0", "intercept": "0.25", "omega": omega,
        "kkt_residual": "1e-07", "iterations": 12,
    }


# values that are well-formed JSON but out of range or of the wrong kind for
# some field; json_values alone rarely produces them
field_values = json_values | st.sampled_from(
    ["nan", "inf", "-inf", "-3", "1e999", "x", [1], -4, 0, 2.5, True, None, "wnet", "wcr"]
)


@st.composite
def mutated_model_docs(draw):
    doc = valid_model_doc()
    for key in draw(st.lists(st.sampled_from(sorted(doc) + ["center", "loadings"]), max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(field_values)
    return doc


def csv_like_text():
    cell = st.sampled_from(["0", "1", "2", "-1.5", "1e308", "1e999", "nan", "x", "", " 3 "])
    row = st.lists(cell, min_size=0, max_size=9).map(",".join)
    header = st.sampled_from(["label,t1,t2", "label,t1,t2,t3,t4", "lbl,t1,t2", "label", ""])
    return st.builds(
        lambda h, rows, newline: newline.join([h] + rows),
        header,
        st.lists(row, max_size=5),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )


class TestLineRead:
    @fixed(100)
    @given(st.text(st.sampled_from("ab," + BOUNDARY_CHARS), max_size=40))
    def test_lines_equal_splitlines_of_the_whole_text(self, tmp_path_factory, text):
        """The reader yields what splitlines gives for the whole text, though
        the file hands it lines split at "\n" after universal-newline reading."""
        path = tmp_path_factory.mktemp("text") / "data.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as fh:
            assert list(dataio._text_lines(fh)) == text.splitlines()

    @pytest.mark.parametrize("offset", [8191, 8192, 8193, 65535, 65536, 65537])
    def test_boundaries_across_buffer_offsets(self, tmp_path, offset):
        """Every boundary, "\r\n" included, starting at a byte offset next to
        a read buffer's edge, after two-byte padding so that byte and
        character offsets differ."""
        pad = "é" * (offset // 2 - 1) + "a" * (offset % 2) + "b,"
        assert len(pad.encode()) == offset
        for boundary in ["\r\n", *BOUNDARY_CHARS]:
            text = pad + boundary + "c" + boundary + boundary + "é,d"
            path = tmp_path / "data.csv"
            path.write_bytes(text.encode())
            with open(path, encoding="utf-8") as fh:
                assert list(dataio._text_lines(fh)) == text.splitlines(), repr(boundary)


# curve CSV rows --------------------------------------------------------------

# signed zero, the smallest subnormal, both sides of the normal range, where
# 17 digits first show an integer's rounding, and the largest double
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-300, 0.1, -0.1, 1e16, 1e22, 9.999999999999999e22, 1e300, 1.7976931348623157e308,
]
curve_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
# cells float() refuses, accepts as non-finite, or accepts though a stricter
# parser would not; two 1e308 cells overflow a row's sum
odd_cells = ["nan", "inf", "-inf", "1e309", "abc", "", " 1.5", "1_0", "0x10", "1e308", "-0"]


def per_cell_line(label, row):
    """A curve CSV row as one format() call per cell writes it."""
    return f"{int(label)}," + ",".join(format(float(v), ".17g") for v in row)


def per_cell_parse(path, line_no, raw, d):
    """A curve CSV row as one float() call per cell parses it, label first."""
    cells = raw.split(",")
    if len(cells) != d + 1:
        raise ParseError(path, line_no, f"expected {d + 1} values, found {len(cells)}")
    values = []
    for what, text in [("label", cells[0])] + [("value", c) for c in cells[1:]]:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(path, line_no, f"{what} {text!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(path, line_no, f"{what} {text!r} is not finite")
        if what == "label" and value not in (0.0, 1.0):
            raise ParseError(path, line_no, f"label must be 0 or 1, got {text!r}")
        values.append(value)
    return values[0], values[1:]


class TestCsvRows:
    @fixed(300)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_writer_equals_per_cell_format(self, log_d, n, data):
        d = 2**log_d
        values = data.draw(st.lists(curve_values, min_size=n * d, max_size=n * d))
        labels = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n))
        dataset = CurveDataset(np.array(values).reshape(n, d), labels)
        lines = list(dataio._dataset_lines(dataset, (slice(None),)))
        assert lines[1:] == [per_cell_line(a, row) for a, row in zip(labels, dataset.curves)]

    def test_writer_edge_values(self):
        row = EDGE_VALUES + [-1e22]  # 16 values
        dataset = CurveDataset(np.array([row]), [1.0])
        line = list(dataio._dataset_lines(dataset, (slice(None),)))[1]
        assert line == per_cell_line(1.0, row)
        assert [float(c).hex() for c in line.split(",")[1:]] == [v.hex() for v in row]

    @fixed(500)
    @given(
        st.sampled_from(["0", "1", "-0", "1.0", "2"]),
        st.lists(st.sampled_from(odd_cells) | curve_values.map(repr), min_size=1, max_size=8),
        st.sampled_from([0, 0, 0, -1, 1]),
    )
    @example("1", ["1e308", "1e308"], 0)
    @example("0", ["-1e308", "1e308", "-1e308", "-1e308"], 0)
    @example("2", ["1e308", "1e308", "abc"], 0)
    @example("-0", ["1e308", "1e308", "nan"], 0)
    def test_reader_equals_per_cell_parse(self, label, cells, width_error):
        """The same values, bit for bit, or the same ParseError: line and
        message, found in the same order."""
        raw = ",".join([label, *cells])
        d = len(cells) + width_error
        try:
            expected = per_cell_parse("f.csv", 7, raw, d)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                dataio._parse_row("f.csv", 7, raw, d)
            assert (info.value.line, str(info.value)) == (exc.line, str(exc))
            return
        got = dataio._parse_row("f.csv", 7, raw, d)
        assert [v.hex() for v in [got[0], *got[1]]] == [v.hex() for v in [expected[0], *expected[1]]]


def per_value(x) -> str:
    """A real as one format() call writes it."""
    return format(float(x), ".17g")


class TestRealFields:
    """Model, beta and probability files write each real as one format()
    call per value would, byte for byte."""

    # signed zero, the smallest subnormal, a short decimal, where 17 digits
    # first show an integer's rounding, and the largest double
    REALS = [-0.0, 5e-324, 0.1, 1e16, 1e22, 1.7976931348623157e308]

    def model(self, omega):
        return FittedModel(
            config=FitConfig(estimator="wls", q=2, tau=np.float32(0.1)),
            basis=make_basis("db4", 2, 16),
            intercept=1e22,
            omega=omega,
            kkt_residual=5e-324,
            iterations=3,
        )

    def test_model_file(self, tmp_path):
        omega = np.array(self.REALS + EDGE_VALUES[:10])
        path = tmp_path / "m.json"
        save_model(self.model(omega), str(path))
        doc = {
            "d": 16, "estimator": "wls", "family": "db4", "format_version": 2,
            "intercept": per_value(1e22), "iterations": 3, "j0": 2,
            "kkt_residual": per_value(5e-324), "lambda": per_value(0.0),
            "omega": [per_value(v) for v in omega], "q": 2,
            "tau": per_value(np.float32(0.1)),
        }
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert doc["tau"] == "0.10000000149011612"

    def test_beta_file(self, tmp_path):
        # small enough that the inverse transform stays finite
        omega = np.array(self.REALS[:-1] + EDGE_VALUES[:11])
        model = self.model(omega)
        path = tmp_path / "beta.csv"
        export_beta(model, str(path))
        rows = [f"{per_value(t)},{per_value(b)}" for t, b in zip(time_grid(16), model.beta())]
        assert path.read_text() == "\n".join(["t,beta", *rows]) + "\n"

    def test_probability_file(self, tmp_path):
        probs = np.array(self.REALS + [np.float32(0.1)])
        path = tmp_path / "p.csv"
        save_probabilities(probs, str(path))
        assert path.read_text() == "\n".join(["prob", *map(per_value, probs)]) + "\n"


class TestFoldDealing:
    @fixed(300)
    @given(st.integers(2, 11), st.data())
    def test_formula_equals_per_member_search(self, k, data):
        sizes = data.draw(st.tuples(st.integers(k, 60), st.integers(k, 60)))
        labels = data.draw(st.permutations([0.0] * sizes[0] + [1.0] * sizes[1]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        np.testing.assert_array_equal(
            make_folds(labels, k, seed).assignments, deal_folds(labels, k, seed)
        )


class TestMalformedFiles:
    @fixed(200)
    @given(st.one_of(st.binary(max_size=200), csv_like_text().map(str.encode)))
    def test_dataset_loads_or_raises_data_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(raw)
        try:
            dataset = load_dataset(str(path))
        except DataError:
            return
        assert isinstance(dataset, CurveDataset)

    @fixed(200)
    @given(
        st.one_of(
            mutated_model_docs().map(lambda doc: json.dumps(doc).encode()),
            json_values.map(lambda value: json.dumps(value).encode()),
            st.binary(max_size=200),
            st.builds(lambda doc, junk: json.dumps(doc).encode() + junk,
                      mutated_model_docs(), st.binary(min_size=1, max_size=4)),
        )
    )
    def test_model_loads_and_predicts_or_raises_data_error(self, tmp_path_factory, raw):
        """A file either loads as a valid model, which saves back to the same
        model, or fails with DataError."""
        path = tmp_path_factory.mktemp("model") / "m.json"
        path.write_bytes(raw)
        try:
            model = load_model(str(path))
        except DataError:
            return
        assert isinstance(model, FittedModel)
        assert isinstance(model.config, FitConfig)
        assert model.config.q is None or type(model.config.q) is int
        assert type(model.iterations) is int and model.iterations >= 0
        assert np.isfinite(model.kkt_residual) and model.kkt_residual >= 0
        curves = np.linspace(-1.0, 1.0, 3 * model.basis.d).reshape(3, model.basis.d)
        with np.errstate(over="ignore", invalid="ignore"):
            assert model.predict_proba(curves).shape == (3,)
        save_model(model, str(path))
        again = load_model(str(path))
        assert np.array_equal(again.omega, model.omega)
        assert again.config == model.config and again.iterations == model.iterations
        assert (again.intercept, again.kkt_residual) == (model.intercept, model.kkt_residual)
