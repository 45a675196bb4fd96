"""CSV curve data, model persistence, and discriminant-function export.

All numeric output is written with 17 significant digits so that every file
the package emits re-ingests bit-exactly. Writes go to a temporary file in
the destination directory followed by an atomic rename.

A curve CSV has one format, written and parsed a row at a time: one
``%.17g`` template formats a row, and one ``map(float)`` parses it. Only a
row that parse refuses takes a second, per-cell parse, whose one job is to
name the line and the first bad cell.
"""

from __future__ import annotations

import errno
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exceptions import DataError, DimensionError, ModelFileError, ParseError
from .glm import LabeledCoefficients
from .model import FittedModel
from .penalized import FitConfig
from .wavelet import WaveletBasis, _block_bounds, _is_power_of_two, dwt_forward

# version 1 files also hold a reduced fit's "center" and "loadings"; loading
# still reads them and ignores those two keys
MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class CurveDataset:
    """Sampled curves (one per row) with binary class labels."""

    curves: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        curves = np.ascontiguousarray(np.asarray(self.curves, dtype=float))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=float))
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "labels", labels)
        if curves.ndim != 2 or curves.shape[0] < 1:
            raise DimensionError("curves must be a non-empty 2-D array")
        if not _is_power_of_two(curves.shape[1]):
            raise DataError(f"curve length must be a power of two >= 2, got {curves.shape[1]}")
        if labels.shape != (curves.shape[0],):
            raise DimensionError("labels must have one entry per curve")
        # a block at a time, so the check holds no n x d temporary
        if not all(np.isfinite(curves[a:b]).all() for a, b in _block_bounds(*curves.shape)):
            raise DataError("curve values must be finite")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.curves.shape[0]

    @property
    def d(self) -> int:
        return self.curves.shape[1]


def to_coefficients(dataset: CurveDataset, basis: WaveletBasis) -> LabeledCoefficients:
    """Wavelet-transform every curve; the fitting modules work on the result."""
    # finite curves can overflow the transform; LabeledCoefficients refuses
    # the result with a DataError, so numpy's warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        theta = dwt_forward(dataset.curves, basis)
    return LabeledCoefficients(theta, dataset.labels, basis)


def _fmt(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same double."""
    return format(float(x), ".17g")


def _refuse_special(path: str):
    """The rename would replace a FIFO, device or socket at ``path``: refuse it."""
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise DataError(f"cannot write {path}: not a regular file")


def _atomic_write(path: str, lines):
    """Write each of ``lines`` followed by a newline, then rename into place."""
    _refuse_special(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise DataError(f"cannot write {path}: {exc}") from exc


def check_writable(path: str):
    """Raise the DataError that writing ``path`` would raise, writing nothing."""
    _refuse_special(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        open(tmp, "w").close()
        os.remove(tmp)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _dataset_lines(dataset: CurveDataset, rows):
    yield "label," + ",".join(f"t{j}" for j in range(1, dataset.d + 1))
    # "%.17g" % x and _fmt(x) call the same CPython routine: the same bytes
    row_format = "%d" + ",%.17g" * dataset.d
    for part in rows:
        for label, row in zip(dataset.labels[part], dataset.curves[part]):
            # one row at a time: a whole slice's .tolist() holds every value
            # of it as a Python float
            yield row_format % (int(label), *row.tolist())


def save_dataset(dataset: CurveDataset, path: str, rows=(slice(None),)):
    """Write `label,t1,...,td` CSV with 17-significant-digit values: the rows
    of each slice in ``rows``, in order (every row by default), copying none."""
    _atomic_write(path, _dataset_lines(dataset, rows))


def _parse_cell(path, line_no, text, what):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"{what} {text!r} is not finite")
    return value


def _text_lines(fh):
    """Yield the lines ``fh.read().splitlines()`` would hold, one at a time.

    ``fh`` reads with universal newlines, so each line it yields holds at
    most one newline, at its end; ``splitlines`` splits it at every other
    boundary it knows, such as a form feed or ``U+2028``.
    """
    for line in fh:
        yield from line.splitlines()


@contextmanager
def _reading(path: str):
    """Report a read or decoding error of the dataset file ``path`` as a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text: {exc}") from None


def _parse_row(path, line_no, raw, d):
    cells = raw.split(",")
    if len(cells) != d + 1:
        raise ParseError(path, line_no, f"expected {d + 1} values, found {len(cells)}")
    try:
        values = list(map(float, cells))
    except ValueError:
        pass
    else:
        # a finite sum has finite terms; a finite row whose sum overflows
        # is accepted below
        if math.isfinite(sum(values)) and values[0] in (0.0, 1.0):
            return values[0], values[1:]
    # the same float() per cell, in order, to name the first bad one
    label = _parse_cell(path, line_no, cells[0], "label")
    if label not in (0.0, 1.0):
        raise ParseError(path, line_no, f"label must be 0 or 1, got {cells[0]!r}")
    return label, [_parse_cell(path, line_no, c, "value") for c in cells[1:]]


def _dataset_blocks(path: str):
    """Read a curve CSV in row blocks; errors name the offending line.

    Returns the curve length d, the row count n and an iterator over
    ``(rows, labels, curves)``: the slice of the n rows a block holds, and
    its labels and curves, split where ``dwt_forward`` splits an n x d
    batch. Each block overwrites the arrays of the one before it.

    The file is read twice, one line at a time, never whole. The first
    pass, made before this returns, decodes all of it, so a read or
    decoding error wins over any parse error, checks the header and counts
    the rows. The second parses one block per step of the iterator. The
    file is closed when a pass ends or raises.
    """
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        lines = _text_lines(fh)
        header = next(lines, None)
        n = sum(1 for line in lines if line)
    if header is None:
        raise ParseError(path, 1, "file is empty")
    header = header.split(",")
    if header[0].strip() != "label":
        raise ParseError(path, 1, "header must start with 'label'")
    d = len(header) - 1
    if not _is_power_of_two(d):
        raise ParseError(path, 1, f"curve length must be a power of two >= 2, got {d} columns")
    if n == 0:
        raise ParseError(path, 2, "no data rows")

    def blocks():
        with _reading(path), open(path, "r", encoding="utf-8") as fh:
            # skip the header; rows the file gained since it was counted are not read
            rows = ((no, raw) for no, raw in enumerate(_text_lines(fh), start=1) if no > 1 and raw)
            bounds = list(_block_bounds(n, d))
            size = max(stop - start for start, stop in bounds)
            buffer = (np.empty(size), np.empty((size, d)))
            for start, stop in bounds:
                labels, curves = (a[: stop - start] for a in buffer)
                parsed = 0
                for line_no, raw in islice(rows, stop - start):
                    labels[parsed], curves[parsed] = _parse_row(path, line_no, raw, d)
                    parsed += 1
                if parsed < stop - start:
                    raise DataError(f"dataset file {path} lost rows while it was read")
                yield slice(start, stop), labels, curves

    return d, n, blocks()


def load_dataset(path: str) -> CurveDataset:
    """Parse a curve CSV into one preallocated array; errors name the offending
    line, and a read or decoding error wins over any parse error."""
    d, n, blocks = _dataset_blocks(path)
    labels, curves = np.empty(n), np.empty((n, d))
    for rows, block_labels, block in blocks:
        labels[rows], curves[rows] = block_labels, block
    return CurveDataset(curves=curves, labels=labels)


def _floats_out(values) -> list:
    return [_fmt(v) for v in np.asarray(values, dtype=float).ravel()]


def _floats_in(values, shape, field):
    try:
        arr = np.array([float(v) for v in values], dtype=float).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"model field {field!r} is corrupted: {exc}") from None
    return arr


def save_model(model: FittedModel, path: str):
    """Serialize a FittedModel to a structured text (JSON) document.

    Reals are stored as 17-significant-digit decimal strings so that
    loading reproduces every coefficient, and hence every prediction,
    bit-exactly.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "estimator": model.config.estimator,
        "family": model.basis.family,
        "j0": model.basis.j0,
        "d": model.basis.d,
        "lambda": _fmt(model.config.lam),
        "q": model.config.q,
        "tau": _fmt(model.config.tau),
        "intercept": _fmt(model.intercept),
        "omega": _floats_out(model.omega),
        "kkt_residual": _fmt(model.kkt_residual),
        "iterations": model.iterations,
    }
    _atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _require_field(doc: dict, key: str):
    if key not in doc:
        raise ModelFileError(f"model file is missing field {key!r}")
    return doc[key]


def load_model(path: str) -> FittedModel:
    """Load a model document of any readable format version."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file {path} is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFileError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"model file {path} must hold a JSON object")
    version = _require_field(doc, "format_version")
    if version not in (1, MODEL_FORMAT_VERSION):
        raise ModelFileError(
            f"model file {path} has format_version {version}; "
            f"this build reads versions 1 and {MODEL_FORMAT_VERSION}"
        )
    d = _require_field(doc, "d")
    try:
        return FittedModel(
            config=FitConfig(
                estimator=_require_field(doc, "estimator"),
                lam=float(_require_field(doc, "lambda")),
                q=_require_field(doc, "q"),
                tau=float(_require_field(doc, "tau")),
            ),
            basis=WaveletBasis(
                family=_require_field(doc, "family"), j0=_require_field(doc, "j0"), d=d
            ),
            intercept=float(_require_field(doc, "intercept")),
            omega=_floats_in(_require_field(doc, "omega"), (d,), "omega"),
            kkt_residual=float(_require_field(doc, "kkt_residual")),
            iterations=_require_field(doc, "iterations"),
        )
    except ModelFileError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"model file {path} is corrupted: {exc}") from None


def time_grid(d: int) -> np.ndarray:
    """Midpoint sampling grid on [0,1]: t_j = (j - 1/2) / d."""
    return (np.arange(d) + 0.5) / d


def export_beta(model: FittedModel, path: str):
    """Write `t,beta` CSV sampling the fitted discriminant function."""
    beta = model.beta()
    grid = time_grid(model.basis.d)
    _atomic_write(path, ["t,beta"] + [f"{_fmt(t)},{_fmt(b)}" for t, b in zip(grid, beta)])


def save_probabilities(probs, path: str):
    """Write a one-column `prob` CSV of class-1 probabilities."""
    _atomic_write(path, ["prob"] + _floats_out(probs))
