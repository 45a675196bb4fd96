"""CSV curve data, model persistence, and discriminant-function export.

All numeric output is written with 17 significant digits so that every file
the package emits re-ingests bit-exactly. Writes go to a temporary file in
the destination directory followed by an atomic rename.
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exceptions import DataError, DimensionError, ModelFileError, ParseError
from .glm import LabeledCoefficients
from .model import FittedModel
from .wavelet import WaveletBasis, dwt_forward

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
        d = curves.shape[1]
        if d < 2 or d & (d - 1) != 0:
            raise DataError(f"curve length must be a power of two >= 2, got {d}")
        if labels.shape != (curves.shape[0],):
            raise DimensionError("labels must have one entry per curve")
        if not np.all(np.isfinite(curves)):
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
    if basis.d != dataset.d:
        raise DimensionError(f"basis expects d={basis.d}, dataset has d={dataset.d}")
    theta = dwt_forward(dataset.curves, basis)
    return LabeledCoefficients(theta=theta, labels=dataset.labels, j0=basis.j0)


def _fmt(x: float) -> str:
    """Decimal form with 17 significant digits; parses back to the same double."""
    return format(float(x), ".17g")


def _atomic_write(path: str, lines):
    """Write each of ``lines`` followed by a newline, then rename into place."""
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
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        open(tmp, "w").close()
        os.remove(tmp)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _dataset_lines(dataset: CurveDataset):
    yield "label," + ",".join(f"t{j}" for j in range(1, dataset.d + 1))
    for label, row in zip(dataset.labels, dataset.curves):
        yield f"{int(label)}," + ",".join(_fmt(v) for v in row)


def save_dataset(dataset: CurveDataset, path: str):
    """Write `label,t1,...,td` CSV with 17-significant-digit values."""
    _atomic_write(path, _dataset_lines(dataset))


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


def load_dataset(path: str) -> CurveDataset:
    """Parse a curve CSV; errors name the offending line.

    The file is read twice, one line at a time, never whole: the first pass
    decodes all of it, so a read or decoding error wins over any parse
    error, and counts its lines; the second parses them into one
    preallocated array. The file is closed when this returns or raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _text_lines(fh)
            header = next(lines, None)
            n_lines = sum(1 for _ in lines)
            if header is None:
                raise ParseError(path, 1, "file is empty")
            header = header.split(",")
            if header[0].strip() != "label":
                raise ParseError(path, 1, "header must start with 'label'")
            d = len(header) - 1
            if d < 2 or d & (d - 1) != 0:
                raise ParseError(
                    path, 1, f"curve length must be a power of two >= 2, got {d} columns"
                )
            labels, curves = [], np.empty((n_lines, d))
            fh.seek(0)
            # skip the header; lines the file gained since it was counted find no row
            for line_no, raw in enumerate(islice(_text_lines(fh), 1, n_lines + 1), start=2):
                if raw == "":
                    continue
                cells = raw.split(",")
                if len(cells) != d + 1:
                    raise ParseError(path, line_no, f"expected {d + 1} values, found {len(cells)}")
                label = _parse_cell(path, line_no, cells[0], "label")
                if label not in (0.0, 1.0):
                    raise ParseError(path, line_no, f"label must be 0 or 1, got {cells[0]!r}")
                curves[len(labels)] = [_parse_cell(path, line_no, c, "value") for c in cells[1:]]
                labels.append(label)
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text: {exc}") from None
    if not labels:
        raise ParseError(path, 2, "no data rows")
    return CurveDataset(curves=curves[: len(labels)], labels=np.array(labels, dtype=float))


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
        "estimator": model.estimator,
        "family": model.basis.family,
        "j0": model.basis.j0,
        "d": model.basis.d,
        "lambda": _fmt(model.lam),
        "q": model.q,
        "tau": _fmt(model.tau),
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
            estimator=_require_field(doc, "estimator"),
            basis=WaveletBasis(
                family=_require_field(doc, "family"), j0=_require_field(doc, "j0"), d=d
            ),
            lam=float(_require_field(doc, "lambda")),
            q=_require_field(doc, "q"),
            tau=float(_require_field(doc, "tau")),
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
