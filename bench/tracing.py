"""Span tracing of wavelogit's public functions, applied from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``wavelogit`` module that holds a reference to it (``fit_estimator`` is
patched in both ``penalized`` and ``select``, for example), so calls are
seen whichever module makes them. ``Tracer.remove()`` puts the originals
back. Spans are kept in memory as parallel lists (name, start, end,
parent, failed, iterations, bytes) and summarised or saved when the run
ends. The program's source is never edited.

Self time of a span is its duration minus the durations of its direct
child spans. The traced program is single-threaded, so children never
overlap and that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs; "Class.method" attributes are patched on the class
TRACED = (
    ("cli", "main"),
    ("dataio", "load_dataset"),
    ("dataio", "save_dataset"),
    ("dataio", "load_model"),
    ("dataio", "save_model"),
    ("dataio", "save_probabilities"),
    ("dataio", "export_beta"),
    ("dataio", "to_coefficients"),
    ("glm", "link_logistic"),
    ("glm", "irls_fit"),
    ("glm", "neg_log_likelihood"),
    ("glm", "nll_gradient"),
    ("metrics", "auc"),
    ("metrics", "roc_curve"),
    ("model", "model_from_fit"),
    ("model", "FittedModel.predict_proba"),
    ("model", "FittedModel.beta"),
    ("penalized", "fit_estimator"),
    ("penalized", "build_reduction"),
    ("penalized", "fit_wnet"),
    ("penalized", "fit_reduced_penalized"),
    ("penalized", "fit_reduced_unpenalized"),
    ("penalized", "lambda_max"),
    ("reduce", "pca_fit"),
    ("reduce", "pls_fit"),
    ("reduce", "sparse_component_fit"),
    ("select", "cross_validate"),
    ("select", "select_by_aicc"),
    ("select", "make_folds"),
    ("select", "default_lambda_grid"),
    ("select", "aicc"),
    ("simulate", "generate_dataset"),
    ("wavelet", "dwt_forward"),
    ("wavelet", "dwt_inverse"),
    ("wavelet", "make_basis"),
)

_SOLVERS = ("penalized.fit_wnet", "penalized.fit_reduced_penalized")
# names whose return values are kept, in call order, in ``Tracer.kept``
_KEEP_RESULTS = ("select.cross_validate", "select.select_by_aicc")


def _config_arg(args, kwargs):
    return kwargs.get("config", args[-1] if args else None)


def _solver_iterations(args, kwargs, result, exc):
    """Solver iterations; a ConvergenceError counts as the full max_iter."""
    if exc is None:
        return result.iterations
    if type(exc).__name__ == "ConvergenceError":
        return _config_arg(args, kwargs).max_iter
    return 0


def _array_bytes(args, kwargs, result, exc):
    # computed, not measured: n*d*8 bytes of float64 input plus as much output
    return 0 if exc is not None else 2 * 8 * np.asarray(args[0]).size


def _read_bytes(args, kwargs, result, exc):
    return os.path.getsize(args[0]) if exc is None else 0


def _written_bytes(args, kwargs, result, exc):
    return os.path.getsize(args[1]) if exc is None else 0


_OBSERVERS = {
    "penalized.fit_wnet": ("iterations", _solver_iterations),
    "penalized.fit_reduced_penalized": ("iterations", _solver_iterations),
    "wavelet.dwt_forward": ("bytes", _array_bytes),
    "wavelet.dwt_inverse": ("bytes", _array_bytes),
    "dataio.load_dataset": ("bytes", _read_bytes),
    "dataio.save_dataset": ("bytes", _written_bytes),
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.failed: list[bool] = []
        self.iterations: list[int] = []
        self.nbytes: list[int] = []
        self.kept: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        key = self.name_index.setdefault(name, len(self.names))
        if key == len(self.names):
            self.names.append(name)
        field, observe = _OBSERVERS.get(name, (None, None))
        observed = self.iterations if field == "iterations" else self.nbytes
        kept = self.kept if name in _KEEP_RESULTS else None
        stack = self._stack
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        failed, iterations, nbytes = self.failed, self.iterations, self.nbytes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(key)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            failed.append(False)
            iterations.append(0)
            nbytes.append(0)
            stack.append(idx)
            result = error = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                failed[idx] = True
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observed[idx] = observe(args, kwargs, result, error)
                if kept is not None and error is None:
                    kept.append(result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Patch every traced function in every wavelogit module that holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = {
            key: mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "wavelogit" or key.startswith("wavelogit."))
        }
        for module_name, attr in TRACED:
            module = loaded[f"wavelogit.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in loaded.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, holder, key, wrapper):
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def remove(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.remove()
        return False

    def arrays(self) -> dict:
        """Spans as NumPy arrays, plus each span's self time."""
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=start.size)
        return {
            "names": np.asarray(self.names),
            "name": np.asarray(self.span_name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "failed": np.asarray(self.failed, dtype=bool),
            "iterations": np.asarray(self.iterations, dtype=np.int64),
            "bytes": np.asarray(self.nbytes, dtype=np.int64),
            "self": duration - covered,
        }


def summarize(spans: dict) -> dict:
    """Per traced name: calls, failed, total and self seconds, iterations, bytes."""
    out = {}
    name_ids = spans["name"]
    duration = spans["end"] - spans["start"]
    for key, name in enumerate(spans["names"]):
        mask = name_ids == key
        failed = spans["failed"][mask]
        iterations = spans["iterations"][mask]
        out[str(name)] = {
            "calls": int(mask.sum()),
            "failed": int(failed.sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(spans["self"][mask].sum()),
            "iterations": int(iterations.sum()),
            "useful_iterations": int(iterations[~failed].sum()),
            "bytes": int(spans["bytes"][mask].sum()),
        }
    return out


def useful_iter_ratio(summary: dict) -> float:
    """Solver iterations spent in fits that succeeded, over all solver iterations."""
    total = sum(summary.get(name, {}).get("iterations", 0) for name in _SOLVERS)
    useful = sum(summary.get(name, {}).get("useful_iterations", 0) for name in _SOLVERS)
    return useful / total if total else 1.0


def self_time_by_module(spans: dict, root: int) -> dict:
    """Self seconds per module over the subtree of span ``root`` (root included)."""
    parent = spans["parent"]
    inside = np.zeros(parent.size, dtype=bool)
    inside[root] = True
    # spans are appended in start order, so a parent always precedes its children
    for idx in range(root + 1, parent.size):
        p = parent[idx]
        if p < root:
            break
        inside[idx] = inside[p]
    totals: dict[str, float] = defaultdict(float)
    modules = [str(n).split(".")[0] for n in spans["names"]]
    for key, seconds in zip(spans["name"][inside], spans["self"][inside]):
        totals[modules[key]] += float(seconds)
    return dict(totals)
