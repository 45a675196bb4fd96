"""What the benchmark's tracer needs from the package.

``bench/tracing.py`` wraps each ``(module, attribute)`` pair of its
``TRACED`` table with ``getattr``, so a renamed or deleted function breaks
the traced run.  The table is read here with ``ast``: nothing under
``bench/`` is imported or written.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from wavelogit.penalized import FitConfig, PenalizedSolution, fit_reduced_penalized, fit_wnet
from wavelogit.select import SelectionResult

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_table():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TRACED table")


@pytest.mark.parametrize("module_name, attr", traced_table())
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(f"wavelogit.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_solver_observers_find_their_inputs_and_outputs():
    """The iteration observer reads ``config.max_iter`` (the config is the
    last argument) when a solver fails and ``iterations`` when it returns;
    the grid metrics read ``configs`` and ``messages`` of each selection."""
    assert "max_iter" in {f.name for f in fields(FitConfig)}
    for solver in (fit_wnet, fit_reduced_penalized):
        assert list(inspect.signature(solver).parameters)[-1] == "config"
    assert "iterations" in {f.name for f in fields(PenalizedSolution)}
    assert {"configs", "messages"} <= {f.name for f in fields(SelectionResult)}
