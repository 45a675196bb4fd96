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

from wavelogit import cli
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


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_simulate_calls_the_traced_writers(tmp_path, monkeypatch, capsys, split):
    """``simulate`` draws once with ``generate_dataset`` and writes each file
    with one ``save_dataset`` call whose second positional argument is the
    path: the tracer reads the written size from ``args[1]``, and the bench
    self-test needs both functions to take time."""
    calls = {"generate_dataset": [], "save_dataset": []}
    for name in calls:
        real = getattr(cli, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name].append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    paths = [str(tmp_path / "train.csv")] + ([str(tmp_path / "test.csv")] if split else [])
    test_out = ["--test-out", paths[-1]] if split else []
    assert cli.main(["simulate", "--out", paths[0], *test_out, "--n-per-class", "5",
                     "--n-test-per-class", "3", "--d", "32", "--j0", "2",
                     "--support", "10", "--effects", "1.0"]) == 0
    capsys.readouterr()
    assert len(calls["generate_dataset"]) == 1
    assert [args[1] for args in calls["save_dataset"]] == paths
