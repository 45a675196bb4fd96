#!/usr/bin/env python3
"""Benchmark of the wavelogit command line: fixed sequences of CLI commands.

Run from the repository root:

    python3 bench/run.py --workload wnet-cv --seed 0 --seconds 10 --trace 0

Load model: closed loop, one client. One command runs at a time, from this
single process, and the next starts when the previous one has exited.

``--trace 0`` (untraced) runs every command as a ``python -m wavelogit``
subprocess with ``PYTHONPATH=<checkout>/src`` and reports the end-to-end
metrics; ``cv`` starts through ``bench/grid_probe.py``, which calls the same
``cli.main`` and also counts failed grid points. Set-up runs several times,
then the command sequence runs again until ``--seconds`` have passed (at
least once). Every timing is a median over its command's runs.
``--trace 1`` (traced) runs the sequence once in this process through
``wavelogit.cli.main(argv)``, with the package's public functions wrapped by
``bench/tracing.py``, and reports the per-layer metrics.

Every run checks the outputs and counts failed command runs against those
attempted. Human-readable lines go first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
fuller record (context, per-command timings, output digests, selected
configuration) is written to ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One OpenBLAS thread in this process and in every child (they inherit the
# environment): the box has two vCPUs, and a pool of two threads per command
# spends start-up time creating threads and buffers the commands barely use.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread count is set)

from tracing import Tracer, self_time_by_module, summarize, useful_iter_ratio
from workloads import WORKLOADS, Step, Workload, build_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_REPS = 5
IMPORT_REPS = 5
COMMAND_TIMEOUT_S = 170.0

# name -> unit, in printing order; the JSON result of --trace 0
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "select_s": "s",
    "select_peak_rss_mb": "MB",
    "score_peak_rss_mb": "MB",
    "write_peak_rss_mb": "MB",
    "heldout_auc": "AUC",
    "grid_converged_share": "ratio",
}
# figures of --trace 0 that are printed and saved but not in the JSON result:
# the one or two commands behind each spread by up to 0.35 (quartile distance
# over median) between runs of the same code, more than any bound may allow
REPORTED = {
    "score_curves_per_s": "1/s",
    "write_curves_per_s": "1/s",
}

# per-layer metric -> (traced name, statistic); the unit follows the statistic.
# A self time is listed only for functions every workload calls, so that no
# timing reads a constant zero; the results file keeps every function's
# totals (``layers``), the solver-specific ones included.
_LAYER_STATS = (
    ("penalized.fit_wnet", ("calls", "iterations", "failed")),
    ("penalized.fit_reduced_penalized", ("calls", "iterations", "failed")),
    ("penalized.lambda_max", ("calls",)),
    ("glm.link_logistic", ("calls", "self_s")),
    ("reduce.pca_fit", ("calls",)),
    ("select.cross_validate", ("calls",)),
    ("select.select_by_aicc", ("calls",)),
    ("metrics.auc", ("calls", "self_s")),
    ("wavelet.dwt_forward", ("self_s", "calls", "bytes_computed")),
    ("wavelet.dwt_inverse", ("self_s", "calls", "bytes_computed")),
    ("dataio.load_dataset", ("self_s", "bytes")),
    ("dataio.save_dataset", ("self_s", "bytes")),
    ("dataio.save_model", ("self_s",)),
    ("dataio.load_model", ("self_s",)),
    ("dataio.save_probabilities", ("self_s",)),
    ("simulate.generate_dataset", ("self_s",)),
    ("model.FittedModel.predict_proba", ("self_s",)),
    ("model.model_from_fit", ("self_s",)),
    ("cli.main", ("self_s",)),
)
_STAT_UNITS = {"self_s": "s", "calls": "count", "iterations": "count", "failed": "count",
               "bytes": "B", "bytes_computed": "B"}
PER_LAYER = {
    "penalized.self_s": "s",
    **{f"{name}.{stat}": _STAT_UNITS[stat] for name, stats in _LAYER_STATS for stat in stats},
    "penalized.useful_iter_ratio": "ratio",
    "select.grid_points": "count",
    "select.grid_failed": "count",
    "select.grid_failed_share": "ratio",
    "metrics.heldout_auc": "AUC",
    "cli.import_s": "s",
    "trace.pipeline_s": "s",
}


# ---------------------------------------------------------------- commands


@dataclass
class CommandRun:
    stage: str
    argv: tuple
    returncode: int
    wall_s: float
    peak_rss_mb: float | None
    stdout: bytes
    stderr: bytes
    files: dict = field(default_factory=dict)  # output name -> sha256
    grid: dict | None = None  # cv only: grid_points, grid_failed

    def digest(self) -> dict:
        return {
            "argv": list(self.argv),
            "stdout_sha256": hashlib.sha256(self.stdout).hexdigest(),
            "files": dict(self.files),
        }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _hash_outputs(run: CommandRun, outputs, cwd: Path) -> CommandRun:
    for name in outputs:
        path = cwd / name
        run.files[name] = _sha256(path) if path.is_file() else "missing"
    return run


def run_subprocess(step: Step, cwd: Path) -> CommandRun:
    """Run one command as a child process; wall time, and peak RSS from wait4."""
    out_path, err_path, grid_path = cwd / ".stdout", cwd / ".stderr", cwd / ".grid.json"
    if step.argv[0] == "cv":
        command = [sys.executable, str(BENCH_DIR / "grid_probe.py"), str(grid_path), *step.argv]
    else:
        command = [sys.executable, "-m", "wavelogit", *step.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        status = usage = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    run = CommandRun(
        stage=step.stage,
        argv=step.argv,
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )
    out_path.unlink()
    err_path.unlink()
    if grid_path.is_file():
        run.grid = json.loads(grid_path.read_text())
        grid_path.unlink()
    return _hash_outputs(run, step.outputs, cwd)


def run_in_process(step: Step, cwd: Path, cli_main) -> CommandRun:
    """Run one command through ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the child process would die here with status 1
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    run = CommandRun(
        stage=step.stage,
        argv=step.argv,
        returncode=int(code or 0),
        wall_s=wall,
        peak_rss_mb=None,
        stdout=out.getvalue().encode("utf-8"),
        stderr=err.getvalue().encode("utf-8"),
    )
    return _hash_outputs(run, step.outputs, cwd)


def run_sequence(workload: Workload, cwd: Path, runner) -> list:
    """The workload's steps in order; stops after the first non-zero exit."""
    runs = []
    for step in workload.steps:
        runs.append(runner(step, cwd))
        if runs[-1].returncode != 0:
            break
    return runs


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_package():
    """Import wavelogit from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wavelogit
    import wavelogit.cli

    if not Path(wavelogit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported wavelogit from {wavelogit.__file__}, not from {SRC}")
    return wavelogit


# ---------------------------------------------------------------- checks


def planned(workload: Workload, p: int) -> list:
    """Keys (pass, step index) of every command run one pass plans."""
    return [(p, i) for i in range(len(workload.steps))]


class Checks:
    """Failed checks. Each condemns command runs, keyed (pass, step index)."""

    def __init__(self):
        self.problems: list[str] = []
        self.condemned: set = set()

    def fail(self, keys, message: str):
        self.problems.append(message)
        self.condemned.update(keys)

    def __bool__(self):
        return bool(self.problems)


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_predictions(workload: Workload, keys: list, timed: Path, checks: Checks):
    """predict's CSV must equal load_model(...).predict_proba(load_dataset(...).curves)."""
    argv = workload.steps[workload.index("score")].argv
    opts = dict(zip(argv[1::2], argv[2::2]))
    wavelogit = import_package()
    try:
        model = wavelogit.load_model(str(timed / opts["--model"]))
        expected = model.predict_proba(wavelogit.load_dataset(str(timed / opts["--data"])).curves)
        lines = (timed / opts["--out"]).read_text().splitlines()
        written = np.array([float(v) for v in lines[1:]])
    except (OSError, ValueError, wavelogit.WavelogitError) as exc:
        checks.fail(keys, f"predict: outputs unreadable: {exc}")
        return
    if lines[:1] != ["prob"] or written.shape != expected.shape:
        checks.fail(keys, "predict: probability file has the wrong header or length")
    elif not np.array_equal(written, expected):
        checks.fail(keys, "predict: probabilities differ from predict_proba")


def check_record(workload: Workload, p: int, runs: list, record_dir: Path, checks: Checks,
                 label: str):
    """Stdout and output files must repeat across runs of one commit.

    The first run of a command sequence, at one seed on one source tree,
    saves its digests; every later run of the same, traced or not, must
    match them.
    """
    digests = [run.digest() for run in runs]
    record_dir.mkdir(parents=True, exist_ok=True)
    sequence = json.dumps([step.argv for step in workload.setup + workload.steps]).encode()
    key = hashlib.sha256(src_sha256().encode() + sequence).hexdigest()[:16]
    path = record_dir / f"{workload.name}-seed{workload.seed}-{key}.json"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(digests, indent=1))
        os.replace(tmp, path)
        return
    saved = json.loads(path.read_text())
    for i, (ours, theirs) in enumerate(zip(digests, saved)):
        if ours != theirs:
            checks.fail([(p, i)], f"{ours['argv'][0]}: {label} output differs from an earlier run")


def check_pass(workload: Workload, p: int, runs: list, timed: Path, checks: Checks,
               label: str, record_dir: Path):
    """Every check on one pass of the sequence.

    Exit codes, the verdict, a command named twice doing the same both
    times; then, if those hold, predict's output and the digests saved by
    earlier runs. Commands never run because an earlier one failed are
    condemned too.
    """
    before = len(checks.problems)
    missing = planned(workload, p)[len(runs):]
    if missing:
        checks.fail(missing, f"pass {p}: {len(missing)} command(s) not run after a failure")
    first = {}
    for i, run in enumerate(runs):
        key, name = [(p, i)], f"pass {p} step {i} {run.argv[0]}"
        if run.returncode != 0:
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            checks.fail(key, f"{name}: exited {run.returncode}: {' '.join(tail)}")
        elif run.digest() != first.setdefault(run.stage, run.digest()):
            checks.fail(key, f"{name}: output differs from the same command's first run")
        elif run.stage == "evaluate" and workload.require_validated:
            if run.stdout.decode().splitlines()[-1:] != ["validated"]:
                checks.fail(key, f"{name}: verdict is not 'validated'")
    if len(checks.problems) == before:
        scores = [(p, i) for i, step in enumerate(workload.steps) if step.stage == "score"]
        check_predictions(workload, scores, timed, checks)
        check_record(workload, p, runs, record_dir, checks, label)


def selected_config(timed: Path) -> dict:
    doc = json.loads((timed / "model.json").read_text())
    return {key: doc[key] for key in ("estimator", "lambda", "q", "tau")}


def printed_auc(run: CommandRun) -> float:
    return float(run.stdout.decode().split()[1])  # "AUC 0.875"


# ---------------------------------------------------------------- context


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def context(workload: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": src_sha256(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": workload.seed,
        "load_model": "closed loop, 1 client, 1 command at a time",
    }


# ---------------------------------------------------------------- runs


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value, emitted in the JSON result line
    units: dict
    record: dict  # everything written to the results file


def _run_setup(workload: Workload, setup_dir: Path, reps: int, checks: Checks, keys: list):
    """Build the inputs ``reps`` times; the seconds each repetition took.

    Every repetition must exit 0 and write the same bytes; if one does not,
    nothing downstream can be trusted and ``keys`` are condemned.
    """
    times, reference = [], None
    for _ in range(reps):
        _fresh_dir(setup_dir)
        start = time.perf_counter()
        runs = [run_subprocess(step, setup_dir) for step in workload.setup]
        times.append(time.perf_counter() - start)
        bad = [run for run in runs if run.returncode != 0]
        digests = [run.digest() for run in runs]
        if bad or (reference is not None and digests != reference):
            reason = bad[0].stderr.decode("utf-8", "replace").strip() if bad else "not repeatable"
            checks.fail(keys, f"set-up failed: {reason}")
            break
        reference = digests
    return times


def _outcome(checks, attempted, metrics, units, record) -> Outcome:
    record.update(problems=checks.problems, metrics=metrics)
    return Outcome(
        correct=not checks,
        attempted=attempted,
        failed=min(len(checks.condemned), attempted),
        metrics=metrics,
        units=units,
        record=record,
    )


def _command_records(runs: list) -> list:
    return [{"argv": list(run.argv), "stage": run.stage, "returncode": run.returncode,
             "wall_s": run.wall_s, "peak_rss_mb": run.peak_rss_mb, "grid": run.grid}
            for run in runs]


def _median(runs: list, stage: str, key: str) -> float:
    return statistics.median(getattr(run, key) for run in runs if run.stage == stage)


def stage_walls(runs: list) -> dict:
    """Median wall time of each stage; their sum is one run of each distinct command."""
    stages = dict.fromkeys(run.stage for run in runs)
    return {stage: _median(runs, stage, "wall_s") for stage in stages}


def _end_to_end(workload: Workload, setup_times: list, passes: list) -> dict:
    runs = [run for sequence in passes for run in sequence]
    walls = stage_walls(runs)
    first = {}
    for run in passes[0]:
        first.setdefault(run.stage, run)
    grid = first["select"].grid or {"grid_points": 1, "grid_failed": 0}  # `fit`: one point
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": sum(walls.values()),
        "select_s": walls["select"],
        "score_curves_per_s": workload.curves_scored / walls["score"],
        "write_curves_per_s": workload.curves_written / walls["write"],
        "select_peak_rss_mb": _median(runs, "select", "peak_rss_mb"),
        "score_peak_rss_mb": _median(runs, "score", "peak_rss_mb"),
        "write_peak_rss_mb": _median(runs, "write", "peak_rss_mb"),
        "heldout_auc": printed_auc(first["evaluate"]),
        "grid_converged_share": 1.0 - grid["grid_failed"] / grid["grid_points"],
    }


def run_untraced(workload: Workload, work_dir: Path, seconds: float) -> Outcome:
    """Every command as a subprocess; set-up ``SETUP_REPS`` times, then passes of
    the sequence until ``seconds`` have passed."""
    checks = Checks()
    run_dir = _fresh_dir(work_dir / f"run-{os.getpid()}")
    passes, selected = [], None
    try:
        setup_times = _run_setup(workload, run_dir / "setup", SETUP_REPS, checks,
                                 planned(workload, 0))
        start = time.perf_counter()
        while not checks and (not passes or time.perf_counter() - start < seconds):
            timed = _fresh_dir(run_dir / "timed")
            passes.append(run_sequence(workload, timed, run_subprocess))
            check_pass(workload, len(passes) - 1, passes[-1], timed, checks, "untraced",
                       work_dir / "records")
            if selected is None and not checks:
                selected = selected_config(timed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {} if checks else _end_to_end(workload, setup_times, passes)
    reported = {name: metrics.pop(name) for name in REPORTED if name in metrics}
    record = {
        "context": context(workload),
        "trace": 0,
        "seconds": seconds,
        "setup_s_each": setup_times,
        "passes": [_command_records(runs) for runs in passes],
        "selected": selected,
        "digests": [run.digest() for run in passes[0]] if passes else [],
        "reported": reported,
    }
    attempted = len(workload.steps) * max(1, len(passes))
    return _outcome(checks, attempted, metrics, END_TO_END, record)


def measure_import_s(reps: int = IMPORT_REPS) -> float:
    """Median wall time of a bare ``import wavelogit.cli`` subprocess."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import wavelogit.cli"],
            env=child_env(), check=True, timeout=COMMAND_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _layer_metrics(summary: dict, by_module: dict, kept: list, runs: list,
                   evaluate: int) -> dict:
    metrics = {"penalized.self_s": by_module.get("penalized", 0.0)}
    for name, stats in _LAYER_STATS:
        for stat in stats:
            key = "bytes" if stat == "bytes_computed" else stat
            metrics[f"{name}.{stat}"] = summary[name][key]
    grid_points = sum(len(result.configs) for result in kept)
    grid_failed = sum(m is not None for result in kept for m in result.messages)
    metrics.update({
        "penalized.useful_iter_ratio": useful_iter_ratio(summary),
        "select.grid_points": grid_points,
        "select.grid_failed": grid_failed,
        "select.grid_failed_share": grid_failed / grid_points if grid_points else 0.0,
        "metrics.heldout_auc": printed_auc(runs[evaluate]),
        "cli.import_s": measure_import_s(),
        "trace.pipeline_s": sum(stage_walls(runs).values()),
    })
    return {name: metrics[name] for name in PER_LAYER}


def run_traced(workload: Workload, work_dir: Path, results_dir: Path) -> Outcome:
    """The sequence once, in-process, with spans around the package's public functions."""
    checks = Checks()
    cli = import_package().cli
    run_dir = _fresh_dir(work_dir / f"run-{os.getpid()}")
    runs, spans, kept, selected = [], None, [], None
    try:
        _run_setup(workload, run_dir / "setup", 1, checks, planned(workload, 0))
        if not checks:
            timed = _fresh_dir(run_dir / "timed")
            tracer = Tracer()
            with tracer:
                runs = run_sequence(workload, timed,
                                    lambda step, cwd: run_in_process(step, cwd, cli.main))
            spans, kept = tracer.arrays(), tracer.kept
            check_pass(workload, 0, runs, timed, checks, "traced", work_dir / "records")
            if not checks:
                selected = selected_config(timed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    record = {"context": context(workload), "trace": 1,
              "digests": [run.digest() for run in runs]}
    if not checks:
        summary = summarize(spans)
        roots = np.flatnonzero(spans["parent"] == -1)  # one cli.main span per command
        by_command = [{"stage": run.stage, "self_s": self_time_by_module(spans, root)}
                      for run, root in zip(runs, roots)]
        by_module = {}
        for command in by_command:
            for module, seconds in command["self_s"].items():
                by_module[module] = by_module.get(module, 0.0) + seconds
        metrics = _layer_metrics(summary, by_module, kept, runs, workload.index("evaluate"))
        untraced = results_dir / f"{workload.name}-seed{workload.seed}-trace0.json"
        overhead = None
        if untraced.is_file():
            earlier = json.loads(untraced.read_text()).get("metrics", {})
            if "pipeline_s" in earlier:
                overhead = metrics["trace.pipeline_s"] - earlier["pipeline_s"]
        results_dir.mkdir(parents=True, exist_ok=True)
        spans_path = results_dir / f"{workload.name}-seed{workload.seed}-spans.npz"
        np.savez_compressed(spans_path, **spans)
        record.update(
            commands=_command_records(runs),
            selected=selected,
            layers=summary,
            self_s_by_module=by_command,
            tracing_overhead_s=overhead,
            spans_file=spans_path.name,
            span_count=int(spans["parent"].size),
        )
    return _outcome(checks, len(workload.steps), metrics, PER_LAYER, record)


# ---------------------------------------------------------------- main


def result_line(outcome: Outcome) -> str:
    """The one-line JSON result: correct, attempted, failed and metrics with units."""
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    })


def _format(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0 is the README seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the command sequence until this many seconds have passed "
                             "(it always runs at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavelogit" / "cli.py").is_file():
        print(f"error: no wavelogit source tree at {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = build_workload(args.workload, args.seed)
    if args.trace:
        outcome = run_traced(workload, WORK_DIR, RESULTS_DIR)
    else:
        outcome = run_untraced(workload, WORK_DIR, args.seconds)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    results_path = RESULTS_DIR / f"{workload.name}-seed{workload.seed}-trace{args.trace}.json"
    outcome.record.update(correct=outcome.correct, attempted=outcome.attempted,
                          failed=outcome.failed)
    results_path.write_text(json.dumps(outcome.record, indent=1, default=str) + "\n")

    for problem in outcome.record["problems"]:
        print(f"FAILED CHECK {problem}")
    for name, value in outcome.metrics.items():
        print(f"{name:44s} {_format(value):>14s} {outcome.units[name]}")
    for name, value in outcome.record.get("reported", {}).items():
        print(f"{name:44s} {_format(value):>14s} {REPORTED[name]} (reported, not gated)")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(result_line(outcome))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
