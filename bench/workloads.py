"""The benchmark's workloads: fixed sequences of ``python -m wavelogit`` commands.

A workload builds its inputs in set-up, then runs its command sequence in
order. Every input comes from the workload seed, except the training sets,
so that the model command does the same work at every seed: ``wnet-cv`` and
``wpcr-aicc`` always select on the README dataset (seed 0), and the seed
draws the held-out curves the selected model is scored on; ``bulk-score``
always fits the same 200 curves, and the seed draws the curves it scores.
The held-out set has 5000 curves, so that scoring it takes more than process
start-up and its AUC moves little from one draw to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("wnet-cv", "wpcr-aicc", "bulk-score")

SIDE_SEED_OFFSET = 10_000  # held-out stream (training workloads); training set (bulk-score)
BULK_LAMBDA = "1.0"
BULK_FITS_EACH = 3  # fixed-lambda fits after each long command of bulk-score


@dataclass(frozen=True)
class Step:
    """One CLI command. ``stage`` names its role in the metrics."""

    stage: str
    argv: tuple
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    setup: tuple  # Steps that build the inputs, run in <run>/setup
    steps: tuple  # Steps run in order in <run>/timed
    curves_written: int  # by the "write" command
    curves_scored: int  # by the "score" command
    require_validated: bool  # evaluate must print the verdict "validated"

    def index(self, stage: str) -> int:
        return next(i for i, step in enumerate(self.steps) if step.stage == stage)


# small inputs with the same command shape, for bench/selftest.py
_TINY_SIGNAL = ("--support", "10,30,50", "--effects", "1.2,0.9,0.8")


def _training_workload(name: str, seed: int, tiny: bool) -> Workload:
    """Selection on the README dataset (150 training curves, d=256, db4); the
    selected model scores 5000 held-out curves drawn from the workload seed."""
    curves = ("--d", "64", *_TINY_SIGNAL) if tiny else ()
    train, test, heldout = ("20", "10", "10") if tiny else ("75", "25", "2500")
    readme = Step(
        "setup",
        ("simulate", "--out", "train.csv", "--test-out", "test.csv",
         "--n-per-class", train, "--n-test-per-class", test, *curves, "--seed", "0"),
        ("train.csv", "test.csv"),
    )
    if name == "wnet-cv":
        cv = ("cv", "--data", "../setup/train.csv", "--method", "wnet",
              *(("--n-lambda", "4") if tiny else ()))
    else:
        cv = ("cv", "--data", "../setup/train.csv", "--method", "wpcr", "--select", "aicc",
              *(("--n-lambda", "3", "--q-grid", "1,2") if tiny else ()))
    steps = [
        Step("write",
             ("simulate", "--out", "heldout.csv", "--n-per-class", heldout, *curves,
              "--seed", str(SIDE_SEED_OFFSET + seed)),
             ("heldout.csv",)),
        Step("select", (*cv, "--out", "model.json", "--seed", "0"), ("model.json",)),
        Step("evaluate", ("evaluate", "--model", "model.json", "--data", "heldout.csv"), ()),
        Step("score",
             ("predict", "--model", "model.json", "--data", "heldout.csv", "--out", "probs.csv"),
             ("probs.csv",)),
    ]
    if name == "wnet-cv":
        steps.append(Step("export", ("export-beta", "--model", "model.json", "--out", "beta.csv"),
                          ("beta.csv",)))
    n_heldout = 2 * int(heldout)
    return Workload(name=name, seed=seed, setup=(readme,), steps=tuple(steps),
                    curves_written=n_heldout, curves_scored=n_heldout,
                    require_validated=name == "wnet-cv")


def _bulk_workload(seed: int, tiny: bool) -> Workload:
    """About 5000 curves of d=1024, db8 (a 106 MB CSV), drawn from the seed and
    scored by a fixed-lambda wnet fit on 200 curves that are the same at
    every seed, so the fit does the same work on every run. The fit takes
    well under a second, so it runs three times after each long command, and
    its median is taken."""
    curves = ("--d", "128", *_TINY_SIGNAL) if tiny else ("--d", "1024")
    n_bulk, n_train = ("100", "50") if tiny else ("2500", "100")
    wavelet = ("--wavelet", "db8")
    train = Step(
        "setup",
        ("simulate", "--out", "train.csv", "--n-per-class", n_train, *curves, *wavelet,
         "--seed", str(SIDE_SEED_OFFSET)),
        ("train.csv",),
    )
    select = Step("select",
                  ("fit", "--data", "../setup/train.csv", "--method", "wnet",
                   "--lambda", BULK_LAMBDA, *wavelet, "--out", "model.json"),
                  ("model.json",))
    fits = (select,) * BULK_FITS_EACH
    steps = (
        Step("write",
             ("simulate", "--out", "bulk.csv", "--n-per-class", n_bulk, *curves, *wavelet,
              "--seed", str(seed)),
             ("bulk.csv",)),
        *fits,
        Step("score",
             ("predict", "--model", "model.json", "--data", "bulk.csv", "--out", "probs.csv"),
             ("probs.csv",)),
        *fits,
        Step("evaluate", ("evaluate", "--model", "model.json", "--data", "bulk.csv"), ()),
        *fits,
    )
    n = 2 * int(n_bulk)
    return Workload(name="bulk-score", seed=seed, setup=(train,), steps=steps,
                    curves_written=n, curves_scored=n, require_validated=True)


def build_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name``, every seed-dependent input derived from ``seed``."""
    if name in ("wnet-cv", "wpcr-aicc"):
        return _training_workload(name, seed, tiny)
    if name == "bulk-score":
        return _bulk_workload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
