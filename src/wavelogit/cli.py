"""Command-line driver: simulate, fit, cv, predict, evaluate, export-beta.

Exit codes: 0 success, 1 usage error, 2 data/file error or a closed
standard output, 3 numerical failure. All randomness is controlled by
--seed (simulate, cv); outputs are deterministic given identical inputs
and flags.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dataio import (
    CurveDataset,
    check_writable,
    export_beta,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    save_probabilities,
    to_coefficients,
)
from .exceptions import DataError, NumericalError
from .metrics import auc, discrimination_verdict
from .model import model_from_fit
from .penalized import ESTIMATORS, FitConfig, fit_estimator
from .select import (
    cross_validate,
    default_lambda_grid,
    default_q_grid,
    default_tau_grid,
    make_folds,
    select_by_aicc,
)
from .simulate import (
    DEFAULT_BACKGROUND_DECAY,
    DEFAULT_EFFECTS,
    DEFAULT_N_TEST_PER_CLASS,
    DEFAULT_N_TRAIN_PER_CLASS,
    DEFAULT_NOISE_SD,
    DEFAULT_SUPPORT,
    SynthSpec,
    generate_dataset,
)
from .wavelet import DEFAULT_FAMILY, DEFAULT_J0, FILTERS, make_basis


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _comma_list(text: str, cast, flag: str):
    try:
        return tuple(cast(item) for item in text.split(","))
    except ValueError:
        raise DataError(f"{flag} expects comma-separated values, got {text!r}") from None


def _add_wavelet_flags(parser):
    parser.add_argument(
        "--wavelet", default=DEFAULT_FAMILY, choices=sorted(FILTERS), help="filter family"
    )
    parser.add_argument("--j0", type=int, default=DEFAULT_J0, help="coarsest retained scale")


def build_parser() -> _Parser:
    parser = _Parser(prog="wavelogit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic curve dataset")
    p.add_argument("--out", required=True, help="training CSV to write")
    p.add_argument("--test-out", help="held-out CSV to write (drawn from the same stream)")
    p.add_argument("--n-per-class", type=int, default=DEFAULT_N_TRAIN_PER_CLASS)
    p.add_argument("--n-test-per-class", type=int, default=DEFAULT_N_TEST_PER_CLASS)
    p.add_argument("--d", type=int, default=256, help="curve length (power of two)")
    _add_wavelet_flags(p)
    p.add_argument("--support", help="comma-separated detail coordinates of the signal")
    p.add_argument("--effects", help="comma-separated mean shifts, one per coordinate")
    p.add_argument("--noise-sd", type=float, default=DEFAULT_NOISE_SD)
    p.add_argument("--background-decay", type=float, default=DEFAULT_BACKGROUND_DECAY)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="fit one estimator at fixed tuning parameters")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--method", required=True, choices=ESTIMATORS)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="penalty level")
    p.add_argument("--q", type=int, help="component count (reduced estimators)")
    p.add_argument("--tau", type=float, default=0.0, help="loading threshold (wcr/wls)")
    _add_wavelet_flags(p)
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("cv", help="select tuning parameters, then fit and save")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--method", required=True, choices=ESTIMATORS)
    p.add_argument("--lambda-grid", help="comma-separated penalty levels")
    p.add_argument("--n-lambda", type=int, default=20, help="size of the default grid")
    p.add_argument("--q-grid", help="comma-separated component counts")
    p.add_argument("--tau-grid", help="comma-separated loading thresholds")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument(
        "--select",
        default="cv",
        choices=("cv", "aicc"),
        help="cross-validated AUC or corrected AIC",
    )
    _add_wavelet_flags(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="class-1 probabilities for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="probability CSV to write")

    p = sub.add_parser("evaluate", help="AUC of a model over a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("export-beta", help="sample the fitted discriminant function")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="t,beta CSV to write")

    return parser


def _cmd_simulate(args) -> int:
    basis = make_basis(args.wavelet, args.j0, args.d)
    if args.support is None and args.effects is not None:
        raise DataError("--effects requires --support")
    if args.support is not None:
        support = _comma_list(args.support, int, "--support")
        if args.effects is None:
            raise DataError("--support requires --effects")
        effects = _comma_list(args.effects, float, "--effects")
    else:
        support, effects = DEFAULT_SUPPORT, DEFAULT_EFFECTS
    n_train = args.n_per_class
    n_test = args.n_test_per_class if args.test_out else 0
    if n_train < 1 or n_test < 0:
        raise DataError(
            f"need --n-per-class >= 1 and --n-test-per-class >= 0, got {n_train} and {n_test}"
        )
    spec = SynthSpec(
        n_per_class=n_train + n_test,
        basis=basis,
        true_support=support,
        effect_sizes=effects,
        noise_sd=args.noise_sd,
        background_decay=args.background_decay,
        seed=args.seed,
    )
    dataset = generate_dataset(spec)
    # each class holds n_train training curves, then n_test held-out ones
    train = np.arange(2 * (n_train + n_test)) % (n_train + n_test) < n_train
    outputs = [(args.out, train)] + ([(args.test_out, ~train)] if args.test_out else [])
    for path, rows in outputs:
        save_dataset(CurveDataset(curves=dataset.curves[rows], labels=dataset.labels[rows]), path)
    for path, rows in outputs:
        print(f"wrote {path}: {np.count_nonzero(rows)} curves, d={args.d}")
    return 0


def _fit_and_save(data, config, basis, out_path):
    solution = fit_estimator(data, config)
    save_model(model_from_fit(solution, config, basis), out_path)
    return solution


def _cmd_fit(args) -> int:
    dataset = load_dataset(args.data)
    basis = make_basis(args.wavelet, args.j0, dataset.d)
    data = to_coefficients(dataset, basis)
    config = FitConfig(estimator=args.method, lam=args.lam, q=args.q, tau=args.tau)
    solution = _fit_and_save(data, config, basis, args.out)
    print(
        f"fit {args.method}: {solution.nonzero_detail_count} nonzero detail "
        f"coefficients, {solution.iterations} iterations; wrote {args.out}"
    )
    return 0


def _build_grid(args, data) -> list:
    method = args.method
    if args.lambda_grid is not None:
        lam_grid = _comma_list(args.lambda_grid, float, "--lambda-grid")
    elif method in ("wcr", "wls"):
        lam_grid = (0.0,)
    else:
        lam_grid = tuple(default_lambda_grid(data, args.n_lambda))
    if method == "wnet":
        return [FitConfig(estimator=method, lam=lam) for lam in lam_grid]
    if args.q_grid is not None:
        q_grid = _comma_list(args.q_grid, int, "--q-grid")
    else:
        q_grid = default_q_grid(data.n, data.d)
    if method in ("wpcr", "wpls"):
        return [
            FitConfig(estimator=method, lam=lam, q=q) for q in q_grid for lam in lam_grid
        ]
    grid = []
    for q in q_grid:
        if args.tau_grid is not None:
            tau_grid = _comma_list(args.tau_grid, float, "--tau-grid")
        else:
            tau_grid = default_tau_grid(data, method, q)
        grid.extend(FitConfig(estimator=method, lam=0.0, q=q, tau=tau) for tau in tau_grid)
    return grid


def _cmd_cv(args) -> int:
    dataset = load_dataset(args.data)
    basis = make_basis(args.wavelet, args.j0, dataset.d)
    data = to_coefficients(dataset, basis)
    grid = _build_grid(args, data)
    if args.select == "aicc":
        result = select_by_aicc(data, grid)
    else:
        folds = make_folds(data.labels, args.folds, seed=args.seed)
        result = cross_validate(data, grid, folds)
    best = result.best_config
    label = "AICc" if args.select == "aicc" else f"{args.folds}-fold CV AUC"
    failed = sum(message is not None for message in result.messages)
    _fit_and_save(data, best, basis, args.out)
    print(
        f"selected {best.estimator}: lambda={best.lam:.6g}"
        + (f", q={best.q}" if best.q is not None else "")
        + (f", tau={best.tau:.6g}" if best.estimator in ("wcr", "wls") else "")
        + f" ({label} = {result.best_criterion:.6g} over {len(grid)} configurations"
        + (f", {failed} of {len(grid)} failed)" if failed else ")")
    )
    print(f"wrote {args.out}")
    return 0


def _load_pair(model_path, data_path):
    model = load_model(model_path)
    dataset = load_dataset(data_path)
    d = model.basis.d
    if dataset.d != d:
        raise DataError(f"model {model_path} expects d={d}, dataset {data_path} has d={dataset.d}")
    return model, dataset


def _cmd_predict(args) -> int:
    model, dataset = _load_pair(args.model, args.data)
    save_probabilities(model.predict_proba(dataset.curves), args.out)
    print(f"wrote {args.out}: {dataset.n} probabilities")
    return 0


def _cmd_evaluate(args) -> int:
    model, dataset = _load_pair(args.model, args.data)
    probs = model.predict_proba(dataset.curves)
    area = auc(probs, dataset.labels)
    print(f"AUC {area:.3f}")
    print(discrimination_verdict(area))
    return 0


def _cmd_export_beta(args) -> int:
    model = load_model(args.model)
    export_beta(model, args.out)
    print(f"wrote {args.out}: {model.basis.d} samples")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "cv": _cmd_cv,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "export-beta": _cmd_export_beta,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse an unusable output path before any work is done
        for path in (getattr(args, "out", None), getattr(args, "test_out", None)):
            if path:
                check_writable(path)
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"wavelogit: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"wavelogit: numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    """Console entry point.  Every command writes its files before it
    prints, so a closed standard output loses only the summary: exit 2."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python docs, signal module, "Note on SIGPIPE": without this the
        # flush at interpreter exit fails again and prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
