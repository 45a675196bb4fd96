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
    _dataset_blocks,
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
from .penalized import _TAXONOMY, ESTIMATORS, FitConfig, build_reduction, fit_estimator
from .select import (
    _reductions,
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
    n_train, n_test = args.n_per_class, args.n_test_per_class
    least = 1 if args.test_out else 0
    if n_train < 1 or n_test < least:
        raise DataError(
            f"need --n-per-class >= 1 and --n-test-per-class >= {least}, got {n_train} and {n_test}"
        )
    if args.test_out and os.path.realpath(args.out) == os.path.realpath(args.test_out):
        raise DataError(f"--out and --test-out name the same file: {args.test_out}")
    n = n_train + (n_test if args.test_out else 0)
    spec = SynthSpec(
        n_per_class=n,
        basis=basis,
        true_support=support,
        effect_sizes=effects,
        noise_sd=args.noise_sd,
        background_decay=args.background_decay,
        seed=args.seed,
    )
    dataset = generate_dataset(spec)
    # each class holds n_train training curves, then n_test held-out ones
    splits = [(args.out, 0, n_train), (args.test_out, n_train, n)]
    outputs = [(path, start, stop) for path, start, stop in splits if path]
    for path, start, stop in outputs:
        save_dataset(dataset, path, (slice(start, stop), slice(n + start, n + stop)))
    for path, start, stop in outputs:
        print(f"wrote {path}: {2 * (stop - start)} curves, d={args.d}")
    return 0


def _fit_and_save(data, config, out_path):
    solution = fit_estimator(data, config)
    save_model(model_from_fit(solution, config, data.basis), out_path)
    return solution


def _cmd_fit(args) -> int:
    dataset = load_dataset(args.data)
    data = to_coefficients(dataset, make_basis(args.wavelet, args.j0, dataset.d))
    config = FitConfig(estimator=args.method, lam=args.lam, q=args.q, tau=args.tau)
    solution = _fit_and_save(data, config, args.out)
    print(
        f"fit {args.method}: {solution.nonzero_detail_count} nonzero detail "
        f"coefficients, {solution.iterations} iterations; wrote {args.out}"
    )
    return 0


def _build_grid(args, data) -> list:
    # a parameter the method does not take gets the one value FitConfig
    # accepts for it, so a flag that sets it exits 2
    kind, penalized = _TAXONOMY[args.method]
    if args.lambda_grid is not None:
        lam_grid = _comma_list(args.lambda_grid, float, "--lambda-grid")
    else:
        lam_grid = tuple(default_lambda_grid(data, args.n_lambda)) if penalized else (0.0,)
    if args.q_grid is not None:
        q_grid = _comma_list(args.q_grid, int, "--q-grid")
    else:
        q_grid = (None,) if kind is None else default_q_grid(data.n, data.d)

    if args.tau_grid is None and not penalized:
        # one tau = 0 reduction at the largest q that builds serves every q.
        # A q < 1 is left to fail in grid order.
        shared = _reductions(data, [FitConfig(args.method, q=q) for q in q_grid if q >= 1])

    def taus(q):
        if args.tau_grid is not None:
            return _comma_list(args.tau_grid, float, "--tau-grid")
        if penalized:
            return (0.0,)
        config = FitConfig(args.method, q=q)
        # a q the shared reduction cannot serve fails as it would alone
        loadings = shared(config)
        return default_tau_grid(build_reduction(data, config) if loadings is None else loadings)

    points = ((q, tau, lam) for q in q_grid for tau in taus(q) for lam in lam_grid)
    return [FitConfig(args.method, lam=lam, q=q, tau=tau) for q, tau, lam in points]


def _cmd_cv(args) -> int:
    dataset = load_dataset(args.data)
    data = to_coefficients(dataset, make_basis(args.wavelet, args.j0, dataset.d))
    grid = _build_grid(args, data)
    if args.select == "aicc":
        result = select_by_aicc(data, grid)
    else:
        folds = make_folds(data.labels, args.folds, seed=args.seed)
        result = cross_validate(data, grid, folds)
    best = result.best_config
    kind, penalized = _TAXONOMY[best.estimator]
    # only the parameters the estimator takes
    params = (
        ([f"lambda={best.lam:.6g}"] if penalized else [])
        + ([f"q={best.q}"] if kind is not None else [])
        + ([f"tau={best.tau:.6g}"] if not penalized else [])
    )
    label = "AICc" if args.select == "aicc" else f"{args.folds}-fold CV AUC"
    failed = sum(message is not None for message in result.messages)
    _fit_and_save(data, best, args.out)
    print(
        f"selected {best.estimator}: {', '.join(params)}"
        + f" ({label} = {result.best_criterion:.6g} over {len(grid)} configurations"
        + (f", {failed} of {len(grid)} failed)" if failed else ")")
    )
    print(f"wrote {args.out}")
    return 0


def _score_file(model_path, data_path):
    """Labels and class-1 probabilities of every curve in ``data_path``.

    The curves are read and scored one row block at a time, so only the
    labels and probabilities of the whole file are held. A model that does
    not fit the file's curve length is refused from its header, before any
    row is parsed.
    """
    model = load_model(model_path)
    d, n, blocks = _dataset_blocks(data_path)
    if d != model.basis.d:
        raise DataError(
            f"model {model_path} expects d={model.basis.d}, dataset {data_path} has d={d}"
        )
    labels, probs = np.empty(n), np.empty(n)
    for rows, block_labels, curves in blocks:
        labels[rows], probs[rows] = block_labels, model.predict_proba(curves)
    return labels, probs


def _cmd_predict(args) -> int:
    _, probs = _score_file(args.model, args.data)
    save_probabilities(probs, args.out)
    print(f"wrote {args.out}: {probs.size} probabilities")
    return 0


def _cmd_evaluate(args) -> int:
    labels, probs = _score_file(args.model, args.data)
    area = auc(probs, labels)
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
