"""Tuning-parameter selection: stratified k-fold CV and corrected AIC.

Cross-validation scores each grid point by mean held-out AUC and refits
the reduction inside every training fold, so no held-out information
leaks into the fit.  The corrected-AIC path fits each grid
point once on the full data, slicing one shared PCA/PLS reduction per
estimator, and penalizes by the exact-nonzero parameter count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import os

import numpy as np

from .exceptions import (
    CriterionUndefinedError,
    DataError,
    NumericalError,
    SelectionError,
)
from .glm import LabeledCoefficients, link_logistic, neg_log_likelihood
from .metrics import auc
from .penalized import (
    FitConfig,
    PenalizedSolution,
    build_reduction,
    fit_estimator,
    lambda_max,
)
from .reduce import pca_fit, pls_fit

CRITERION_CV_AUC = "cv_auc"
CRITERION_AICC = "aicc"


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: entry i is the fold of observation i."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", assignments)
        if self.k < 2:
            raise DataError(f"need at least 2 folds, got k={self.k}")
        if assignments.ndim != 1 or assignments.min() < 0 or assignments.max() >= self.k:
            raise DataError("fold assignments must be indices in 0..k-1")

    def split(self, fold: int):
        test = np.nonzero(self.assignments == fold)[0]
        train = np.nonzero(self.assignments != fold)[0]
        return train, test


def make_folds(labels, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment.

    Each member is dealt to the fold with the fewest members of its class,
    breaking ties by smallest fold, then smallest index.  This keeps both
    per-class counts and total fold sizes within one of each other.
    """
    labels = np.asarray(labels, dtype=float)
    if k < 2:
        raise DataError(f"need at least 2 folds, got k={k}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("labels must contain only 0 and 1")
    rng = np.random.default_rng(seed)
    assignments = np.empty(labels.size, dtype=int)
    sizes = np.zeros(k, dtype=int)
    for value in (0.0, 1.0):
        members = np.nonzero(labels == value)[0]
        if members.size < k:
            raise DataError(
                f"class {int(value)} has {members.size} member(s), fewer than k={k} folds"
            )
        counts = np.zeros(k, dtype=int)
        for idx in rng.permutation(members):
            fold = int(np.lexsort((np.arange(k), sizes, counts))[0])
            assignments[idx] = fold
            counts[fold] += 1
            sizes[fold] += 1
    return FoldPlan(k=k, assignments=assignments)


@dataclass(frozen=True)
class SelectionResult:
    """Grid search outcome: per-point criterion values and the winner."""

    criterion_kind: str
    configs: tuple
    criteria: np.ndarray
    messages: tuple
    best_index: int

    @property
    def best_config(self) -> FitConfig:
        return self.configs[self.best_index]

    @property
    def best_criterion(self) -> float:
        return float(self.criteria[self.best_index])

    def table(self):
        """Rows of (estimator, lambda, q, tau, criterion, message)."""
        rows = []
        for config, value, message in zip(self.configs, self.criteria, self.messages):
            rows.append(
                {
                    "estimator": config.estimator,
                    "lambda": config.lam,
                    "q": config.q,
                    "tau": config.tau,
                    "criterion": float(value),
                    "message": message,
                }
            )
        return rows


def _tie_break_key(config: FitConfig, index: int):
    # prefer the sparser model: larger penalty, then fewer components,
    # then stronger loading threshold, then grid order
    q = config.q if config.q is not None else 0
    return (-config.lam, q, -config.tau, index)


def _select_best(values: np.ndarray, configs, maximize: bool) -> int:
    finite = np.isfinite(values)
    if not np.any(finite):
        raise SelectionError("every grid point failed or was undefined")
    best = np.max(values[finite]) if maximize else np.min(values[finite])
    candidates = [i for i in np.nonzero(finite)[0] if values[i] == best]
    return min(candidates, key=lambda i: _tie_break_key(configs[i], i))


def _cv_point(data: LabeledCoefficients, config: FitConfig, folds: FoldPlan) -> float:
    """Fit one grid point across all folds; returns the mean held-out AUC."""
    scores = []
    for fold in range(folds.k):
        train, test = folds.split(fold)
        train_data = LabeledCoefficients(
            theta=data.theta[train], labels=data.labels[train], j0=data.j0, d=data.d
        )
        solution = fit_estimator(train_data, config)
        eta = data.theta[test] @ solution.omega + solution.intercept
        scores.append(auc(link_logistic(eta), data.labels[test]))
    return float(np.mean(scores))


def _cv_worker(args):
    index, data, config, folds = args
    try:
        return index, _cv_point(data, config, folds), None
    except (DataError, NumericalError) as exc:
        return index, np.nan, f"{type(exc).__name__}: {exc}"


def cross_validate(
    data: LabeledCoefficients, grid, folds: FoldPlan, n_jobs: int = 1
) -> SelectionResult:
    """Score every config by k-fold held-out AUC and pick the largest.

    Grid points whose fit fails on any fold are excluded; ties go to the
    sparser model (larger lambda, then smaller q).
    """
    grid = tuple(grid)
    if not grid:
        raise SelectionError("the configuration grid is empty")
    if folds.assignments.size != data.n:
        raise DataError("fold plan was built for a different number of observations")
    values = np.full(len(grid), np.nan)
    messages = [None] * len(grid)
    tasks = [(i, data, config, folds) for i, config in enumerate(grid)]
    if n_jobs == 1 or len(grid) == 1:
        results = map(_cv_worker, tasks)
    else:
        workers = n_jobs if n_jobs > 0 else (os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cv_worker, tasks))
    for index, value, message in results:
        values[index] = value
        messages[index] = message
    best = _select_best(values, grid, maximize=True)
    return SelectionResult(
        criterion_kind=CRITERION_CV_AUC,
        configs=grid,
        criteria=values,
        messages=tuple(messages),
        best_index=best,
    )


def aicc(solution: PenalizedSolution, data: LabeledCoefficients) -> float:
    """Corrected AIC: 2*NLL + 2k + 2k(k+1)/(n-k-1).

    k counts exactly-nonzero fitted parameters: gamma entries plus the
    intercept for reduced fits, omega entries plus the intercept otherwise.
    """
    if solution.gamma is not None:
        k_eff = int(np.count_nonzero(solution.gamma))
    else:
        k_eff = int(np.count_nonzero(solution.omega))
    k_eff += 1 if solution.intercept != 0.0 else 0
    n = data.n
    if n <= k_eff + 1:
        raise CriterionUndefinedError(
            f"corrected AIC needs n > k+1, got n={n} with k={k_eff} nonzero parameters"
        )
    nll = neg_log_likelihood(solution.state(), data)
    return 2.0 * nll + 2.0 * k_eff + 2.0 * k_eff * (k_eff + 1) / (n - k_eff - 1)


def _shared_reductions(data: LabeledCoefficients, grid) -> dict:
    """One PCA/PLS reduction per wpcr/wpls estimator in the grid.

    Each is built at the largest q of the grid that builds, so every
    config with a smaller or equal q slices it instead of refitting; a
    config with a larger q builds its own and fails as it would alone.
    """
    shared = {}
    for estimator in ("wpcr", "wpls"):
        for q in sorted({c.q for c in grid if c.estimator == estimator}, reverse=True):
            try:
                shared[estimator] = build_reduction(data, FitConfig(estimator=estimator, q=q))
                break
            except (DataError, NumericalError):
                continue
    return shared


def select_by_aicc(data: LabeledCoefficients, grid) -> SelectionResult:
    """Fit every config on the full data and pick the smallest corrected AIC.

    wpcr/wpls configs share one reduction (see :func:`_shared_reductions`).
    """
    grid = tuple(grid)
    if not grid:
        raise SelectionError("the configuration grid is empty")
    values = np.full(len(grid), np.nan)
    messages = [None] * len(grid)
    shared = _shared_reductions(data, grid)
    for index, config in enumerate(grid):
        basis = shared.get(config.estimator)
        if basis is not None:
            basis = basis.leading(config.q) if config.q <= basis.q else None
        try:
            solution = fit_estimator(data, config, basis=basis)
            values[index] = aicc(solution, data)
        except CriterionUndefinedError as exc:
            values[index] = np.inf
            messages[index] = f"{type(exc).__name__}: {exc}"
        except (DataError, NumericalError) as exc:
            messages[index] = f"{type(exc).__name__}: {exc}"
    best = _select_best(values, grid, maximize=False)
    return SelectionResult(
        criterion_kind=CRITERION_AICC,
        configs=grid,
        criteria=values,
        messages=tuple(messages),
        best_index=best,
    )


def default_lambda_grid(data: LabeledCoefficients, num: int = 20) -> np.ndarray:
    """Logarithmic grid from 1e-4*lambda_max up to lambda_max."""
    if num < 1:
        raise DataError(f"the lambda grid needs at least one point, got {num}")
    top = lambda_max(data)
    if top <= 0.0:
        return np.zeros(1)
    return np.geomspace(1e-4 * top, top, num)


def default_q_grid(n: int, d: int):
    """{1, 2, 4, 8, 16} capped at min(n-1, d)."""
    limit = min(n - 1, d)
    return tuple(q for q in (1, 2, 4, 8, 16) if q <= limit)


def default_tau_grid(data: LabeledCoefficients, estimator: str, q: int):
    """{0, tau_med, 2*tau_med}, tau_med = median |entry| of the dense loadings."""
    if estimator == "wcr":
        basis = pca_fit(data.theta, q)
    elif estimator == "wls":
        basis = pls_fit(data.theta, data.labels, q)
    else:
        raise DataError(f"tau grid only applies to wcr/wls, not {estimator!r}")
    tau_med = float(np.median(np.abs(basis.loadings)))
    return (0.0, tau_med, 2.0 * tau_med)
