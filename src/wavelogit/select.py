"""Tuning-parameter selection: stratified k-fold CV and corrected AIC.

Both criteria run one grid loop, :func:`_score_grid`, which fits every
config on one data set and slices one shared reduction per (estimator,
threshold) pair.  Cross-validation calls it once per fold, on that fold's
training set, so the reduction is refit inside every fold and no held-out
information leaks into the fit; it scores each grid point by mean
held-out AUC.  The corrected-AIC path calls it once on the full data and
penalizes by the exact-nonzero parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

CRITERION_CV_AUC = "cv_auc"
CRITERION_AICC = "aicc"


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: entry i, in 0..k-1, is the fold of observation i."""

    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", assignments)
        if assignments.ndim != 1 or assignments.min() < 0:
            raise DataError("fold assignments must be indices in 0..k-1")
        if self.k < 2:
            raise DataError(f"need at least 2 folds, got k={self.k}")

    @property
    def k(self) -> int:
        return int(self.assignments.max()) + 1

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
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
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
    return FoldPlan(assignments=assignments)


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


def _tie_break_key(config: FitConfig, index: int):
    # prefer the sparser model: larger penalty, then fewer components,
    # then stronger loading threshold, then grid order
    q = config.q if config.q is not None else 0
    return (-config.lam, q, -config.tau, index)


def _check_grid(grid) -> tuple:
    grid = tuple(grid)
    if not grid:
        raise SelectionError("the configuration grid is empty")
    return grid


def _selection(kind: str, grid: tuple, values: np.ndarray, messages) -> SelectionResult:
    finite = np.isfinite(values)
    if not np.any(finite):
        raise SelectionError("every grid point failed or was undefined")
    best = np.max(values[finite]) if kind == CRITERION_CV_AUC else np.min(values[finite])
    candidates = [i for i in np.nonzero(finite)[0] if values[i] == best]
    return SelectionResult(
        criterion_kind=kind,
        configs=grid,
        criteria=values,
        messages=tuple(messages),
        best_index=min(candidates, key=lambda i: _tie_break_key(grid[i], i)),
    )


def _heldout_auc(data: LabeledCoefficients, test: np.ndarray):
    theta, labels = data.theta[test], data.labels[test]
    return lambda solution: auc(link_logistic(theta @ solution.omega + solution.intercept), labels)


def cross_validate(data: LabeledCoefficients, grid, folds: FoldPlan) -> SelectionResult:
    """Score every config by k-fold held-out AUC and pick the largest.

    Grid points whose fit fails on any fold are excluded (and not fit on
    later folds); ties go to the sparser model (larger lambda, then
    smaller q).
    """
    grid = _check_grid(grid)
    if folds.assignments.size != data.n:
        raise DataError("fold plan was built for a different number of observations")
    # one column per fold, not a running sum: for k >= 8 folds a running
    # sum rounds differently from np.mean's pairwise sum of the k scores
    scores = np.zeros((len(grid), folds.k))
    messages = [None] * len(grid)
    for fold in range(folds.k):
        train, test = folds.split(fold)
        train_data = LabeledCoefficients(
            theta=data.theta[train], labels=data.labels[train], j0=data.j0
        )
        _score_grid(train_data, grid, _heldout_auc(data, test), scores[:, fold], messages)
    return _selection(CRITERION_CV_AUC, grid, scores.mean(axis=1), messages)


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
    """One reduction per (estimator, tau) pair in the grid, keyed by it.

    Each is built at the largest q of its configs that builds, so every
    config with a smaller or equal q slices it instead of refitting; a
    config with a larger q builds its own and fails as it would alone.
    Estimators without a reduction map to None.
    """
    shared = {}
    # a reduction does not depend on lambda, so each (estimator, tau, q) is tried once
    configs = dict.fromkeys(replace(config, lam=0.0) for config in grid)
    for config in sorted(configs, key=lambda c: c.q or 0, reverse=True):
        key = (config.estimator, config.tau)
        if key not in shared:
            try:
                shared[key] = build_reduction(data, config)
            except (DataError, NumericalError):
                pass
    return shared


def _score_grid(data: LabeledCoefficients, grid, criterion, values, messages) -> None:
    """Fit on ``data`` every config that has no message yet; store
    ``criterion(solution)`` in ``values``.

    Reduced configs slice one shared reduction (see
    :func:`_shared_reductions`).  A failed config gets a message and NaN,
    or +inf when the criterion is undefined, and later calls skip it.
    """
    pending = [i for i, message in enumerate(messages) if message is None]
    shared = _shared_reductions(data, [grid[i] for i in pending])
    for index in pending:
        config = grid[index]
        basis = shared.get((config.estimator, config.tau))
        if basis is not None:
            basis = basis.leading(config.q) if config.q <= basis.q else None
        try:
            values[index] = criterion(fit_estimator(data, config, basis=basis))
        except CriterionUndefinedError as exc:
            values[index] = np.inf
            messages[index] = f"{type(exc).__name__}: {exc}"
        except (DataError, NumericalError) as exc:
            values[index] = np.nan
            messages[index] = f"{type(exc).__name__}: {exc}"


def select_by_aicc(data: LabeledCoefficients, grid) -> SelectionResult:
    """Fit every config on the full data and pick the smallest corrected AIC."""
    grid = _check_grid(grid)
    values = np.zeros(len(grid))
    messages = [None] * len(grid)
    _score_grid(data, grid, lambda solution: aicc(solution, data), values, messages)
    return _selection(CRITERION_AICC, grid, values, messages)


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
    """{0, tau_med, 2*tau_med}, tau_med = median |entry| of the dense loadings
    (the reduction at tau = 0)."""
    if estimator not in ("wcr", "wls"):
        raise DataError(f"tau grid only applies to wcr/wls, not {estimator!r}")
    basis = build_reduction(data, FitConfig(estimator=estimator, q=q))
    tau_med = float(np.median(np.abs(basis.loadings)))
    return (0.0, tau_med, 2.0 * tau_med)
