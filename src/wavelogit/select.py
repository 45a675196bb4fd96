"""Tuning-parameter selection: stratified k-fold CV and corrected AIC.

Both criteria run one grid loop, :func:`_score_grid`, which fits every
config on one data set with the loadings :func:`_reductions` slices from one
shared reduction per (estimator, threshold) pair, as the CLI's default
threshold grid does.  Cross-validation calls it once per fold, on that fold's
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
    _as_int,
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


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: entry i, in 0..k-1, is the fold of observation i,
    and every fold has a member."""

    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", assignments)
        if assignments.ndim != 1 or assignments.size == 0 or assignments.min() < 0:
            raise DataError("fold assignments must be indices in 0..k-1")
        if self.k < 2:
            raise DataError(f"need at least 2 folds, got k={self.k}")
        empty = np.flatnonzero(np.bincount(assignments) == 0)
        if empty.size:
            raise DataError(
                f"fold {empty[0]} has no members; assignments must use every fold 0..{self.k - 1}"
            )

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
    breaking ties by fewest members overall, then smallest fold, which
    keeps both per-class counts and total fold sizes within one of each
    other.  With each class in a seeded random order, that is a round-robin
    continuing where the class before stopped: class 0's i-th member goes
    to fold i mod k, class 1's j-th to fold (m0 + j) mod k, where m0 is the
    class-0 count.
    """
    labels = np.asarray(labels, dtype=float)
    if _as_int(k, "k") < 2:
        raise DataError(f"need at least 2 folds, got k={k}")
    if _as_int(seed, "seed") < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("labels must contain only 0 and 1")
    rng = np.random.default_rng(seed)
    assignments = np.empty(labels.size, dtype=int)
    dealt = 0
    for value in (0.0, 1.0):
        members = np.nonzero(labels == value)[0]
        if members.size < k:
            raise DataError(
                f"class {int(value)} has {members.size} member(s), fewer than k={k} folds"
            )
        assignments[rng.permutation(members)] = (dealt + np.arange(members.size)) % k
        dealt += members.size
    return FoldPlan(assignments=assignments)


@dataclass(frozen=True)
class SelectionResult:
    """Grid search outcome: per-point criterion values and the winner."""

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


def _selection(grid: tuple, values: np.ndarray, messages, pick) -> SelectionResult:
    finite = np.isfinite(values)
    if not np.any(finite):
        raise SelectionError("every grid point failed or was undefined")
    best = pick(values[finite])
    candidates = [i for i in np.nonzero(finite)[0] if values[i] == best]
    return SelectionResult(
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
            theta=data.theta[train], labels=data.labels[train], basis=data.basis
        )
        _score_grid(train_data, grid, _heldout_auc(data, test), scores[:, fold], messages)
    return _selection(grid, scores.mean(axis=1), messages, np.max)


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
    nll = neg_log_likelihood(solution.omega, solution.intercept, data)
    return 2.0 * nll + 2.0 * k_eff + 2.0 * k_eff * (k_eff + 1) / (n - k_eff - 1)


def _reductions(data: LabeledCoefficients, configs):
    """A lookup from each of ``configs`` to the loadings it can slice.

    One reduction is built per (estimator, tau) pair, at the largest q of
    its configs that builds.  The lookup gives a config the first q columns
    of its pair's reduction, which equal a fresh fit at q, or None where
    there is nothing to slice; a config given None builds its own reduction
    and fails as it would alone.
    """
    shared = {}
    # a reduction does not depend on lambda, so each (estimator, tau, q) is tried once
    tried = dict.fromkeys(replace(config, lam=0.0) for config in configs)
    for config in sorted(tried, key=lambda c: c.q or 0, reverse=True):
        key = (config.estimator, config.tau)
        if key not in shared:
            try:
                shared[key] = build_reduction(data, config)
            except (DataError, NumericalError):
                pass

    def loadings(config: FitConfig):
        dense = shared.get((config.estimator, config.tau))
        if dense is None or config.q > dense.shape[1]:
            return None
        # a contiguous copy keeps the matrix products' bits those of a fresh fit
        return np.ascontiguousarray(dense[:, : config.q])

    return loadings


def _score_grid(data: LabeledCoefficients, grid, criterion, values, messages) -> None:
    """Fit on ``data`` every config that has no message yet; store
    ``criterion(solution)`` in ``values``.

    Each config gets the loadings :func:`_reductions` looks up for it.  A
    failed config gets a message and NaN, or +inf when the criterion is
    undefined, and later calls skip it.
    """
    pending = [i for i, message in enumerate(messages) if message is None]
    loadings = _reductions(data, [grid[i] for i in pending])
    for index in pending:
        config = grid[index]
        try:
            values[index] = criterion(fit_estimator(data, config, loadings=loadings(config)))
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
    return _selection(grid, values, messages, np.min)


def default_lambda_grid(data: LabeledCoefficients, num: int = 20) -> np.ndarray:
    """Logarithmic grid from 1e-4*lambda_max up to lambda_max."""
    if _as_int(num, "num") < 1:
        raise DataError(f"the lambda grid needs at least one point, got {num}")
    top = lambda_max(data)
    if top <= 0.0:
        return np.zeros(1)
    return np.geomspace(1e-4 * top, top, num)


def default_q_grid(n: int, d: int):
    """{1, 2, 4, 8, 16} capped at min(n-1, d)."""
    limit = min(n - 1, d)
    return tuple(q for q in (1, 2, 4, 8, 16) if q <= limit)


def default_tau_grid(loadings):
    """wls's tau grid {0, tau_med, 2*tau_med}, tau_med = median |entry| of
    ``loadings``, the dense PLS reduction (tau = 0) at the grid's q."""
    tau_med = float(np.median(np.abs(loadings)))
    return (0.0, tau_med, 2.0 * tau_med)
