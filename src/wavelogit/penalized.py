"""Penalized logistic estimators in the wavelet domain.

Five estimators share one objective shape: the Bernoulli negative
log-likelihood plus an l1 penalty on the detail coefficients, optionally
restricted to a reduced subspace omega = V_q @ gamma.

- wnet: penalty only, solved by accelerated proximal gradient (monotone
  restart, backtracking step size); a step does two products with the
  design, two with its transpose and two likelihood sums, plus one product
  and one sum per backtrack.
- wpcr / wpls: penalty plus subspace constraint, a generalized lasso in
  gamma, solved by residual-balanced, over-relaxed ADMM.
- wcr / wls: subspace constraint only, no penalty; wls may soft-threshold
  its PLS loadings at tau.

Every smooth subproblem goes to the damped Newton routine of ``glm``: the
wcr/wls fit, the ADMM gamma-update (likelihood plus the augmented-Lagrangian
quadratic) and the null fit shared by ``lambda_max`` and the wnet warm start.
The intercept and the scale block (the first ``basis.n_scale`` coefficients)
are never penalized; the penalized block is the slice after them.
"""

from __future__ import annotations

from dataclasses import dataclass
import numbers

import numpy as np

from .exceptions import ConvergenceError, DataError, DimensionError, NumericalError, _as_int
from .glm import (
    LabeledCoefficients,
    _newton,
    _nll_from_eta,
    _nll_grad,
    _with_intercept,
    link_logistic,
)
from .reduce import pca_fit, soft_threshold, sparse_component_fit

# estimator -> (the reduction it fits in: None, "pca" or "pls"; its one
# tuning parameter besides q: "lam", the l1 penalty, "tau", the PLS loading
# threshold, or None)
_TAXONOMY = {
    "wnet": (None, "lam"),
    "wcr": ("pca", None),
    "wls": ("pls", "tau"),
    "wpcr": ("pca", "lam"),
    "wpls": ("pls", "lam"),
}
ESTIMATORS = tuple(_TAXONOMY)

# ADMM penalty adaptation (Boyd et al. 2011, Distributed Optimization and
# Statistical Learning via ADMM, sections 3.4.1 and 3.4.3): rho is scaled by
# _RHO_STEP whenever one residual exceeds _BALANCE_RATIO times the other, and
# the z- and dual updates are over-relaxed with parameter _RELAXATION
_BALANCE_RATIO = 10.0
_RHO_STEP = 2.0
_RELAXATION = 1.6


class _UntakenParameter(DataError):
    """A tuning parameter is set that the estimator does not take."""


@dataclass(frozen=True)
class FitConfig:
    """Estimator choice plus its tuning parameters and solver limits.

    A reduced estimator takes ``q``, and each estimator at most one of
    ``lam`` and ``tau``, as ``_TAXONOMY`` records; a parameter the
    estimator does not take must keep its default.
    ``tol`` (relative objective change) governs ``wnet`` only: the ADMM of
    ``wpcr``/``wpls`` stops on fixed primal and dual residual thresholds,
    and every Newton solve (``wcr``/``wls`` fits, ADMM gamma-updates, null
    fits) stops on a fixed gradient tolerance and cap.  ``max_iter`` caps
    ``wnet`` and the ADMM.
    """

    estimator: str
    lam: float = 0.0
    q: int | None = None
    tau: float = 0.0
    tol: float = 1e-7
    max_iter: int = 5000

    def __post_init__(self):
        if self.q is not None:
            object.__setattr__(self, "q", _as_int(self.q, "q"))
        object.__setattr__(self, "max_iter", _as_int(self.max_iter, "max_iter"))
        if self.estimator not in ESTIMATORS:
            raise DataError(f"unknown estimator {self.estimator!r} (choose from {ESTIMATORS})")
        for name in ("lam", "tau", "tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DataError(f"{name} must be a real number, got {value!r}")
            if not (np.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and >= 0, got {value}")
        if self.tol <= 0:
            raise DataError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")
        reduction, tuning = _TAXONOMY[self.estimator]
        if reduction is None and self.q is not None:
            raise DataError(f"estimator {self.estimator!r} takes no q, got q={self.q}")
        if reduction is not None and (self.q is None or self.q < 1):
            raise DataError(f"estimator {self.estimator!r} needs a component count q >= 1")
        for name, label in (("tau", "tau"), ("lam", "lambda")):
            value = getattr(self, name)
            if name != tuning and value != 0:
                raise _UntakenParameter(
                    f"estimator {self.estimator!r} takes no {label}, got {label}={value}"
                )


@dataclass(frozen=True)
class PenalizedSolution:
    """Fitted coefficients and their optimality certificate, ``kkt_residual``:
    the l1 stationarity violation (wnet), the larger ADMM residual
    (wpcr/wpls) or the gradient sup-norm (wcr/wls)."""

    omega: np.ndarray
    intercept: float
    gamma: np.ndarray | None
    kkt_residual: float
    nonzero_detail_count: int
    iterations: int


def _null_fit(data: LabeledCoefficients, aug: np.ndarray) -> np.ndarray:
    """Maximum-likelihood fit of the intercept and scale block (the lasso
    null model); detail coordinates stay 0.  ``lambda_max`` and the wnet
    warm start both fit on the full augmented design, so the solver starts
    at the detail gradients that define lambda_max, bit for bit."""
    free = 1 + data.basis.n_scale
    beta = np.zeros(aug.shape[1])
    beta[:free], _ = _newton(aug[:, :free], data.labels, beta[:free], 200, 1e-10)
    return beta


def lambda_max(data: LabeledCoefficients) -> float:
    """Smallest penalty that zeroes the whole detail block.

    Computed as the sup-norm of the detail-coordinate gradient at the
    scale-plus-intercept maximum-likelihood fit (the lasso null model).
    """
    data.require_both_classes()
    aug = _with_intercept(data.theta)
    _, grad = _nll_grad(aug, data.labels, _null_fit(data, aug))
    return float(np.max(np.abs(grad[1 + data.basis.n_scale :])))


def _kkt_residual(grad: np.ndarray, beta: np.ndarray, lam: float, free: int) -> float:
    """Sup-norm violation of the l1 stationarity conditions.

    The first ``free`` coordinates are unpenalized and must have zero
    gradient at an optimum. A penalized zero violates by how far |g| passes
    ``lam``, a penalized nonzero by |g + lam sign(b)|; one maximum keeps a NaN.
    """
    violation = np.abs(grad)
    g, b = grad[free:], beta[free:]
    violation[free:] = np.where(b == 0.0, violation[free:] - lam, np.abs(g + lam * np.sign(b)))
    return float(np.max(violation, initial=0.0))


def fit_wnet(data: LabeledCoefficients, config: FitConfig) -> PenalizedSolution:
    """l1-penalized fit by accelerated proximal gradient with monotone restart."""
    if config.estimator != "wnet":
        raise DataError(f"fit_wnet called with estimator {config.estimator!r}")
    data.require_both_classes()
    lam = config.lam
    y = data.labels
    n = data.n
    # column 0 is the intercept; penalty applies to the detail slice only
    aug = _with_intercept(data.theta)
    free = 1 + data.basis.n_scale

    def prox(beta, step):
        out = beta.copy()
        out[free:] = soft_threshold(beta[free:], step * lam)
        return out

    # optimistic curvature estimate; backtracking doubles it as needed
    lipschitz = max(np.sum(aug * aug) / (4.0 * n), 1e-12)

    def descend(point):
        """One backtracked proximal-gradient step from ``point``: the accepted
        candidate, its linear predictor and its objective."""
        nonlocal lipschitz
        nll_p, grad_p = _nll_grad(aug, y, point)
        while True:
            step = 1.0 / lipschitz
            cand = prox(point - step * grad_p, step)
            diff = cand - point
            bound = nll_p + grad_p @ diff + (diff @ diff) / (2.0 * step)
            eta = aug @ cand
            nll = _nll_from_eta(eta, y)
            if nll <= bound + 1e-12:
                return cand, eta, nll + lam * np.sum(np.abs(cand[free:]))
            lipschitz *= 2.0
            if not np.isfinite(lipschitz):
                raise NumericalError(
                    "wnet backtracking found no step: the likelihood or its "
                    "gradient is not finite at these coefficients"
                )

    # warm start at the null fit that defines lambda_max, so any lam at or
    # above it keeps the detail block exactly zero from step one
    try:
        beta = _null_fit(data, aug)
    except NumericalError:
        beta = np.zeros(aug.shape[1])
    momentum = beta.copy()
    t_k = 1.0
    eta = aug @ beta
    obj = _nll_from_eta(eta, y) + lam * np.sum(np.abs(beta[free:]))
    kkt = np.inf
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        cand, cand_eta, cand_obj = descend(momentum)
        if cand_obj > obj + 1e-12:
            # momentum overshot: restart acceleration from the accepted iterate
            t_k = 1.0
            cand, cand_eta, cand_obj = descend(beta)
            if cand_obj > obj + 1e-12:
                cand, cand_eta, cand_obj = beta, eta, obj
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = cand + ((t_k - 1.0) / t_next) * (cand - beta)
        t_k = t_next
        rel_change = abs(obj - cand_obj) / max(1.0, abs(obj))
        beta, eta, obj = cand, cand_eta, cand_obj
        kkt = _kkt_residual(aug.T @ (link_logistic(eta) - y), beta, lam, free)
        if kkt <= 1e-5 and rel_change <= config.tol:
            break
    else:
        raise ConvergenceError(
            f"proximal gradient did not converge in {config.max_iter} iterations "
            f"(KKT residual {kkt:.3e})",
            residual=kkt,
        )
    omega = beta[1:]
    return PenalizedSolution(
        omega=omega,
        intercept=float(beta[0]),
        gamma=None,
        kkt_residual=kkt,
        nonzero_detail_count=int(np.count_nonzero(beta[free:])),
        iterations=iterations,
    )


def _check_loadings(data: LabeledCoefficients, loadings) -> np.ndarray:
    """``loadings`` as a d x q array; ``data`` must hold both classes."""
    data.require_both_classes()
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2 or loadings.shape[0] != data.d:
        raise DimensionError(
            f"loadings must be a d x q matrix with d={data.d} rows, got shape {loadings.shape}"
        )
    return loadings


def fit_reduced_penalized(
    data: LabeledCoefficients, loadings: np.ndarray, config: FitConfig
) -> PenalizedSolution:
    """Penalized fit constrained to omega = V_q @ gamma, solved by ADMM.

    The splitting variable is z = D V_q gamma (the detail block of omega),
    so the l1 prox stays separable while gamma carries the likelihood.
    rho adapts by residual balancing and the z- and dual updates are
    over-relaxed; the stopping test is on the primal and dual residuals.
    """
    loadings = _check_loadings(data, loadings)
    lam = config.lam
    y = data.labels
    q = loadings.shape[1]
    # design in gamma space, with an intercept column
    design = _with_intercept(data.theta @ loadings)
    d_map = loadings[data.basis.n_scale :]  # maps gamma to the penalized block
    gram = d_map.T @ d_map
    rho = max(lam, 1.0)
    coef = np.zeros(q + 1)
    z = np.zeros(d_map.shape[0])
    dual = np.zeros_like(z)
    eps_primal = 1e-6 * np.sqrt(z.size)
    eps_dual = 1e-6 * np.sqrt(q + 1)
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iter + 1):
        # gamma-update: the smooth subproblem NLL + (rho/2)||D g - (z - u)||^2
        coef, _ = _newton(design, y, coef, 50, 1e-9 * max(1.0, rho), (rho, d_map, z - dual, gram))
        pen_block = d_map @ coef[1:]
        # over-relaxation: the z- and dual updates see a blend of the new
        # D gamma and the previous z
        relaxed = _RELAXATION * pen_block + (1.0 - _RELAXATION) * z
        z_new = soft_threshold(relaxed + dual, lam / rho)
        dual_res = rho * np.linalg.norm(d_map.T @ (z_new - z))
        dual = dual + relaxed - z_new
        z = z_new
        primal_res = np.linalg.norm(pen_block - z)
        if primal_res <= eps_primal and dual_res <= eps_dual:
            converged = True
            break
        # residual balancing; the scaled dual u = y / rho must follow rho,
        # or the iteration stalls or settles away from the optimum
        if primal_res > _BALANCE_RATIO * dual_res:
            rho *= _RHO_STEP
            dual /= _RHO_STEP
        elif dual_res > _BALANCE_RATIO * primal_res:
            rho /= _RHO_STEP
            dual *= _RHO_STEP
    if not converged:
        raise ConvergenceError(
            f"ADMM did not converge in {config.max_iter} iterations "
            f"(primal residual {primal_res:.3e}, dual residual {dual_res:.3e})",
            residual=float(max(primal_res, dual_res)),
        )
    gamma = coef[1:]
    omega = loadings @ gamma
    # sparsity is read off the prox variable: the detail block of omega is
    # only feasibility-close to z, never exactly zero
    return PenalizedSolution(
        omega=omega,
        intercept=float(coef[0]),
        gamma=gamma,
        kkt_residual=float(max(primal_res, dual_res)),
        nonzero_detail_count=int(np.count_nonzero(z)),
        iterations=iterations,
    )


def fit_reduced_unpenalized(
    data: LabeledCoefficients, loadings: np.ndarray, config: FitConfig
) -> PenalizedSolution:
    """Maximum-likelihood fit of gamma on a reduced design by Newton."""
    loadings = _check_loadings(data, loadings)
    aug = _with_intercept(data.theta @ loadings)
    coef, iterations = _newton(
        aug, data.labels, np.zeros(aug.shape[1]), 200, 1e-8, separation_bound=1e3
    )
    gamma, intercept = coef[1:], float(coef[0])
    omega = loadings @ gamma
    grad = aug.T @ (link_logistic(aug @ coef) - data.labels)
    return PenalizedSolution(
        omega=omega,
        intercept=intercept,
        gamma=gamma,
        kkt_residual=float(np.max(np.abs(grad))),
        nonzero_detail_count=int(np.count_nonzero(omega[data.basis.n_scale :])),
        iterations=iterations,
    )


def build_reduction(data: LabeledCoefficients, config: FitConfig) -> np.ndarray | None:
    """The loadings an estimator needs, fit on the training data; None for wnet."""
    reduction = _TAXONOMY[config.estimator][0]
    if reduction is None:
        return None
    if reduction == "pca":
        return pca_fit(data.theta, config.q)
    return sparse_component_fit(data.theta, data.labels, config.q, config.tau)


def fit_estimator(
    data: LabeledCoefficients, config: FitConfig, loadings: np.ndarray | None = None
) -> PenalizedSolution:
    """Dispatch a config to its solver, building the reduction if needed."""
    reduction, tuning = _TAXONOMY[config.estimator]
    if reduction is None:
        return fit_wnet(data, config)
    if loadings is None:
        loadings = build_reduction(data, config)
    solver = fit_reduced_penalized if tuning == "lam" else fit_reduced_unpenalized
    return solver(data, loadings, config)
