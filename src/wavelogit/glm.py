"""Logistic regression on wavelet coefficients.

The model is P(Y=1 | x) = sigmoid(intercept + theta @ omega) where theta
holds the wavelet coefficients of the observed curve.  This module owns the
likelihood and its gradient, and the one damped-Newton routine that every
smooth logistic fit runs: the unpenalized maximum-likelihood fit
(``irls_fit``, also the zero-penalty reference for the penalized solvers),
the null fit behind ``lambda_max``, the ``wcr``/``wls`` fits and the
gamma-update of the ``wpcr``/``wpls`` ADMM, which adds a quadratic term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DataError,
    DimensionError,
    SeparationError,
    SingularityError,
)


@dataclass(frozen=True)
class LabeledCoefficients:
    """Coefficient matrix (n rows, d = theta.shape[1] columns) with binary labels."""

    theta: np.ndarray
    labels: np.ndarray
    j0: int

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "labels", labels)
        if theta.ndim != 2:
            raise DimensionError(f"theta must be 2-D, got ndim={theta.ndim}")
        n, d = theta.shape
        if labels.shape != (n,):
            raise DimensionError(
                f"labels shape {labels.shape} does not match {n} rows of theta"
            )
        if n < 2 or d < 2:
            raise DataError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataError("labels must contain only 0 and 1")
        if self.j0 < 0 or (1 << self.j0) >= d:
            raise DataError(f"j0={self.j0} incompatible with d={d}")

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]

    @property
    def n_scale(self) -> int:
        return 1 << self.j0

    def require_both_classes(self):
        if self.labels.min() == self.labels.max():
            raise DataError("fitting requires at least one observation of each class")


@dataclass(frozen=True)
class LinearModelState:
    """Wavelet-domain coefficient vector plus an unpenalized intercept."""

    omega: np.ndarray
    intercept: float

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if omega.ndim != 1:
            raise DimensionError(f"omega must be 1-D, got ndim={omega.ndim}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "intercept", float(self.intercept))


def linear_predictor(state: LinearModelState, theta_row) -> np.ndarray | float:
    """intercept + theta @ omega for one row or a stack of rows."""
    theta_row = np.asarray(theta_row, dtype=float)
    if theta_row.shape[-1] != state.omega.shape[0]:
        raise DimensionError(
            f"theta has {theta_row.shape[-1]} columns, omega has {state.omega.shape[0]}"
        )
    eta = theta_row @ state.omega + state.intercept
    return float(eta) if eta.ndim == 0 else eta


def link_logistic(eta):
    """Numerically stable sigmoid 1/(1 + exp(-eta)).

    Output is clamped to [1e-15, 1 - 1e-15] so a probability is never
    exactly 0 or 1; the clamp only binds for |eta| > ~34.5.
    """
    eta = np.asarray(eta, dtype=float)
    # exp(-|eta|) never overflows; np.minimum keeps a NaN's sign, which
    # -np.abs would flip
    ez = np.exp(np.minimum(eta, -eta))
    out = np.clip(np.where(eta >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez)), 1e-15, 1.0 - 1e-15)
    return float(out) if out.ndim == 0 else out


def _nll_from_eta(eta: np.ndarray, y: np.ndarray) -> float:
    # -[y log p + (1-y) log(1-p)] = log(1 + e^eta) - y*eta, stable via logaddexp
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def neg_log_likelihood(state: LinearModelState, data: LabeledCoefficients) -> float:
    """Bernoulli negative log-likelihood; finite for all finite inputs."""
    eta = linear_predictor(state, data.theta)
    return _nll_from_eta(np.asarray(eta), data.labels)


def _with_intercept(design: np.ndarray) -> np.ndarray:
    """``design`` with a leading column of ones (coefficient 0 is the intercept)."""
    return np.column_stack([np.ones(design.shape[0]), design])


def _nll_grad(aug: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """NLL and its gradient at ``beta`` for an intercept-augmented design."""
    eta = aug @ beta
    return _nll_from_eta(eta, y), aug.T @ (link_logistic(eta) - y)


def nll_gradient(state: LinearModelState, data: LabeledCoefficients):
    """Gradient of the NLL: (theta^T (p - y), sum(p - y))."""
    if state.omega.shape[0] != data.d:
        raise DimensionError(f"theta has {data.d} columns, omega has {state.omega.shape[0]}")
    beta = np.concatenate([[state.intercept], state.omega])
    _, grad = _nll_grad(_with_intercept(data.theta), data.labels, beta)
    return grad[1:], float(grad[0])


def _newton(aug, y, beta, max_iter: int, tol: float, quad=None, separation_bound=None):
    """Damped Newton for NLL(aug @ beta) + (rho/2)||A beta[1:] - b||^2.

    ``quad`` is ``(rho, A, b, A^T A)``, or None for the likelihood alone.
    Each step solves (H + 1e-10 I) step = g and is halved up to 40 times
    until the objective does not increase; the objective is first evaluated
    when a step is needed.  Returns (beta, steps taken) once the sup-norm
    of the gradient is at most ``tol``.  Raises ConvergenceError with the
    last iterate after ``max_iter`` steps or a failed halving,
    SingularityError on a singular system, and SeparationError when a
    non-intercept coefficient passes ``separation_bound``.
    """
    k = aug.shape[1]
    # without a quadratic term, an empty one with rho = 0 adds exact zeros
    rho, a_mat, target, gram = quad or (0.0, np.zeros((0, k - 1)), np.zeros(0), 0.0)
    value = None
    for steps in range(max_iter + 1):
        eta = aug @ beta
        p = link_logistic(eta)
        resid = a_mat @ beta[1:] - target
        grad = aug.T @ (p - y)
        grad[1:] += rho * (a_mat.T @ resid)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return beta, steps
        if steps == max_iter:
            raise ConvergenceError(
                f"Newton did not reach gradient tolerance {tol} in {max_iter} iterations",
                last_solution=(beta[1:].copy(), float(beta[0])),
                residual=gnorm,
            )
        hess = (aug * (p * (1.0 - p))[:, None]).T @ aug
        hess[1:, 1:] += rho * gram
        hess[np.diag_indices(k)] += 1e-10
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("the Newton system is singular") from exc
        if value is None:
            value = _nll_from_eta(eta, y) + 0.5 * rho * (resid @ resid)
        scale = 1.0
        for _ in range(40):
            cand = beta - scale * step
            r = a_mat @ cand[1:] - target
            cand_value = _nll_from_eta(aug @ cand, y) + 0.5 * rho * (r @ r)
            if cand_value <= value + 1e-12:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "step halving failed to decrease the objective",
                last_solution=(beta[1:].copy(), float(beta[0])),
                residual=gnorm,
            )
        beta, value = cand, cand_value
        if separation_bound is not None and np.max(np.abs(beta[1:])) > separation_bound:
            raise SeparationError(
                "coefficients diverged, which indicates separable classes; "
                "use fewer components (smaller q) or more sparsity (larger tau)"
            )


def irls_fit(
    data: LabeledCoefficients,
    max_iter: int = 100,
    tol: float = 1e-8,
    columns=None,
) -> LinearModelState:
    """Unpenalized maximum-likelihood fit.

    ``columns`` restricts the model to a subset of coefficient positions
    (an empty list fits the intercept alone); omitted positions stay 0.
    """
    data.require_both_classes()
    if columns is None:
        cols = np.arange(data.d)
    else:
        cols = np.asarray(columns, dtype=int)
    beta, _ = _newton(
        _with_intercept(data.theta[:, cols]), data.labels, np.zeros(cols.size + 1), max_iter, tol
    )
    omega = np.zeros(data.d)
    omega[cols] = beta[1:]
    return LinearModelState(omega=omega, intercept=float(beta[0]))
