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
    NumericalError,
    SeparationError,
    SingularityError,
)
from .wavelet import WaveletBasis


@dataclass(frozen=True)
class LabeledCoefficients:
    """Coefficient matrix (n rows, ``basis.d`` columns) with binary labels;
    its first ``basis.n_scale`` columns are the scale block."""

    theta: np.ndarray
    labels: np.ndarray
    basis: WaveletBasis

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
        if d != self.basis.d:
            raise DimensionError(f"theta has {d} columns, basis expects d={self.basis.d}")
        if n < 2:
            raise DataError(f"need n >= 2, got n={n}")
        if not np.all(np.isfinite(theta)):
            raise DataError("coefficients must be finite")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataError("labels must contain only 0 and 1")
        # finite coefficients this large overflow every fitter's products
        # (norms, Gram matrices, the SVD), so no fit starts on them
        with np.errstate(over="ignore"):
            if not np.isfinite(np.vdot(theta, theta)):
                raise NumericalError(
                    "coefficients are too large to fit: their sum of squares overflows"
                )

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]

    def require_both_classes(self):
        if self.labels.min() == self.labels.max():
            raise DataError("fitting requires at least one observation of each class")


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


def _check_omega(omega, data: LabeledCoefficients) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (data.d,):
        raise DimensionError(f"omega has shape {omega.shape}, expected ({data.d},)")
    return omega


def neg_log_likelihood(omega, intercept: float, data: LabeledCoefficients) -> float:
    """Bernoulli negative log-likelihood of intercept + theta @ omega; finite
    for all finite inputs."""
    omega = _check_omega(omega, data)
    return _nll_from_eta(data.theta @ omega + intercept, data.labels)


def _with_intercept(design: np.ndarray) -> np.ndarray:
    """``design`` with a leading column of ones (coefficient 0 is the intercept)."""
    return np.column_stack([np.ones(design.shape[0]), design])


def _nll_grad(aug: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """NLL and its gradient at ``beta`` for an intercept-augmented design."""
    eta = aug @ beta
    return _nll_from_eta(eta, y), aug.T @ (link_logistic(eta) - y)


def nll_gradient(omega, intercept: float, data: LabeledCoefficients):
    """Gradient of the NLL in (omega, intercept): (theta^T (p - y), sum(p - y))."""
    beta = np.concatenate([[intercept], _check_omega(omega, data)])
    _, grad = _nll_grad(_with_intercept(data.theta), data.labels, beta)
    return grad[1:], float(grad[0])


def _newton(aug, y, beta, max_iter: int, tol: float, quad=None, separation_bound=None):
    """Damped Newton for NLL(aug @ beta) + (rho/2)||A beta[1:] - b||^2.

    ``quad`` is ``(rho, A, b, A^T A)``, or None for the likelihood alone.
    Each step solves (H + 1e-10 I) step = g and is halved up to 40 times
    until the objective does not increase; the objective is first evaluated
    when a step is needed, and the accepted step's eta and residual serve
    the next gradient.  Returns (beta, steps taken) once the sup-norm of
    the gradient is at most ``tol``.  Raises ConvergenceError with that
    sup-norm after ``max_iter`` steps or a failed halving,
    SingularityError on a singular system, and SeparationError when a
    non-intercept coefficient passes ``separation_bound``.
    """
    k = aug.shape[1]
    # without a quadratic term, an empty one with rho = 0 adds exact zeros
    rho, a_mat, target, gram = quad or (0.0, np.zeros((0, k - 1)), np.zeros(0), 0.0)
    eta = aug @ beta
    resid = a_mat @ beta[1:] - target
    value = None
    for steps in range(max_iter + 1):
        p = link_logistic(eta)
        grad = aug.T @ (p - y)
        grad[1:] += rho * (a_mat.T @ resid)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return beta, steps
        if steps == max_iter:
            raise ConvergenceError(
                f"Newton did not reach gradient tolerance {tol} in {max_iter} iterations",
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
            cand_eta = aug @ cand
            cand_resid = a_mat @ cand[1:] - target
            cand_value = _nll_from_eta(cand_eta, y) + 0.5 * rho * (cand_resid @ cand_resid)
            if cand_value <= value + 1e-12:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "step halving failed to decrease the objective", residual=gnorm
            )
        beta, eta, resid, value = cand, cand_eta, cand_resid, cand_value
        if separation_bound is not None and np.max(np.abs(beta[1:])) > separation_bound:
            raise SeparationError(
                "coefficients diverged, which indicates separable classes; "
                "use fewer components (smaller q) or more sparsity (larger tau)"
            )


def irls_fit(
    data: LabeledCoefficients, max_iter: int = 100, tol: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Unpenalized maximum-likelihood fit; returns (omega, intercept)."""
    data.require_both_classes()
    beta, _ = _newton(
        _with_intercept(data.theta), data.labels, np.zeros(data.d + 1), max_iter, tol
    )
    return beta[1:], float(beta[0])
