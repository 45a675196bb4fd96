"""Fitted-model artifact: coefficients, provenance, and prediction.

A FittedModel bundles everything needed to score new curves: the wavelet
basis parameters, the coefficient vector omega with its intercept, and the
tuning parameters that produced them.  A reduced fit's omega already
carries its components (omega = V_q @ gamma), so the reduction is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DimensionError
from .glm import link_logistic
from .penalized import FitConfig, PenalizedSolution
from .wavelet import WaveletBasis, dwt_forward, dwt_inverse, make_basis


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FittedModel:
    """A fitted classifier plus the provenance needed to reproduce it."""

    estimator: str
    family: str
    j0: int
    d: int
    lam: float
    q: int | None
    tau: float
    intercept: float
    omega: np.ndarray
    kkt_residual: float
    iterations: int

    def __post_init__(self):
        if self.q is not None:
            object.__setattr__(self, "q", _as_int(self.q, "q"))
        # the tuning parameters must form the config that produced the fit
        FitConfig(estimator=self.estimator, lam=self.lam, q=self.q, tau=self.tau)
        object.__setattr__(self, "iterations", _as_int(self.iterations, "iterations"))
        if self.iterations < 0:
            raise DataError(f"iterations must be >= 0, got {self.iterations}")
        if not (np.isfinite(self.kkt_residual) and self.kkt_residual >= 0):
            raise DataError(f"kkt_residual must be finite and >= 0, got {self.kkt_residual!r}")
        # a family, j0 or d that cannot score curves fails here, not at predict
        self.wavelet_basis()
        omega = np.ascontiguousarray(np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "omega", omega)
        if omega.shape != (self.d,):
            raise DimensionError(f"omega has shape {omega.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(omega)) or not np.isfinite(self.intercept):
            raise DataError("model coefficients must be finite")

    def wavelet_basis(self) -> WaveletBasis:
        return make_basis(self.family, self.j0, self.d)

    def predict_proba(self, curves) -> np.ndarray:
        """Class-1 probability for each time-domain curve (row)."""
        theta = dwt_forward(curves, self.wavelet_basis())
        return link_logistic(theta @ self.omega + self.intercept)

    def beta(self) -> np.ndarray:
        """The discriminant function sampled on the model's time grid."""
        return dwt_inverse(self.omega, self.wavelet_basis())


def model_from_fit(
    solution: PenalizedSolution, config: FitConfig, basis: WaveletBasis
) -> FittedModel:
    """Package a solver result and its provenance into a FittedModel."""
    return FittedModel(
        estimator=config.estimator,
        family=basis.family,
        j0=basis.j0,
        d=basis.d,
        lam=config.lam,
        q=config.q,
        tau=config.tau,
        intercept=solution.intercept,
        omega=solution.omega,
        kkt_residual=solution.kkt_residual,
        iterations=solution.iterations,
    )
