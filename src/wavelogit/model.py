"""Fitted-model artifact: coefficients, provenance, and prediction.

A FittedModel bundles everything needed to score new curves: the wavelet
basis, the coefficient vector omega with its intercept, and the config
that produced them.  A reduced fit's omega already carries its components
(omega = V_q @ gamma), so the reduction is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DimensionError, _as_int
from .glm import link_logistic
from .penalized import FitConfig, PenalizedSolution
from .wavelet import WaveletBasis, _as_batch, _row_blocks, dwt_forward, dwt_inverse


@dataclass(frozen=True)
class FittedModel:
    """A fitted classifier plus the provenance needed to reproduce it.

    ``config`` is the estimator and tuning parameters of the fit, and
    ``basis`` the wavelet basis it ran in; scoring and ``beta`` use it.  A
    model file stores no solver limits, so a loaded model's ``config.tol``
    and ``config.max_iter`` are the defaults.
    """

    config: FitConfig
    basis: WaveletBasis
    intercept: float
    omega: np.ndarray
    kkt_residual: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "iterations", _as_int(self.iterations, "iterations"))
        if self.iterations < 0:
            raise DataError(f"iterations must be >= 0, got {self.iterations}")
        if not (np.isfinite(self.kkt_residual) and self.kkt_residual >= 0):
            raise DataError(f"kkt_residual must be finite and >= 0, got {self.kkt_residual!r}")
        omega = np.ascontiguousarray(np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "omega", omega)
        if omega.shape != (self.basis.d,):
            raise DimensionError(f"omega has shape {omega.shape}, expected ({self.basis.d},)")
        if not np.all(np.isfinite(omega)) or not np.isfinite(self.intercept):
            raise DataError("model coefficients must be finite")

    def predict_proba(self, curves) -> np.ndarray:
        """Class-1 probability for each time-domain curve (row).

        Rows are transformed and scored one block at a time, so the
        coefficients of the whole batch are never held. Each block's scores
        are one matrix-vector product, so a file scored block by block, as
        ``predict`` does, gets the bits of the whole array. A curve whose
        linear predictor is not finite (its values overflow) raises DataError.
        """
        batch, squeeze = _as_batch(curves, self.basis.d, "signal")
        probs = np.empty(batch.shape[0])
        for block, out in _row_blocks(batch, probs):
            with np.errstate(over="ignore", invalid="ignore"):
                eta = dwt_forward(block, self.basis) @ self.omega + self.intercept
            if not np.all(np.isfinite(eta)):
                raise DataError("a curve's linear predictor is not finite: its values overflow")
            out[:] = link_logistic(eta)
        return probs[0] if squeeze else probs

    def beta(self) -> np.ndarray:
        """The discriminant function sampled on the model's time grid."""
        return dwt_inverse(self.omega, self.basis)


def model_from_fit(
    solution: PenalizedSolution, config: FitConfig, basis: WaveletBasis
) -> FittedModel:
    """Package a solver result and its provenance into a FittedModel."""
    return FittedModel(
        config=config,
        basis=basis,
        intercept=solution.intercept,
        omega=solution.omega,
        kkt_residual=solution.kkt_residual,
        iterations=solution.iterations,
    )
