"""Tests for the fitted-model artifact."""

import numpy as np
import pytest

from wavelogit.exceptions import DataError, DimensionError
from wavelogit.glm import LabeledCoefficients, link_logistic
from wavelogit.model import FittedModel, model_from_fit
from wavelogit.penalized import FitConfig, fit_estimator
from wavelogit.wavelet import WaveletBasis, dwt_forward, dwt_inverse, make_basis


def make_model(omega=None, d=16, j0=2, family="db4", intercept=0.3, **overrides):
    fields = dict(
        config=FitConfig(estimator="wnet", lam=0.2),
        basis=WaveletBasis(family=family, j0=j0, d=d),
        intercept=intercept,
        omega=np.zeros(d) if omega is None else omega,
        kkt_residual=1e-6,
        iterations=10,
    )
    fields.update(overrides)
    return FittedModel(**fields)


class TestFittedModel:
    def test_validation(self):
        with pytest.raises(DataError):
            make_model(family="bogus")
        with pytest.raises(DimensionError):
            make_model(omega=np.zeros(8))
        with pytest.raises(DataError):
            make_model(omega=np.full(16, np.nan))
        # the wavelet basis is checked when the model is built, not at predict
        with pytest.raises(DataError):
            make_model(j0="2")
        with pytest.raises(DataError):
            make_model(j0=4)  # no detail levels left for d=16
        with pytest.raises(DataError):
            make_model(d=12, omega=np.zeros(12))
        with pytest.raises(DataError):
            make_model(iterations=2.5)
        with pytest.raises(DataError):
            make_model(iterations=-1)

    def test_predict_proba_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        omega = rng.standard_normal(16) * 0.3
        model = make_model(omega=omega)
        curves = rng.standard_normal((20, 16))
        basis = make_basis("db4", 2, 16)
        expected = link_logistic(dwt_forward(curves, basis) @ omega + 0.3)
        assert np.array_equal(model.predict_proba(curves), expected)

    def test_predict_rejects_wrong_length(self):
        model = make_model()
        with pytest.raises(DimensionError):
            model.predict_proba(np.zeros((3, 8)))

    def test_predict_refuses_a_curve_that_overflows(self):
        """Finite values of 1e308 overflow the transform; the score was NaN."""
        model = make_model(omega=np.full(16, 0.1))
        curves = np.zeros((3, 16))
        curves[1] = 1e308
        with pytest.raises(DataError, match="linear predictor is not finite"):
            model.predict_proba(curves)

    def test_beta_is_inverse_transform(self):
        rng = np.random.default_rng(1)
        omega = rng.standard_normal(16)
        model = make_model(omega=omega)
        np.testing.assert_array_equal(
            model.beta(), dwt_inverse(omega, make_basis("db4", 2, 16))
        )


class TestModelFromFit:
    def test_wnet_has_no_reduction(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((40, 16))
        labels = (np.arange(40) % 2).astype(float)
        data = LabeledCoefficients(theta=theta, labels=labels, basis=make_basis("db4", 2, 16))
        config = FitConfig(estimator="wnet", lam=0.5)
        solution = fit_estimator(data, config)
        basis = make_basis("db4", 2, 16)
        model = model_from_fit(solution, config, basis)
        assert model.basis is basis and model.config is config
        assert np.array_equal(model.omega, solution.omega)
        assert model.intercept == solution.intercept
