"""Tests for the penalized and reduced-basis logistic solvers."""

import numpy as np
import pytest

from wavelogit.exceptions import DataError, SeparationError
from wavelogit.glm import (
    LabeledCoefficients,
    _newton,
    irls_fit,
    link_logistic,
    neg_log_likelihood,
    nll_gradient,
)
from wavelogit.metrics import auc
from wavelogit.penalized import (
    FitConfig,
    _kkt_residual,
    build_reduction,
    fit_estimator,
    fit_wnet,
    lambda_max,
    soft_threshold,
)
from wavelogit.select import cross_validate, default_lambda_grid, make_folds
from wavelogit.wavelet import dwt_forward, dwt_inverse, make_basis


def random_instance(rng, n, d, j0=2, strength=1.0):
    theta = rng.standard_normal((n, d))
    w = rng.standard_normal(d) * strength / np.sqrt(d)
    y = (rng.random(n) < link_logistic(theta @ w)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return LabeledCoefficients(theta=theta, labels=y, j0=j0)


class TestSoftThreshold:
    def test_worked_examples(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError):
            soft_threshold(1.0, -0.1)

    def test_shrinks_toward_zero_elementwise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100) * 3.0
        out = soft_threshold(x, 0.7)
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out * x >= 0.0)


class TestLambdaMax:
    def test_zeroes_all_details_at_and_above(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            data = random_instance(np.random.default_rng(seed), 60, 16)
            top = lambda_max(data)
            for factor in (1.0, 1.5):
                sol = fit_wnet(data, FitConfig(estimator="wnet", lam=factor * top))
                assert sol.nonzero_detail_count == 0
                np.testing.assert_array_equal(sol.omega[data.n_scale :], 0.0)

    def test_just_below_activates_a_detail(self):
        data = random_instance(np.random.default_rng(3), 200, 16, strength=3.0)
        top = lambda_max(data)
        sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.95 * top, tol=1e-9))
        assert sol.nonzero_detail_count >= 1


def three_set_kkt_residual(grad, beta, lam, pen):
    """The l1 KKT residual as the largest of three masked maxima: free
    coordinates, penalized zeros and penalized nonzeros."""
    res = 0.0
    free = ~pen
    if np.any(free):
        res = float(np.max(np.abs(grad[free])))
    zero = pen & (beta == 0.0)
    if np.any(zero):
        res = max(res, float(np.max(np.abs(grad[zero]) - lam, initial=0.0)))
    active = pen & (beta != 0.0)
    if np.any(active):
        res = max(res, float(np.max(np.abs(grad[active] + lam * np.sign(beta[active])))))
    return res


class TestKktResidual:
    def test_equals_three_set_formula(self):
        """Random gradients, penalty masks and coefficients with exact zeros,
        including all-free, all-penalized, all-zero and empty vectors."""
        rng = np.random.default_rng(15)
        for trial in range(500):
            k = int(rng.integers(0, 12))
            grad = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 3)
            beta = np.where(rng.random(k) < 0.5, 0.0, rng.standard_normal(k))
            pen = rng.random(k) < [0.0, 1.0, 0.7][trial % 3]
            lam = float(rng.choice([0.0, rng.exponential(), 1e3]))
            got = _kkt_residual(grad, beta, lam, pen)
            assert got == three_set_kkt_residual(grad, beta, lam, pen), trial

    def test_nan_gradient_gives_nan(self):
        """A NaN anywhere is the residual, whichever set it falls in."""
        beta = np.array([0.5, 0.0, 1.0])
        pen = np.array([False, True, True])
        for j in range(3):
            grad = np.array([0.1, 0.2, -0.3])
            grad[j] = np.nan
            assert np.isnan(_kkt_residual(grad, beta, 0.25, pen))


class TestWnet:
    def test_unpenalized_matches_irls(self):
        """lam=0 must agree with the Newton solution of the same likelihood."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = random_instance(rng, 200, 8, strength=0.8)
            state = irls_fit(data)
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-12, max_iter=20000))
            np.testing.assert_allclose(sol.omega, state.omega, atol=1e-4)
            assert abs(sol.intercept - state.intercept) <= 1e-4

    def test_kkt_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = random_instance(rng, 100, 16)
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.4))
            assert sol.kkt_residual <= 1e-5

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            data = random_instance(rng, 80, 16)
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.3))
            assert np.all(np.diff(sol.objective_trace) <= 1e-12)

    def test_support_shrinks_along_lambda_path(self):
        """Trend check: nonzero details at the largest lambda never exceed
        the count at the smallest."""
        rng = np.random.default_rng(7)
        data = random_instance(rng, 150, 32, strength=2.0)
        top = lambda_max(data)
        counts = [
            fit_wnet(data, FitConfig(estimator="wnet", lam=l)).nonzero_detail_count
            for l in np.geomspace(1e-3 * top, top, 10)
        ]
        assert counts[-1] == 0
        assert counts[-1] <= counts[0]
        assert max(counts) == counts[0] or counts[0] >= np.mean(counts)

    def test_planted_support_recovered(self):
        """Five planted detail coordinates; CV-selected lambda finds >= 4."""
        rng = np.random.default_rng(8)
        n, d = 400, 128
        theta = rng.standard_normal((n, d))
        support = np.array([20, 45, 70, 95, 120])
        w = np.zeros(d)
        w[support] = np.array([1.6, -1.3, 1.1, -1.5, 1.2])
        y = (rng.random(n) < link_logistic(theta @ w)).astype(float)
        data = LabeledCoefficients(theta=theta, labels=y, j0=3)

        top = lambda_max(data)
        grid = [FitConfig(estimator="wnet", lam=l) for l in np.geomspace(1e-2 * top, top, 8)]
        folds = make_folds(data.labels, 5, seed=0)
        best = cross_validate(data, grid, folds).best_config
        sol = fit_wnet(data, best)
        found = np.flatnonzero(sol.omega[data.n_scale :] != 0.0) + data.n_scale
        assert np.intersect1d(found, support).size >= 4

    def test_deterministic(self):
        data = random_instance(np.random.default_rng(9), 100, 16)
        config = FitConfig(estimator="wnet", lam=0.2)
        a = fit_wnet(data, config)
        b = fit_wnet(data, config)
        assert np.array_equal(a.omega, b.omega)
        assert a.intercept == b.intercept
        assert a.iterations == b.iterations


class TestReducedPenalized:
    def test_full_rank_unpenalized_matches_wnet(self):
        """q=d principal components span everything, so lam=0 recovers the
        same maximum-likelihood fit."""
        rng = np.random.default_rng(10)
        data = random_instance(rng, 120, 16, strength=0.6)
        wnet = fit_estimator(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-10, max_iter=20000))
        wpcr = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.0, q=16))
        nll_a = neg_log_likelihood(wnet.state(), data)
        nll_b = neg_log_likelihood(wpcr.state(), data)
        assert abs(nll_a - nll_b) <= 1e-6

    def test_omega_is_exact_expansion(self):
        rng = np.random.default_rng(11)
        for estimator in ("wpcr", "wpls"):
            data = random_instance(rng, 80, 16)
            basis = build_reduction(data, FitConfig(estimator=estimator, lam=0.3, q=4))
            sol = fit_estimator(data, FitConfig(estimator=estimator, lam=0.3, q=4), basis=basis)
            assert np.array_equal(sol.omega, basis.loadings @ sol.gamma)

    def test_large_lambda_flattens_details(self):
        rng = np.random.default_rng(12)
        data = random_instance(rng, 80, 16)
        sol = fit_estimator(data, FitConfig(estimator="wpcr", lam=1e4, q=6))
        assert np.max(np.abs(sol.omega[data.n_scale :])) <= 1e-6

    def test_one_factor_model_still_discriminates(self):
        """A strong single direction: q=1 PLS stays within 0.02 AUC of the
        full lasso fit on held-out data."""
        rng = np.random.default_rng(13)
        d = 16
        direction = np.zeros(d)
        direction[[5, 9]] = [1.5, -1.2]

        def draw(n):
            theta = rng.standard_normal((n, d))
            y = (rng.random(n) < link_logistic(theta @ direction)).astype(float)
            return LabeledCoefficients(theta=theta, labels=y, j0=2)

        train, test = draw(300), draw(2000)
        pls = fit_estimator(train, FitConfig(estimator="wpls", lam=0.01, q=1))
        net = fit_estimator(train, FitConfig(estimator="wnet", lam=0.05))
        auc_pls = auc(test.theta @ pls.omega + pls.intercept, test.labels)
        auc_net = auc(test.theta @ net.omega + net.intercept, test.labels)
        assert auc_net - auc_pls <= 0.02

    def test_trace_is_nonincreasing_envelope(self):
        rng = np.random.default_rng(14)
        data = random_instance(rng, 80, 16)
        sol = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.5, q=5))
        assert np.all(np.diff(sol.objective_trace) <= 1e-12)

    def test_deterministic(self):
        data = random_instance(np.random.default_rng(15), 80, 16)
        config = FitConfig(estimator="wpls", lam=0.2, q=3)
        a = fit_estimator(data, config)
        b = fit_estimator(data, config)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.gamma, b.gamma)


def capped_instance():
    """Seeded instance whose wpcr q=4 fits at grid points 7 and 8 of a
    10-point default lambda grid ran a fixed-rho ADMM (rho = max(lam, 1))
    into the 5000-iteration cap."""
    data = random_instance(np.random.default_rng(21), 60, 32)
    return data, default_lambda_grid(data, 10)


def reduced_objective(data, basis, lam, coef):
    """NLL plus lam * ||D V_q gamma||_1 at coef = (intercept, gamma)."""
    eta = coef[0] + data.theta @ (basis.loadings @ coef[1:])
    nll = float(np.sum(np.logaddexp(0.0, eta) - data.labels * eta))
    return nll + lam * float(np.sum(np.abs(basis.loadings[data.n_scale :] @ coef[1:])))


class TestReducedAdmmConvergence:
    def test_formerly_capped_points_converge(self):
        data, lams = capped_instance()
        for lam in lams[7:9]:
            config = FitConfig(estimator="wpcr", lam=lam, q=4)
            sol = fit_estimator(data, config)
            assert sol.iterations < config.max_iter
            assert np.all(np.diff(sol.objective_trace) <= 0.0)

    @staticmethod
    def worst_decrease(data, estimator, lam):
        """Largest objective decrease over steps of 1e-5 along every
        +-coordinate and 50 seeded random unit directions from the fit."""
        config = FitConfig(estimator=estimator, lam=lam, q=4)
        basis = build_reduction(data, config)
        sol = fit_estimator(data, config, basis=basis)
        coef = np.concatenate([[sol.intercept], sol.gamma])
        base = reduced_objective(data, basis, lam, coef)
        eye = np.eye(coef.size)
        random = np.random.default_rng(5).standard_normal((50, coef.size))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        moved = [
            reduced_objective(data, basis, lam, coef + 1e-5 * direction)
            for direction in np.vstack([eye, -eye, random])
        ]
        return base - min(moved), sol

    @pytest.mark.parametrize("estimator", ["wpcr", "wpls"])
    @pytest.mark.parametrize("point", ["small", "formerly_capped", "near_lambda_max"])
    def test_no_descent_direction_at_solution(self, estimator, point):
        """No direction lowers the objective by more than 1e-8.  A scaled
        dual left unchanged (or rescaled the wrong way) when rho changes
        stalls at the cap on the formerly capped point.  Grid point 7 and
        lambda_max itself are left out: there the returned D V_q gamma sits
        off the zero set of z by up to the primal residual, which the next
        test bounds."""
        data, lams = capped_instance()
        lam = {"small": lams[1], "formerly_capped": lams[8], "near_lambda_max": 0.9 * lams[9]}
        decrease, _ = self.worst_decrease(data, estimator, lam[point])
        assert decrease <= 1e-8

    @pytest.mark.parametrize("estimator", ["wpcr", "wpls"])
    def test_descent_bounded_by_stopping_tolerance(self, estimator):
        """On every grid point the decrease stays within the slack the
        stopping test allows: D V_q gamma may sit up to the primal residual
        off the zero set of z, worth lam * sqrt(m) * residual in penalty."""
        data, lams = capped_instance()
        m = data.d - data.n_scale
        for lam in lams:
            decrease, sol = self.worst_decrease(data, estimator, lam)
            assert decrease <= 1e-8 + lam * np.sqrt(m) * sol.kkt_residual


class TestReducedUnpenalized:
    def test_single_component_equals_univariate_logistic(self):
        """When the sparse loading is exactly e_1 the fit reduces to a 1-D
        logistic regression on the first coordinate."""
        rng = np.random.default_rng(16)
        n, d = 120, 8
        theta = rng.standard_normal((n, d))
        theta[:, 0] *= 8.0  # first coordinate dominates the variance
        y = (rng.random(n) < link_logistic(0.9 * theta[:, 0] / 8.0)).astype(float)
        data = LabeledCoefficients(theta=theta, labels=y, j0=1)

        config = FitConfig(estimator="wcr", lam=0.0, q=1, tau=0.9)
        basis = build_reduction(data, config)
        assert np.count_nonzero(basis.loadings[:, 0]) == 1
        assert abs(abs(basis.loadings[0, 0]) - 1.0) <= 1e-12

        sol = fit_estimator(data, config, basis=basis)
        # univariate oracle: regress on the single projected column; the
        # design is uncentered so that omega = V gamma reproduces the fit
        aug = np.column_stack([np.ones(n), theta @ basis.loadings])
        coef, _ = _newton(aug, y, np.zeros(2), max_iter=100, tol=1e-10)
        assert abs(sol.gamma[0] - coef[1]) <= 1e-8
        assert abs(sol.intercept - coef[0]) <= 1e-8

    def test_matches_irls_on_materialized_design(self):
        rng = np.random.default_rng(17)
        for estimator in ("wcr", "wls"):
            data = random_instance(rng, 150, 16)
            config = FitConfig(estimator=estimator, lam=0.0, q=3, tau=0.0)
            basis = build_reduction(data, config)
            sol = fit_estimator(data, config, basis=basis)
            aug = np.column_stack([np.ones(data.n), data.theta @ basis.loadings])
            coef, _ = _newton(aug, data.labels, np.zeros(4), max_iter=100, tol=1e-10)
            np.testing.assert_allclose(sol.gamma, coef[1:], atol=1e-8)
            assert abs(sol.intercept - coef[0]) <= 1e-8

    def test_nested_components_do_not_hurt_training_fit(self):
        rng = np.random.default_rng(18)
        data = random_instance(rng, 150, 16, strength=1.5)
        nlls = []
        for q in (1, 2, 4):
            sol = fit_estimator(data, FitConfig(estimator="wcr", lam=0.0, q=q, tau=0.0))
            nlls.append(neg_log_likelihood(sol.state(), data))
        assert nlls[1] <= nlls[0] + 1e-8
        assert nlls[2] <= nlls[1] + 1e-8

    def test_separation_raises(self):
        rng = np.random.default_rng(19)
        n, d = 60, 8
        theta = rng.standard_normal((n, d))
        theta[:, 0] *= 8.0
        y = (theta[:, 0] > 0).astype(float)  # perfectly separable
        config = FitConfig(estimator="wcr", lam=0.0, q=1, tau=0.9)
        basis = build_reduction(
            LabeledCoefficients(theta=theta, labels=y, j0=1), config
        )
        # shrink the design so the diverging coefficient must cross the bound
        tiny = LabeledCoefficients(theta=theta * 1e-3, labels=y, j0=1)
        with pytest.raises(SeparationError):
            fit_estimator(tiny, config, basis=basis)

    def test_penalized_estimators_rejected(self):
        rng = np.random.default_rng(20)
        data = random_instance(rng, 60, 8, j0=1)
        from wavelogit.penalized import fit_reduced_unpenalized

        config = FitConfig(estimator="wpcr", lam=0.0, q=2)
        basis = build_reduction(data, config)
        with pytest.raises(DataError):
            fit_reduced_unpenalized(data, basis, config)

    def test_sparse_loadings_give_exact_detail_zeros(self):
        rng = np.random.default_rng(21)
        data = random_instance(rng, 100, 16)
        config = FitConfig(estimator="wcr", lam=0.0, q=2, tau=0.5)
        basis = build_reduction(data, config)
        sol = fit_estimator(data, config, basis=basis)
        detail = sol.omega[data.n_scale :]
        expected = np.count_nonzero(detail)
        assert sol.nonzero_detail_count == expected
        # sparsity actually bit: some detail row of the loadings is zero
        detail_rows = basis.loadings[data.n_scale :]
        assert np.any(np.all(detail_rows == 0.0, axis=1))


class TestBetaEstimate:
    def test_zero_solution_gives_zero_function(self):
        basis = make_basis("db4", 2, 32)
        sol_omega = np.zeros(32)
        from wavelogit.penalized import PenalizedSolution

        sol = PenalizedSolution(
            omega=sol_omega,
            intercept=0.0,
            gamma=None,
            objective_trace=np.array([0.0]),
            kkt_residual=0.0,
            nonzero_detail_count=0,
            iterations=0,
        )
        np.testing.assert_array_equal(dwt_inverse(sol.omega, basis), np.zeros(32))

    def test_single_scale_atom(self):
        """omega = c * e_0 reconstructs c times the first scaling atom,
        which is a synthesis-matrix column."""
        basis = make_basis("haar", 0, 8)
        omega = np.zeros(8)
        omega[0] = 2.0
        from wavelogit.penalized import PenalizedSolution

        sol = PenalizedSolution(
            omega=omega,
            intercept=0.0,
            gamma=None,
            objective_trace=np.array([0.0]),
            kkt_residual=0.0,
            nonzero_detail_count=0,
            iterations=0,
        )
        beta = dwt_inverse(sol.omega, basis)
        np.testing.assert_allclose(beta, np.full(8, 2.0 / np.sqrt(8)), atol=1e-12)

    def test_round_trip_through_transform(self):
        rng = np.random.default_rng(22)
        basis = make_basis("db4", 2, 32)
        beta_true = rng.standard_normal(32)
        omega = dwt_forward(beta_true, basis)
        from wavelogit.penalized import PenalizedSolution

        sol = PenalizedSolution(
            omega=omega,
            intercept=0.0,
            gamma=None,
            objective_trace=np.array([0.0]),
            kkt_residual=0.0,
            nonzero_detail_count=0,
            iterations=0,
        )
        np.testing.assert_allclose(dwt_inverse(sol.omega, basis), beta_true, atol=1e-10)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            FitConfig(estimator="bogus")
        with pytest.raises(DataError):
            FitConfig(estimator="wnet", lam=-1.0)
        with pytest.raises(DataError):
            FitConfig(estimator="wpcr", lam=0.1)  # q required
        with pytest.raises(DataError):
            FitConfig(estimator="wcr", q=0)
        with pytest.raises(DataError):
            FitConfig(estimator="wls", q=2, tau=-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_penalties_rejected(self, bad):
        """A NaN penalty used to pass the >= 0 check and hang the solver."""
        with pytest.raises(DataError):
            FitConfig(estimator="wnet", lam=bad)
        with pytest.raises(DataError):
            FitConfig(estimator="wcr", q=2, tau=bad)

    def test_wnet_ignores_q(self):
        config = FitConfig(estimator="wnet", lam=0.5)
        assert config.q is None
