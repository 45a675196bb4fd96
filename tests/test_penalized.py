"""Tests for the penalized and reduced-basis logistic solvers."""

from collections import Counter
import hashlib

import numpy as np
import pytest

from wavelogit import glm, penalized
from wavelogit.cli import main
from wavelogit.dataio import load_dataset, to_coefficients
from wavelogit.exceptions import ConvergenceError, DataError, SeparationError
from wavelogit.glm import (
    LabeledCoefficients,
    _newton,
    _nll_from_eta,
    _with_intercept,
    irls_fit,
    link_logistic,
    neg_log_likelihood,
)
from wavelogit.metrics import auc
from wavelogit.penalized import (
    ESTIMATORS,
    FitConfig,
    _kkt_residual,
    build_reduction,
    fit_estimator,
    fit_reduced_penalized,
    fit_reduced_unpenalized,
    fit_wnet,
    lambda_max,
    soft_threshold,
)
from wavelogit.reduce import pca_fit, pls_fit
from wavelogit.select import cross_validate, default_lambda_grid, make_folds
from wavelogit.wavelet import dwt_forward, dwt_inverse, make_basis


def random_instance(rng, n, d, j0=2, strength=1.0):
    theta = rng.standard_normal((n, d))
    w = rng.standard_normal(d) * strength / np.sqrt(d)
    y = (rng.random(n) < link_logistic(theta @ w)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", j0, d))


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
        for seed in range(5):
            data = random_instance(np.random.default_rng(seed), 60, 16)
            top = lambda_max(data)
            for factor in (1.0, 1.5):
                sol = fit_wnet(data, FitConfig(estimator="wnet", lam=factor * top))
                assert sol.nonzero_detail_count == 0
                np.testing.assert_array_equal(sol.omega[data.basis.n_scale :], 0.0)

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
        """Random gradients, free-prefix lengths 0..k and coefficients with
        exact zeros, including all-free, all-penalized, all-zero and empty
        vectors and prefixes longer than the vector."""
        rng = np.random.default_rng(15)
        for trial in range(500):
            k = int(rng.integers(0, 12))
            grad = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 3)
            beta = np.where(rng.random(k) < 0.5, 0.0, rng.standard_normal(k))
            free = [k, 0, int(rng.integers(0, k + 2))][trial % 3]
            lam = float(rng.choice([0.0, rng.exponential(), 1e3]))
            got = _kkt_residual(grad, beta, lam, free)
            assert got == three_set_kkt_residual(grad, beta, lam, np.arange(k) >= free), trial

    def test_nan_gradient_gives_nan(self):
        """A NaN anywhere is the residual, whichever block it falls in: the
        largest of a free-block and a penalized-block maximum, taken with
        Python's ``max``, would drop a NaN in the first block."""
        beta = np.array([0.5, 0.0, 1.0])
        for free in range(4):
            for j in range(3):
                grad = np.array([0.1, 0.2, -0.3])
                grad[j] = np.nan
                assert np.isnan(_kkt_residual(grad, beta, 0.25, free)), (free, j)


class TestWnet:
    def test_unpenalized_matches_irls(self):
        """lam=0 must agree with the Newton solution of the same likelihood."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = random_instance(rng, 200, 8, strength=0.8)
            omega, intercept = irls_fit(data)
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-12, max_iter=20000))
            np.testing.assert_allclose(sol.omega, omega, atol=1e-4)
            assert abs(sol.intercept - intercept) <= 1e-4

    def test_kkt_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = random_instance(rng, 100, 16)
            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=0.4))
            assert sol.kkt_residual <= 1e-5

    def test_objective_ends_below_its_start(self):
        """The returned fit's objective is at most that of the null fit the
        solver starts from."""
        rng = np.random.default_rng(6)
        lam = 0.3
        for _ in range(5):
            data = random_instance(rng, 80, 16)
            aug = _with_intercept(data.theta)
            free = 1 + data.basis.n_scale

            def objective(beta):
                return _nll_from_eta(aug @ beta, data.labels) + lam * np.sum(np.abs(beta[free:]))

            sol = fit_wnet(data, FitConfig(estimator="wnet", lam=lam))
            end = np.concatenate([[sol.intercept], sol.omega])
            assert objective(end) <= objective(penalized._null_fit(data, aug)) + 1e-12

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
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 3, d))

        top = lambda_max(data)
        grid = [FitConfig(estimator="wnet", lam=l) for l in np.geomspace(1e-2 * top, top, 8)]
        folds = make_folds(data.labels, 5, seed=0)
        best = cross_validate(data, grid, folds).best_config
        sol = fit_wnet(data, best)
        found = np.flatnonzero(sol.omega[data.basis.n_scale :] != 0.0) + data.basis.n_scale
        assert np.intersect1d(found, support).size >= 4

    def test_deterministic(self):
        data = random_instance(np.random.default_rng(9), 100, 16)
        config = FitConfig(estimator="wnet", lam=0.2)
        a = fit_wnet(data, config)
        b = fit_wnet(data, config)
        assert np.array_equal(a.omega, b.omega)
        assert a.intercept == b.intercept
        assert a.iterations == b.iterations


@pytest.fixture(scope="module")
def readme_set(tmp_path_factory):
    """The README training set (150 curves, d = 256) in the default basis."""
    folder = tmp_path_factory.mktemp("readme")
    train = str(folder / "train.csv")
    assert main([
        "simulate", "--out", train, "--test-out", str(folder / "test.csv"),
        "--n-per-class", "75", "--n-test-per-class", "25", "--seed", "0",
    ]) == 0
    return to_coefficients(load_dataset(train), make_basis())


# sha256 of every wnet fit along the README set's default 20-lambda grid:
# omega, intercept, KKT residual and iteration count.  A solver change that
# moves a bit on purpose updates it and says why.
README_PATH_SHA256 = "f44f09d1f2db0556870d73c93678b29fabc80779af7cf5e43c2bf6ee1bbab25a"


class TestWnetReadmePath:
    def test_bits_are_pinned(self, readme_set):
        digest = hashlib.sha256()
        for lam in default_lambda_grid(readme_set, 20):
            sol = fit_wnet(readme_set, FitConfig(estimator="wnet", lam=float(lam)))
            for part in (sol.omega, [sol.intercept, sol.kkt_residual]):
                digest.update(np.asarray(part, dtype=float).tobytes())
            digest.update(str(sol.iterations).encode())
        assert digest.hexdigest() == README_PATH_SHA256

    def test_capped_residual_is_pinned(self, readme_set):
        lam = float(default_lambda_grid(readme_set, 20)[10])
        with pytest.raises(ConvergenceError) as info:
            fit_wnet(readme_set, FitConfig(estimator="wnet", lam=lam, max_iter=50))
        assert info.value.residual.hex() == "0x1.21a0c29e9fabcp-4"

    def test_one_gradient_and_one_likelihood_per_step(self, readme_set, monkeypatch):
        """A step evaluates the gradient once, at the point it descends from,
        and the likelihood once per candidate; the KKT gradient reuses the
        accepted candidate's linear predictor.  Restarts, backtracks and the
        null fit's Newton steps add a few calls."""
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(penalized, "_nll_grad", counted("grad", penalized._nll_grad))
        monkeypatch.setattr(penalized, "_nll_from_eta", counted("nll", penalized._nll_from_eta))
        link = counted("link", glm.link_logistic)
        monkeypatch.setattr(glm, "link_logistic", link)
        monkeypatch.setattr(penalized, "link_logistic", link)
        for lam in default_lambda_grid(readme_set, 20)[[5, 10, 15]]:
            counts.clear()
            steps = fit_wnet(readme_set, FitConfig(estimator="wnet", lam=float(lam))).iterations
            assert steps <= counts["grad"] <= steps + 10
            assert steps <= counts["nll"] <= steps + 10
            assert 2 * steps <= counts["link"] <= 2 * steps + 10


# sha256 of reduced fits on the README set: every PenalizedSolution field of
# the wpcr/wpls ADMM fits at four (q, lambda) points, and of the Newton fits
# at q = 4 of wcr and of wls at tau = 0 and 0.05.  A solver change that moves
# a bit on purpose updates them and says why.
README_ADMM_SHA256 = "978cc6683afd22722dcdedfef394eb880320abbb5fa91799c0a21756af20e9f0"
README_NEWTON_SHA256 = "107afcd32628fe28254cebcd0be5cfcd3aac63d1485a9947551702a3533cac60"


def solutions_sha256(solutions):
    digest = hashlib.sha256()
    for sol in solutions:
        for part in (sol.omega, sol.gamma, [sol.intercept, sol.kkt_residual]):
            digest.update(np.asarray(part, dtype=float).tobytes())
        digest.update(f"{sol.nonzero_detail_count},{sol.iterations}".encode())
    return digest.hexdigest()


class TestReducedReadmeFits:
    def test_admm_bits_are_pinned(self, readme_set):
        fits = []
        for estimator in ("wpcr", "wpls"):
            for q, lam in ((2, 0.1), (4, 1.0), (8, 3.0), (4, 12.0)):
                config = FitConfig(estimator, lam=lam, q=q)
                loadings = build_reduction(readme_set, config)
                fits.append(fit_reduced_penalized(readme_set, loadings, config))
        assert solutions_sha256(fits) == README_ADMM_SHA256

    def test_newton_bits_are_pinned(self, readme_set):
        fits = []
        for estimator, tau in (("wcr", 0.0), ("wls", 0.0), ("wls", 0.05)):
            config = FitConfig(estimator, q=4, tau=tau)
            loadings = build_reduction(readme_set, config)
            fits.append(fit_reduced_unpenalized(readme_set, loadings, config))
        assert solutions_sha256(fits) == README_NEWTON_SHA256


class TestReducedPenalized:
    def test_full_rank_unpenalized_matches_wnet(self):
        """q=d principal components span everything, so lam=0 recovers the
        same maximum-likelihood fit."""
        rng = np.random.default_rng(10)
        data = random_instance(rng, 120, 16, strength=0.6)
        wnet = fit_estimator(data, FitConfig(estimator="wnet", lam=0.0, tol=1e-10, max_iter=20000))
        wpcr = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.0, q=16))
        nll_a = neg_log_likelihood(wnet.omega, wnet.intercept, data)
        nll_b = neg_log_likelihood(wpcr.omega, wpcr.intercept, data)
        assert abs(nll_a - nll_b) <= 1e-6

    def test_omega_is_exact_expansion(self):
        rng = np.random.default_rng(11)
        for estimator in ("wpcr", "wpls"):
            data = random_instance(rng, 80, 16)
            loadings = build_reduction(data, FitConfig(estimator=estimator, lam=0.3, q=4))
            sol = fit_estimator(data, FitConfig(estimator=estimator, lam=0.3, q=4), loadings=loadings)
            assert np.array_equal(sol.omega, loadings @ sol.gamma)

    def test_large_lambda_flattens_details(self):
        rng = np.random.default_rng(12)
        data = random_instance(rng, 80, 16)
        sol = fit_estimator(data, FitConfig(estimator="wpcr", lam=1e4, q=6))
        assert np.max(np.abs(sol.omega[data.basis.n_scale :])) <= 1e-6

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
            return LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 2, d))

        train, test = draw(300), draw(2000)
        pls = fit_estimator(train, FitConfig(estimator="wpls", lam=0.01, q=1))
        net = fit_estimator(train, FitConfig(estimator="wnet", lam=0.05))
        auc_pls = auc(test.theta @ pls.omega + pls.intercept, test.labels)
        auc_net = auc(test.theta @ net.omega + net.intercept, test.labels)
        assert auc_net - auc_pls <= 0.02

    def test_admm_evaluates_no_likelihood(self, monkeypatch):
        """The ADMM stops on its primal and dual residuals, so it evaluates
        no objective of its own; the gamma-update's Newton steps use glm's
        binding of the likelihood and are not counted."""
        data = random_instance(np.random.default_rng(14), 80, 16)
        calls = []

        def counted(*args):
            calls.append(1)
            return _nll_from_eta(*args)

        monkeypatch.setattr(penalized, "_nll_from_eta", counted)
        sol = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.5, q=5))
        assert sol.iterations > 1
        assert len(calls) == 0

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


def reduced_objective(data, loadings, lam, coef):
    """NLL plus lam * ||D V_q gamma||_1 at coef = (intercept, gamma)."""
    eta = coef[0] + data.theta @ (loadings @ coef[1:])
    nll = float(np.sum(np.logaddexp(0.0, eta) - data.labels * eta))
    return nll + lam * float(np.sum(np.abs(loadings[data.basis.n_scale :] @ coef[1:])))


class TestReducedAdmmConvergence:
    def test_formerly_capped_points_converge(self):
        data, lams = capped_instance()
        for lam in lams[7:9]:
            config = FitConfig(estimator="wpcr", lam=lam, q=4)
            sol = fit_estimator(data, config)
            assert sol.iterations < config.max_iter

    @staticmethod
    def worst_decrease(data, estimator, lam):
        """Largest objective decrease over steps of 1e-5 along every
        +-coordinate and 50 seeded random unit directions from the fit."""
        config = FitConfig(estimator=estimator, lam=lam, q=4)
        loadings = build_reduction(data, config)
        sol = fit_estimator(data, config, loadings=loadings)
        coef = np.concatenate([[sol.intercept], sol.gamma])
        base = reduced_objective(data, loadings, lam, coef)
        eye = np.eye(coef.size)
        random = np.random.default_rng(5).standard_normal((50, coef.size))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        moved = [
            reduced_objective(data, loadings, lam, coef + 1e-5 * direction)
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
        m = data.d - data.basis.n_scale
        for lam in lams:
            decrease, sol = self.worst_decrease(data, estimator, lam)
            assert decrease <= 1e-8 + lam * np.sqrt(m) * sol.kkt_residual


class TestReducedUnpenalized:
    def test_single_component_equals_univariate_logistic(self):
        """When the sparse PLS loading is exactly e_1 the fit reduces to a 1-D
        logistic regression on the first coordinate."""
        rng = np.random.default_rng(16)
        n, d = 120, 8
        theta = rng.standard_normal((n, d))
        theta[:, 0] *= 8.0  # first coordinate dominates the variance
        y = (rng.random(n) < link_logistic(0.9 * theta[:, 0] / 8.0)).astype(float)
        data = LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 1, d))

        config = FitConfig(estimator="wls", lam=0.0, q=1, tau=0.9)
        loadings = build_reduction(data, config)
        assert np.count_nonzero(loadings[:, 0]) == 1
        assert abs(abs(loadings[0, 0]) - 1.0) <= 1e-12

        sol = fit_estimator(data, config, loadings=loadings)
        # univariate oracle: regress on the single projected column; the
        # design is uncentered so that omega = V gamma reproduces the fit
        aug = np.column_stack([np.ones(n), theta @ loadings])
        coef, _ = _newton(aug, y, np.zeros(2), max_iter=100, tol=1e-10)
        assert abs(sol.gamma[0] - coef[1]) <= 1e-8
        assert abs(sol.intercept - coef[0]) <= 1e-8

    def test_matches_irls_on_materialized_design(self):
        rng = np.random.default_rng(17)
        for estimator in ("wcr", "wls"):
            data = random_instance(rng, 150, 16)
            config = FitConfig(estimator=estimator, lam=0.0, q=3, tau=0.0)
            loadings = build_reduction(data, config)
            sol = fit_estimator(data, config, loadings=loadings)
            aug = np.column_stack([np.ones(data.n), data.theta @ loadings])
            coef, _ = _newton(aug, data.labels, np.zeros(4), max_iter=100, tol=1e-10)
            np.testing.assert_allclose(sol.gamma, coef[1:], atol=1e-8)
            assert abs(sol.intercept - coef[0]) <= 1e-8

    def test_nested_components_do_not_hurt_training_fit(self):
        rng = np.random.default_rng(18)
        data = random_instance(rng, 150, 16, strength=1.5)
        nlls = []
        for q in (1, 2, 4):
            sol = fit_estimator(data, FitConfig(estimator="wcr", lam=0.0, q=q, tau=0.0))
            nlls.append(neg_log_likelihood(sol.omega, sol.intercept, data))
        assert nlls[1] <= nlls[0] + 1e-8
        assert nlls[2] <= nlls[1] + 1e-8

    def test_separation_raises(self):
        rng = np.random.default_rng(19)
        n, d = 60, 8
        theta = rng.standard_normal((n, d))
        theta[:, 0] *= 8.0
        y = (theta[:, 0] > 0).astype(float)  # perfectly separable
        config = FitConfig(estimator="wls", lam=0.0, q=1, tau=0.9)
        loadings = build_reduction(
            LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", 1, d)), config
        )
        # shrink the design so the diverging coefficient must cross the bound
        tiny = LabeledCoefficients(theta=theta * 1e-3, labels=y, basis=make_basis("db4", 1, d))
        with pytest.raises(SeparationError):
            fit_estimator(tiny, config, loadings=loadings)

    @pytest.mark.parametrize("estimator, dense_fit", [("wcr", "pca"), ("wls", "pls")])
    def test_dense_loadings_equal_the_tau_zero_fit(self, estimator, dense_fit):
        """wcr fits in the dense PCA reduction and wls at tau = 0 in the dense
        PLS one, so each gives the fit on those loadings bit for bit."""
        rng = np.random.default_rng(20)
        data = random_instance(rng, 60, 8, j0=1)
        q = 2
        config = FitConfig(estimator=estimator, q=q)
        if dense_fit == "pca":
            loadings = pca_fit(data.theta, q)
        else:
            loadings = pls_fit(data.theta, data.labels, q)
        dense = fit_reduced_unpenalized(data, loadings, config)
        sparse = fit_estimator(data, config)
        assert np.array_equal(dense.omega, sparse.omega)
        assert np.array_equal(dense.gamma, sparse.gamma)
        assert dense.intercept == sparse.intercept
        assert dense.iterations == sparse.iterations

    def test_sparse_loadings_give_exact_detail_zeros(self):
        rng = np.random.default_rng(21)
        data = random_instance(rng, 100, 16)
        config = FitConfig(estimator="wls", lam=0.0, q=2, tau=0.3)
        loadings = build_reduction(data, config)
        sol = fit_estimator(data, config, loadings=loadings)
        detail = sol.omega[data.basis.n_scale :]
        expected = np.count_nonzero(detail)
        assert sol.nonzero_detail_count == expected
        # sparsity actually bit: some detail row of the loadings is zero
        detail_rows = loadings[data.basis.n_scale :]
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
            FitConfig(estimator="wls", q=2, tau=bad)

    def test_wnet_ignores_q(self):
        config = FitConfig(estimator="wnet", lam=0.5)
        assert config.q is None

    @pytest.mark.parametrize("q", [2.5, np.float64(2.0), True])
    def test_q_must_be_an_integer(self, q):
        """A non-integer q used to pass and fail later inside the reduction
        with a bare TypeError."""
        with pytest.raises(DataError, match="q must be an integer"):
            FitConfig(estimator="wpcr", lam=0.1, q=q)

    def test_numpy_integer_q_is_stored_as_int(self):
        config = FitConfig(estimator="wpcr", lam=0.1, q=np.int64(4))
        assert config.q == 4 and type(config.q) is int

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        """2.5 used to fail inside the solver with a bare TypeError, -3 to
        report "did not converge in -3 iterations", and 0 to crash the ADMM."""
        with pytest.raises(DataError, match="max_iter must be"):
            FitConfig(estimator="wpcr", lam=0.1, q=2, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-7, "1e-7"])
    def test_tol_must_be_finite_and_positive(self, tol):
        """A NaN tolerance used to run every wnet fit to the cap."""
        with pytest.raises(DataError, match="tol must be"):
            FitConfig(estimator="wnet", lam=0.1, tol=tol)

    @pytest.mark.parametrize("field", ["lam", "tau"])
    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_penalties_must_be_real_numbers(self, field, value):
        """A string penalty used to fail with a bare TypeError from np.isfinite."""
        with pytest.raises(DataError, match=f"{field} must be a real number"):
            FitConfig(estimator="wcr", q=2, **{field: value})

    # the tuning parameters each estimator takes; it must leave the others at
    # their defaults (q None, lam and tau 0)
    TAKES = {
        "wnet": {"lam"},
        "wpcr": {"q", "lam"},
        "wpls": {"q", "lam"},
        "wcr": {"q"},
        "wls": {"q", "tau"},
    }

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize(
        "param, value, message",
        [("q", 2, "q"), ("lam", 0.1, "lambda"), ("tau", 0.1, "tau")],
    )
    def test_rejects_parameters_it_does_not_take(self, estimator, param, value, message):
        """wls at lambda 5 used to be accepted, saved and fit as at lambda 0."""
        assert set(self.TAKES) == set(ESTIMATORS)
        needed = {"q": 3} if "q" in self.TAKES[estimator] else {}
        kwargs = {**needed, param: value}
        if param in self.TAKES[estimator]:
            assert getattr(FitConfig(estimator=estimator, **kwargs), param) == value
        else:
            with pytest.raises(DataError, match=f"{estimator}' takes no {message}, got {message}="):
                FitConfig(estimator=estimator, **kwargs)

    def test_numpy_scalars_accepted(self):
        config = FitConfig(
            estimator="wls", lam=np.float64(0.0), q=2, tau=np.float32(0.5), max_iter=np.int64(7)
        )
        assert config.max_iter == 7 and type(config.max_iter) is int
