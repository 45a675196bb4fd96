"""Tests for stratified folds, cross-validation, and corrected AIC."""

import numpy as np
import pytest

from wavelogit import penalized
from wavelogit.exceptions import (
    CriterionUndefinedError,
    DataError,
    NumericalError,
    SelectionError,
)
from wavelogit.glm import LabeledCoefficients, link_logistic, neg_log_likelihood
from wavelogit.metrics import auc
from wavelogit.penalized import (
    FitConfig,
    PenalizedSolution,
    build_reduction,
    fit_estimator,
    lambda_max,
)
from wavelogit.select import (
    FoldPlan,
    aicc,
    cross_validate,
    default_lambda_grid,
    default_q_grid,
    default_tau_grid,
    make_folds,
    select_by_aicc,
)
from wavelogit.wavelet import make_basis


def shared_grid(estimator, qs):
    """Configs of one estimator over ``qs``: two penalties for wpcr/wpls,
    a dense and a sparse reduction (tau 0 and 0.1) for wls, and the dense
    PCA reduction for wcr."""
    pairs = {
        "wpcr": ((0.01, 0.0), (0.3, 0.0)),
        "wpls": ((0.01, 0.0), (0.3, 0.0)),
        "wcr": ((0.0, 0.0),),
        "wls": ((0.0, 0.0), (0.0, 0.1)),
    }[estimator]
    return [FitConfig(estimator=estimator, lam=lam, q=q, tau=tau) for q in qs for lam, tau in pairs]


def planted_data(rng, n, d=16, j0=2, coords=(6, 11), effects=(1.4, -1.1)):
    theta = rng.standard_normal((n, d))
    w = np.zeros(d)
    w[list(coords)] = effects
    y = (rng.random(n) < link_logistic(theta @ w + 0.1)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return LabeledCoefficients(theta=theta, labels=y, basis=make_basis("db4", j0, d))


class TestMakeFolds:
    def test_exact_divisibility(self):
        """5 per class, 5 folds: every fold gets exactly one of each class."""
        labels = np.array([0.0, 1.0] * 5)
        plan = make_folds(labels, 5, seed=3)
        for cls in (0.0, 1.0):
            counts = np.bincount(plan.assignments[labels == cls], minlength=5)
            np.testing.assert_array_equal(counts, np.ones(5, dtype=int))

    def test_remainder_distribution(self):
        labels = np.concatenate([np.ones(6), np.zeros(5)])
        plan = make_folds(labels, 5, seed=0)
        sizes = sorted(np.bincount(plan.assignments, minlength=5), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        labels = np.array([0.0, 1.0] * 20)
        a = make_folds(labels, 4, seed=9).assignments
        b = make_folds(labels, 4, seed=9).assignments
        np.testing.assert_array_equal(a, b)

    def test_small_class_rejected(self):
        labels = np.concatenate([np.ones(3), np.zeros(20)])
        with pytest.raises(DataError):
            make_folds(labels, 5, seed=0)

    @pytest.mark.parametrize("k, seed", [(2.5, 0), (2, 1.5), (True, 0), (2, np.float64(1.0))])
    def test_k_and_seed_must_be_integers(self, k, seed):
        """2.5 used to fail with a bare TypeError from np.zeros or the generator."""
        labels = np.array([0.0, 1.0] * 4)
        with pytest.raises(DataError, match="must be an integer"):
            make_folds(labels, k, seed=seed)

    def test_invariants_over_many_instances(self):
        """Partition, stratification, and size balance for 1000 random triples."""
        rng = np.random.default_rng(0)
        for trial in range(1000):
            k = int(rng.integers(2, 8))
            n1 = int(rng.integers(k, 40))
            n0 = int(rng.integers(k, 40))
            labels = np.concatenate([np.ones(n1), np.zeros(n0)])
            rng.shuffle(labels)
            plan = make_folds(labels, k, seed=trial)
            assert plan.k == k
            sizes = np.bincount(plan.assignments, minlength=k)
            assert sizes.sum() == labels.size
            assert sizes.max() - sizes.min() <= 1
            for count, n_cls in ((np.bincount(plan.assignments[labels == 1.0], minlength=k), n1),
                                 (np.bincount(plan.assignments[labels == 0.0], minlength=k), n0)):
                assert np.all(np.abs(count - n_cls / k) <= 1.0)


class TestFoldPlan:
    def test_empty_fold_rejected(self):
        """Fold 1 of k = 3 has no members, so cross-validation would score an
        empty held-out set."""
        with pytest.raises(DataError, match="fold 1 has no members"):
            FoldPlan(assignments=[0, 0, 0, 0, 2, 2, 2, 2, 0, 2, 0, 2])

    @pytest.mark.parametrize("assignments", [[], [0, 1, -1], [[0, 1], [1, 0]], [0, 0, 0]])
    def test_malformed_plans_rejected(self, assignments):
        with pytest.raises(DataError):
            FoldPlan(assignments=assignments)


class TestCrossValidate:
    def test_single_point_grid(self):
        rng = np.random.default_rng(1)
        data = planted_data(rng, 60)
        folds = make_folds(data.labels, 5, seed=0)
        grid = [FitConfig(estimator="wnet", lam=0.5)]
        result = cross_validate(data, grid, folds)
        assert result.best_index == 0
        assert result.best_config.lam == 0.5

    def test_constant_model_scores_exactly_half(self):
        """With constant scale columns and all details shrunk away, every
        held-out score ties, so the fold AUC is exactly 0.5."""
        rng = np.random.default_rng(2)
        data = planted_data(rng, 60)
        theta = data.theta.copy()
        theta[:, : data.basis.n_scale] = 1.0  # no usable scale signal
        data = LabeledCoefficients(theta=theta, labels=data.labels, basis=data.basis)
        folds = make_folds(data.labels, 5, seed=0)
        huge = 10.0 * lambda_max(data)
        grid = [FitConfig(estimator="wnet", lam=huge), FitConfig(estimator="wnet", lam=0.3)]
        result = cross_validate(data, grid, folds)
        assert result.criteria[0] == 0.5
        assert result.best_index == 1

    def test_selected_lambda_close_to_grid_best_on_test_set(self):
        """CV choice is within 0.05 AUC of the best grid point, measured on
        an independent 2000-sample test set."""
        rng = np.random.default_rng(42)
        for _ in range(3):
            data = planted_data(rng, 150)
            test = planted_data(rng, 2000)
            top = lambda_max(data)
            grid = [FitConfig(estimator="wnet", lam=l) for l in np.geomspace(1e-3 * top, top, 8)]
            folds = make_folds(data.labels, 5, seed=0)
            result = cross_validate(data, grid, folds)
            test_aucs = []
            for config in grid:
                sol = fit_estimator(data, config)
                scores = link_logistic(test.theta @ sol.omega + sol.intercept)
                test_aucs.append(auc(scores, test.labels))
            assert max(test_aucs) - test_aucs[result.best_index] <= 0.05

    def test_no_training_on_held_out_data(self, monkeypatch):
        """Flipping held-out labels changes held-out AUC but not the fits."""
        fits = []

        def recording_fit(train_data, config, loadings=None):
            solution = fit_estimator(train_data, config, loadings=loadings)
            fits.append(solution)
            return solution

        monkeypatch.setattr("wavelogit.select.fit_estimator", recording_fit)
        rng = np.random.default_rng(3)
        data = planted_data(rng, 80)
        folds = make_folds(data.labels, 4, seed=1)
        grid = [FitConfig(estimator="wnet", lam=0.8)]
        clean = cross_validate(data, grid, folds)
        clean_fits, fits = fits, []

        poisoned_labels = data.labels.copy()
        victim_fold = 0
        test_idx = folds.split(victim_fold)[1]
        poisoned_labels[test_idx] = 1.0 - poisoned_labels[test_idx]
        poisoned = LabeledCoefficients(
            theta=data.theta, labels=poisoned_labels, basis=data.basis
        )
        dirty = cross_validate(poisoned, grid, folds)

        # one grid point, so the fits come in fold order
        assert len(clean_fits) == len(fits) == folds.k
        clean_sol = clean_fits[victim_fold]
        dirty_sol = fits[victim_fold]
        assert np.array_equal(clean_sol.omega, dirty_sol.omega)
        assert clean_sol.intercept == dirty_sol.intercept
        assert clean.criteria[0] != dirty.criteria[0]

    def test_failed_points_excluded(self):
        rng = np.random.default_rng(4)
        data = planted_data(rng, 40)
        folds = make_folds(data.labels, 4, seed=0)
        # q larger than any training fold allows fails; the wnet point survives
        grid = [
            FitConfig(estimator="wpcr", lam=0.1, q=39),
            FitConfig(estimator="wnet", lam=0.5),
        ]
        result = cross_validate(data, grid, folds)
        assert np.isnan(result.criteria[0])
        assert result.messages[0] is not None
        assert result.best_index == 1

    def test_all_failed_raises(self):
        rng = np.random.default_rng(5)
        data = planted_data(rng, 40)
        folds = make_folds(data.labels, 4, seed=0)
        with pytest.raises(SelectionError):
            cross_validate(data, [FitConfig(estimator="wpcr", lam=0.1, q=39)], folds)

    def test_empty_grid_raises(self):
        rng = np.random.default_rng(6)
        data = planted_data(rng, 40)
        folds = make_folds(data.labels, 4, seed=0)
        with pytest.raises(SelectionError):
            cross_validate(data, [], folds)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = planted_data(rng, 60)
        folds = make_folds(data.labels, 5, seed=2)
        grid = [FitConfig(estimator="wnet", lam=l) for l in (0.2, 1.0, 5.0)]
        r1 = cross_validate(data, grid, folds)
        r2 = cross_validate(data, grid, folds)
        np.testing.assert_array_equal(r1.criteria, r2.criteria)
        assert r1.best_index == r2.best_index

    @pytest.mark.parametrize("estimator", ["wpcr", "wpls", "wcr", "wls"])
    def test_shared_reduction_matches_separate_fits(self, estimator):
        """Each fold's shared reduction gives every grid point exactly the
        criterion and message of a fold loop where each config builds its
        own reduction; q=35 fits the data but not a 30-curve training fold."""
        rng = np.random.default_rng(22)
        data = planted_data(rng, 40, d=64)
        folds = make_folds(data.labels, 4, seed=0)
        grid = shared_grid(estimator, (4, 1, 35, 2))
        result = cross_validate(data, grid, folds)
        for index, config in enumerate(grid):
            scores, message = [], None
            for fold in range(folds.k):
                train, test = folds.split(fold)
                train_data = LabeledCoefficients(
                    theta=data.theta[train], labels=data.labels[train], basis=data.basis
                )
                try:
                    sol = fit_estimator(train_data, config)
                except (DataError, NumericalError) as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    break
                eta = data.theta[test] @ sol.omega + sol.intercept
                scores.append(auc(link_logistic(eta), data.labels[test]))
            assert result.messages[index] == message
            if config.q == 35:
                assert message.startswith("DataError: q=35 outside valid range")
                assert np.isnan(result.criteria[index])
            else:
                assert message is None
                assert result.criteria[index] == np.mean(scores)

    def test_failed_point_is_not_refit(self, monkeypatch):
        """A config that fails on the first fold is fit once, not once per fold."""
        calls = []

        def counting_fit(train_data, config, loadings=None):
            calls.append(config)
            return fit_estimator(train_data, config, loadings=loadings)

        monkeypatch.setattr("wavelogit.select.fit_estimator", counting_fit)
        rng = np.random.default_rng(23)
        data = planted_data(rng, 40)
        folds = make_folds(data.labels, 4, seed=0)
        doomed = FitConfig(estimator="wpcr", lam=0.1, q=39)
        grid = [doomed, FitConfig(estimator="wnet", lam=0.5)]
        result = cross_validate(data, grid, folds)
        assert result.messages[0] is not None and result.messages[1] is None
        assert calls.count(doomed) == 1
        assert calls.count(grid[1]) == folds.k


class TestAicc:
    def make_solution(self, omega, intercept, gamma=None):
        return PenalizedSolution(
            omega=np.asarray(omega, dtype=float),
            intercept=intercept,
            gamma=None if gamma is None else np.asarray(gamma, dtype=float),
            objective_trace=np.array([0.0]),
            kkt_residual=0.0,
            nonzero_detail_count=0,
            iterations=0,
        )

    def test_zero_parameters_is_twice_nll(self):
        rng = np.random.default_rng(10)
        data = planted_data(rng, 10)
        sol = self.make_solution(np.zeros(16), 0.0)
        assert abs(aicc(sol, data) - 2.0 * 10 * np.log(2.0)) <= 1e-12

    def test_formula_matches_independent_arithmetic(self):
        """k=2 (one coefficient plus intercept), n=10."""
        rng = np.random.default_rng(11)
        data = planted_data(rng, 10)
        omega = np.zeros(16)
        omega[3] = 0.7
        sol = self.make_solution(omega, -0.2)
        nll = neg_log_likelihood(sol.omega, sol.intercept, data)
        expected = 2.0 * nll + 2.0 * 2 + 2.0 * 2 * 3 / (10 - 2 - 1)
        assert abs(aicc(sol, data) - expected) <= 1e-12

    def test_smaller_support_wins_at_equal_nll(self):
        rng = np.random.default_rng(12)
        data = planted_data(rng, 30)
        small = self.make_solution(np.zeros(16), 0.0)
        big = self.make_solution(np.zeros(16), 0.0, gamma=np.ones(4))
        # identical predictions (omega is zero for the reduced fit too), equal NLL
        assert aicc(small, data) < aicc(big, data)

    def test_undefined_when_n_too_small(self):
        rng = np.random.default_rng(13)
        data = planted_data(rng, 6, d=16)
        sol = self.make_solution(np.ones(16) * 0.1, 0.3)
        with pytest.raises(CriterionUndefinedError):
            aicc(sol, data)

    def test_gamma_counts_for_reduced_fits(self):
        rng = np.random.default_rng(14)
        data = planted_data(rng, 50)
        sol = fit_estimator(data, FitConfig(estimator="wpcr", lam=0.01, q=3))
        nll = neg_log_likelihood(sol.omega, sol.intercept, data)
        k = 4  # three gamma entries plus the intercept
        expected = 2.0 * nll + 2.0 * k + 2.0 * k * (k + 1) / (50 - k - 1)
        assert abs(aicc(sol, data) - expected) <= 1e-12


class TestSelectByAicc:
    def test_single_point_grid(self):
        rng = np.random.default_rng(15)
        data = planted_data(rng, 60)
        result = select_by_aicc(data, [FitConfig(estimator="wpcr", lam=0.1, q=2)])
        assert result.best_index == 0

    def test_dominant_point_selected(self):
        """A q that nests the others and has the best NLL-to-size balance."""
        rng = np.random.default_rng(16)
        data = planted_data(rng, 120)
        grid = [FitConfig(estimator="wpcr", lam=1e-3, q=q) for q in (1, 2, 4, 8)]
        result = select_by_aicc(data, grid)
        values = result.criteria
        assert result.best_criterion == values.min()

    def test_agreement_with_cv_on_wnet_grids(self):
        """AICc and CV pick lambdas within one grid step in >= 7/10 runs."""
        rng = np.random.default_rng(7)
        agree = 0
        for rep in range(10):
            data = planted_data(rng, 150)
            top = lambda_max(data)
            grid = [FitConfig(estimator="wnet", lam=l) for l in np.geomspace(1e-3 * top, top, 6)]
            folds = make_folds(data.labels, 5, seed=rep)
            cv_idx = cross_validate(data, grid, folds).best_index
            aicc_idx = select_by_aicc(data, grid).best_index
            agree += abs(cv_idx - aicc_idx) <= 1
        assert agree >= 7

    @pytest.mark.parametrize("estimator", ["wpcr", "wpls", "wcr", "wls"])
    def test_shared_reduction_matches_separate_fits(self, estimator):
        """One reduction sliced per q gives every grid point exactly the
        criterion of a fit that builds its own reduction."""
        rng = np.random.default_rng(20)
        data = planted_data(rng, 60)
        grid = shared_grid(estimator, (4, 1, 2))
        result = select_by_aicc(data, grid)
        for config, value in zip(grid, result.criteria):
            assert value == aicc(fit_estimator(data, config), data)

    def test_invalid_q_fails_alone(self):
        """A q beyond the data's rank fails with its own message; the
        smaller q still use the shared reduction."""
        rng = np.random.default_rng(21)
        data = planted_data(rng, 30)
        grid = [FitConfig(estimator="wpcr", lam=0.05, q=q) for q in (2, 100)]
        result = select_by_aicc(data, grid)
        assert result.messages[0] is None
        assert result.criteria[0] == aicc(fit_estimator(data, grid[0]), data)
        assert result.messages[1].startswith("DataError: q=100 outside valid range")
        assert result.best_index == 0

    def test_all_undefined_raises(self):
        rng = np.random.default_rng(17)
        data = planted_data(rng, 6, d=16)
        with pytest.raises(SelectionError):
            select_by_aicc(data, [FitConfig(estimator="wnet", lam=1e-6)])


class TestOneReductionPerDataSet:
    """A wpcr grid over q in {1, 2, 4, 8, 16} and three penalties builds one
    reduction, at q = 16, per data set it is fit on; every config slices it."""

    GRID = [FitConfig(estimator="wpcr", lam=lam, q=q)
            for q in (1, 2, 4, 8, 16) for lam in (0.01, 0.1, 1.0)]

    @pytest.fixture
    def fits(self, monkeypatch):
        fits = []
        real_fit = penalized.pca_fit

        def counting_fit(theta, q):
            fits.append((theta.shape[0], q))
            return real_fit(theta, q)

        monkeypatch.setattr(penalized, "pca_fit", counting_fit)
        return fits

    def test_aicc_builds_one(self, fits):
        data = planted_data(np.random.default_rng(30), 60, d=32)
        select_by_aicc(data, self.GRID)
        assert fits == [(60, 16)]

    def test_cross_validation_builds_one_per_fold(self, fits):
        data = planted_data(np.random.default_rng(30), 60, d=32)
        cross_validate(data, self.GRID, make_folds(data.labels, 5, seed=0))
        assert fits == [(48, 16)] * 5


class TestDefaultGrids:
    def test_lambda_grid_spans_to_lambda_max(self):
        rng = np.random.default_rng(18)
        data = planted_data(rng, 80)
        grid = default_lambda_grid(data, num=20)
        assert grid.size == 20
        assert abs(grid[-1] - lambda_max(data)) <= 1e-12
        assert abs(grid[0] - 1e-4 * grid[-1]) <= 1e-12
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("num", [2.5, True])
    def test_lambda_grid_size_must_be_an_integer(self, num):
        """2.5 used to fail with a bare TypeError from np.geomspace."""
        data = planted_data(np.random.default_rng(18), 40)
        with pytest.raises(DataError, match="num must be an integer"):
            default_lambda_grid(data, num=num)

    def test_q_grid_capped(self):
        assert default_q_grid(100, 64) == (1, 2, 4, 8, 16)
        assert default_q_grid(10, 64) == (1, 2, 4, 8)
        assert default_q_grid(100, 3) == (1, 2)

    def test_tau_grid_shape(self):
        rng = np.random.default_rng(19)
        data = planted_data(rng, 50)
        taus = default_tau_grid(build_reduction(data, FitConfig("wls", q=4)))
        assert len(taus) == 3 and taus[0] == 0.0
        assert abs(taus[2] - 2.0 * taus[1]) <= 1e-15

    @pytest.mark.parametrize("estimator", ["wcr", "wls"])
    def test_tau_grid_from_a_slice_equals_a_fresh_fit(self, estimator):
        """The first q columns of the largest-q dense reduction give every
        default q the tau grid of a fresh fit at q, bit for bit."""
        data = planted_data(np.random.default_rng(20), 60, d=32)
        q_grid = default_q_grid(data.n, data.d)
        assert q_grid == (1, 2, 4, 8, 16)
        dense = build_reduction(data, FitConfig(estimator, q=q_grid[-1]))
        for q in q_grid:
            fresh = default_tau_grid(build_reduction(data, FitConfig(estimator, q=q)))
            sliced = default_tau_grid(dense[:, :q])
            assert np.array(sliced).tobytes() == np.array(fresh).tobytes()
            assert fresh[1] > 0.0
