"""Tests for PCA, PLS and sparse PLS reduction."""

import numpy as np
import pytest

from wavelogit.exceptions import DataError, RankDeficiencyError, SparsityError
from wavelogit.glm import LabeledCoefficients
from wavelogit.penalized import FitConfig, build_reduction
from wavelogit.reduce import pca_fit, pls_fit, sparse_component_fit
from wavelogit.wavelet import make_basis

from oracles import score_variances


def planted_labels(rng, n):
    labels = rng.integers(0, 2, size=n).astype(float)
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    return labels


class TestPcaFit:
    """Each component's score variance is its covariance eigenvalue."""

    def test_two_point_instance(self):
        """Spread only along the first axis: loading e_1, eigenvalue 2."""
        theta = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loadings = pca_fit(theta, q=1)
        np.testing.assert_allclose(loadings[:, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(score_variances(theta, loadings), [2.0], atol=1e-12)

    def test_isotropic_spectrum(self):
        d = 6
        theta = np.eye(d)
        loadings = pca_fit(theta, q=d - 1)
        eigenvalues = score_variances(theta, loadings)
        spread = eigenvalues.max() - eigenvalues.min()
        assert spread <= 1e-10
        gram = loadings.T @ loadings
        np.testing.assert_allclose(gram, np.eye(d - 1), atol=1e-10)

    def test_full_rank_reconstructs_covariance(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((50, 16))
        loadings = pca_fit(theta, q=16)
        centered = theta - theta.mean(axis=0)
        cov = centered.T @ centered / 49
        rebuilt = loadings @ np.diag(score_variances(theta, loadings)) @ loadings.T
        assert np.linalg.norm(rebuilt - cov) <= 1e-8

    def test_eigenvalue_sum_is_total_variance(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((30, 8)) * rng.uniform(0.5, 3.0, size=8)
        loadings = pca_fit(theta, q=8)
        centered = theta - theta.mean(axis=0)
        total = np.trace(centered.T @ centered / 29)
        assert abs(score_variances(theta, loadings).sum() - total) / total <= 1e-8

    def test_projection_preserves_row_norms_at_full_q(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((20, 8))
        loadings = pca_fit(theta, q=8)
        centered = theta - theta.mean(axis=0)
        projected = centered @ loadings
        np.testing.assert_allclose(
            np.linalg.norm(projected, axis=1), np.linalg.norm(centered, axis=1), rtol=1e-8
        )

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.standard_normal((15, 5))
            loadings = pca_fit(theta, q=4)
            for k in range(4):
                v = loadings[:, k]
                assert v[np.argmax(np.abs(v))] > 0

    def test_q_out_of_range(self):
        theta = np.zeros((5, 3))
        with pytest.raises(DataError):
            pca_fit(theta, q=0)
        with pytest.raises(DataError):
            pca_fit(theta, q=5)  # q > n-1

    @pytest.mark.parametrize("q", [2.0, True])
    def test_q_must_be_an_integer(self, q):
        """2.0 used to fail with a bare TypeError, and True fitted q = 1."""
        theta = np.random.default_rng(3).standard_normal((6, 4))
        with pytest.raises(DataError, match="q must be an integer"):
            pca_fit(theta, q=q)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((25, 10))
        assert np.array_equal(pca_fit(theta, q=5), pca_fit(theta, q=5))


class TestPlsFit:
    def test_signal_in_first_coordinate(self):
        rng = np.random.default_rng(5)
        n = 200
        labels = np.array([0.0, 1.0] * (n // 2))
        y_c = labels - labels.mean()
        noise = rng.standard_normal(n)
        noise -= noise @ y_c / (y_c @ y_c) * y_c  # orthogonal to the label signal
        theta = np.column_stack([y_c, noise])
        loadings = pls_fit(theta, labels, q=1)
        np.testing.assert_allclose(np.abs(loadings[:, 0]), [1.0, 0.0], atol=1e-8)

    def test_first_component_closed_form(self):
        """Component 1 is the normalized covariance vector of centered data."""
        rng = np.random.default_rng(6)
        theta = rng.standard_normal((60, 8))
        labels = planted_labels(rng, 60)
        loadings = pls_fit(theta, labels, q=2)
        centered = theta - theta.mean(axis=0)
        w = centered.T @ (labels - labels.mean())
        np.testing.assert_allclose(loadings[:, 0], w / np.linalg.norm(w), atol=1e-10)

    def test_single_class_rejected(self):
        theta = np.zeros((4, 3))
        with pytest.raises(DataError):
            pls_fit(theta, np.ones(4), q=1)

    def test_scores_mutually_orthogonal(self):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal((40, 10))
        labels = planted_labels(rng, 40)
        loadings = pls_fit(theta, labels, q=4)
        centered = theta - theta.mean(axis=0)
        residual = centered.copy()
        scores = []
        for k in range(4):
            t = residual @ loadings[:, k]
            scores.append(t)
            residual = residual - np.outer(t, residual.T @ t / (t @ t))
        for a in range(4):
            for b in range(a + 1, 4):
                na, nb = np.linalg.norm(scores[a]), np.linalg.norm(scores[b])
                assert abs(scores[a] @ scores[b]) / (na * nb) <= 1e-8

    def test_rank_deficiency_reports_components(self):
        # rank-one design: one PLS direction exhausts the label covariance
        n = 20
        labels = np.array([0.0, 1.0] * (n // 2))
        theta = np.outer(labels - 0.5, np.array([1.0, 2.0, -1.0]))
        with pytest.raises(RankDeficiencyError, match=r"after 1 component\(s\)"):
            pls_fit(theta, labels, q=3)


class TestSparseComponents:
    def test_tau_zero_matches_dense_pca(self):
        """wcr and wpcr fit in the dense PCA reduction, bit for bit."""
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((30, 16)) * rng.uniform(0.5, 2.5, size=16)
        data = LabeledCoefficients(
            theta=theta, labels=planted_labels(rng, 30), basis=make_basis("db4", 2, 16)
        )
        dense = pca_fit(theta, q=4)
        for config in (FitConfig("wcr", q=4), FitConfig("wpcr", lam=0.1, q=4)):
            np.testing.assert_array_equal(build_reduction(data, config), dense)

    def test_tau_zero_matches_dense_pls(self):
        rng = np.random.default_rng(9)
        theta = rng.standard_normal((40, 10))
        labels = planted_labels(rng, 40)
        dense = pls_fit(theta, labels, q=3)
        sparse = sparse_component_fit(theta, labels, q=3, sparsity=0.0)
        np.testing.assert_array_equal(sparse, dense)

    def test_too_much_sparsity_raises(self):
        rng = np.random.default_rng(12)
        theta = rng.standard_normal((20, 5))
        with pytest.raises(SparsityError, match="every coordinate of component 1$"):
            sparse_component_fit(theta, planted_labels(rng, 20), q=1, sparsity=1e6)

    def test_sparse_pls_thresholds_covariance_vector(self):
        """Component 1 soft-thresholds the unit-normalized covariance vector."""
        rng = np.random.default_rng(13)
        theta = rng.standard_normal((60, 8))
        labels = planted_labels(rng, 60)
        tau = 0.15
        loadings = sparse_component_fit(theta, labels, q=1, sparsity=tau)
        centered = theta - theta.mean(axis=0)
        w = centered.T @ (labels - labels.mean())
        w /= np.linalg.norm(w)
        expected = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
        expected /= np.linalg.norm(expected)
        assert np.count_nonzero(expected) < 8  # the threshold actually bites
        np.testing.assert_allclose(loadings[:, 0], expected, atol=1e-10)

    @pytest.mark.parametrize("sparsity", [-0.1, float("nan")])
    def test_bad_sparsity_rejected(self, sparsity):
        rng = np.random.default_rng(14)
        theta = rng.standard_normal((10, 4))
        with pytest.raises(DataError, match="sparsity threshold must be >= 0"):
            sparse_component_fit(theta, planted_labels(rng, 10), q=2, sparsity=sparsity)


class TestReduceExpand:
    """Reduce is (theta - column means) @ V_q; expand is V_q @ gamma."""

    def test_expand_unit_gamma_gives_column(self):
        rng = np.random.default_rng(14)
        theta = rng.standard_normal((20, 6))
        loadings = pca_fit(theta, q=3)
        gamma = np.eye(3)[0]
        np.testing.assert_allclose(loadings @ gamma, loadings[:, 0], atol=0)

    def test_pca_full_q_round_trip(self):
        rng = np.random.default_rng(15)
        theta = rng.standard_normal((20, 8))
        loadings = pca_fit(theta, q=8)
        centered = theta - theta.mean(axis=0)
        back = (centered @ loadings) @ loadings.T
        np.testing.assert_allclose(back, centered, atol=1e-8)

    def test_reduce_after_expand_is_identity(self):
        rng = np.random.default_rng(16)
        theta = rng.standard_normal((25, 10))
        loadings = pca_fit(theta, q=4)
        for _ in range(20):
            gamma = rng.standard_normal(4)
            back = (loadings @ gamma) @ loadings  # V^T V gamma
            np.testing.assert_allclose(back, gamma, atol=1e-10)


class TestLeading:
    """The first q columns of a fit at q_max are the fit at q, bit for bit."""

    @pytest.mark.parametrize("kind", ["pca", "pls"])
    def test_slice_equals_fresh_fit(self, kind):
        rng = np.random.default_rng(31)
        theta = rng.standard_normal((40, 24))
        labels = planted_labels(rng, 40)

        def fit(q):
            return pca_fit(theta, q) if kind == "pca" else pls_fit(theta, labels, q)

        full = fit(12)
        assert np.max(np.abs(np.linalg.norm(full, axis=0) - 1.0)) <= 1e-10
        for q in range(1, 13):
            fresh, sliced = fit(q), np.ascontiguousarray(full[:, :q])
            assert np.max(np.abs(np.linalg.norm(fresh, axis=0) - 1.0)) <= 1e-10
            assert np.array_equal(sliced, fresh)
            assert sliced.flags.c_contiguous == fresh.flags.c_contiguous
