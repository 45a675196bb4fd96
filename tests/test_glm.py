"""Tests for the logistic model core: link, likelihood, gradient, Newton fits."""

import numpy as np
import pytest

from wavelogit.exceptions import (
    ConvergenceError,
    DataError,
    DimensionError,
    NumericalError,
    SingularityError,
)
from wavelogit.glm import (
    LabeledCoefficients,
    _newton,
    irls_fit,
    link_logistic,
    neg_log_likelihood,
    nll_gradient,
)
from wavelogit.wavelet import make_basis


def labeled(theta, labels, j0=0):
    """``theta`` and ``labels`` in a db4 basis as wide as ``theta``."""
    return LabeledCoefficients(theta, labels, make_basis("db4", j0, np.shape(theta)[1]))


def random_instance(rng, n=30, d=8, scale=1.0):
    theta = rng.standard_normal((n, d))
    omega, intercept = scale * rng.standard_normal(d), scale * rng.standard_normal()
    p = link_logistic(theta @ omega + intercept)
    y = (rng.random(n) < p).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    data = labeled(theta, y, j0=1)
    return (omega, intercept), data


def two_branch_link(eta):
    """The link as two masked branches: 1/(1 + e^-eta) where eta >= 0 and
    e^eta/(1 + e^eta) elsewhere, then the clamp."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    out = np.clip(out, 1e-15, 1.0 - 1e-15)
    return float(out) if out.ndim == 0 else out


class TestLabeledCoefficients:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            labeled(np.zeros((3, 4)), np.array([0.0, 0.5, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            labeled(np.zeros((3, 4)), np.zeros(2))

    def test_rejects_tiny_problems(self):
        with pytest.raises(DataError):
            labeled(np.zeros((1, 4)), np.zeros(1))

    @pytest.mark.parametrize("width", [4, 16])
    def test_rejects_theta_wider_or_narrower_than_its_basis(self, width):
        basis = make_basis("db4", 1, 8)
        with pytest.raises(DimensionError, match="basis expects d=8"):
            LabeledCoefficients(np.zeros((4, width)), np.array([0.0, 1.0] * 2), basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        """A NaN coefficient used to make fit_wnet's backtracking loop spin
        forever, since every comparison with NaN is False."""
        theta = np.ones((4, 8))
        theta[2, 5] = bad
        with pytest.raises(DataError, match="finite"):
            labeled(theta, np.array([0.0, 1.0] * 2), j0=1)

    def test_rejects_coefficients_whose_squares_overflow(self):
        """Finite coefficients of 1e155 overflow every fitter's products;
        the sum of squares of 1e150 does not, so those are kept."""
        labels = np.array([0.0, 1.0] * 2)
        with pytest.raises(NumericalError, match="sum of squares overflows"):
            labeled(np.full((4, 8), -1e155), labels)
        assert labeled(np.full((4, 8), 1e150), labels).n == 4

    def test_single_class_blocks_fitting(self):
        data = labeled(np.eye(4), np.ones(4))
        with pytest.raises(DataError):
            irls_fit(data)


class TestLinearPredictor:
    def test_matches_summation_oracle(self):
        """The linear predictor intercept + theta @ omega equals an explicit
        sum.  A row seen once with each label has intercept gradient
        (p - 0) + (p - 1) = 2p - 1, which gives back p = link(eta)."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            # the next power of two at or above the drawn width
            d = 1 << (int(rng.integers(2, 20)) - 1).bit_length()
            omega, intercept = rng.standard_normal(d), rng.standard_normal()
            row = rng.standard_normal(d)
            oracle = intercept + sum(row[j] * omega[j] for j in range(d))
            data = labeled(np.vstack([row, row]), np.array([0.0, 1.0]))
            _, gi = nll_gradient(omega, intercept, data)
            assert abs((gi + 1.0) / 2.0 - link_logistic(oracle)) <= 1e-12


class TestLink:
    def test_center_and_known_value(self):
        assert link_logistic(0.0) == 0.5
        assert abs(link_logistic(np.log(3.0)) - 0.75) <= 1e-15

    def test_saturation_strictly_inside_unit_interval(self):
        hi = link_logistic(40.0)
        lo = link_logistic(-40.0)
        assert 0.0 < lo < hi < 1.0
        assert abs(hi - 1.0) <= 1e-12 and lo <= 1e-12

    def test_no_overflow_far_out(self):
        for eta in (-700.0, 700.0):
            p = link_logistic(eta)
            assert np.isfinite(p) and 0.0 < p < 1.0

    def test_open_interval_within_moderate_range(self):
        eta = np.linspace(-30, 30, 2001)
        p = link_logistic(eta)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_bits_equal_two_branch_formula(self):
        """Signed zeros, infinities, NaN of either sign, the clamp's edges,
        the float range's edges and random values give the two-branch
        formula's bits, and a scalar or 0-d input still gives a float;
        nothing overflows or is invalid (exp(-710) underflows in both forms)."""
        rng = np.random.default_rng(13)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        special += [34.5, -34.5, 710.0, -710.0, 1e-300, -1e-300]
        vectors = [
            np.array(special),
            rng.uniform(-50, 50, size=5000),
            rng.standard_normal((40, 3)) * 10.0,
            np.empty(0),
        ]
        with np.errstate(all="raise", under="ignore"):
            for eta in vectors:
                got, want = link_logistic(eta), two_branch_link(eta)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for value in special:
                for eta in (value, np.float64(value), np.array(value)):
                    got, want = link_logistic(eta), two_branch_link(eta)
                    assert type(got) is float
                    assert np.array(got).tobytes() == np.array(want).tobytes(), value

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        eta = rng.uniform(-30, 30, size=5000)
        np.testing.assert_allclose(link_logistic(-eta), 1.0 - link_logistic(eta), atol=1e-12)


class TestNegLogLikelihood:
    def test_zero_state_is_n_log_two(self):
        rng = np.random.default_rng(1)
        data = labeled(rng.standard_normal((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))
        assert abs(neg_log_likelihood(np.zeros(2), 0.0, data) - 4 * np.log(2.0)) <= 1e-12

    def test_saturated_fit_is_negligible(self):
        theta = np.array([[1.0, 0.0], [-1.0, 0.0]])
        data = labeled(theta, np.array([1.0, 0.0]))
        assert neg_log_likelihood(np.array([40.0, 0.0]), 0.0, data) <= 1e-12

    def test_matches_termwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            (omega, intercept), data = random_instance(rng)
            eta = [intercept + sum(row[j] * omega[j] for j in range(data.d)) for row in data.theta]
            p = [link_logistic(e) for e in eta]
            oracle = -sum(
                y * np.log(pi) + (1 - y) * np.log(1 - pi) for y, pi in zip(data.labels, p)
            )
            nll = neg_log_likelihood(omega, intercept, data)
            assert abs(nll - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_convexity_along_segments(self):
        """Midpoint NLL never exceeds the chord average."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, data = random_instance(rng)
            w0, w1 = rng.standard_normal((2, data.d))
            b0, b1 = rng.standard_normal(2)
            ends = [neg_log_likelihood(w, b, data) for w, b in ((w0, b0), (w1, b1))]
            mid = neg_log_likelihood((w0 + w1) / 2, (b0 + b1) / 2, data)
            assert mid <= (ends[0] + ends[1]) / 2 + 1e-10


class TestGradient:
    def test_balanced_labels_zero_intercept_gradient(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((10, 4))
        labels = np.array([0.0, 1.0] * 5)
        data = labeled(theta, labels)
        _, gi = nll_gradient(np.zeros(4), 0.0, data)
        assert abs(gi) <= 1e-12

    def test_saturated_observation_contributes_nothing(self):
        theta = np.array([[1.0, 0.0], [-1.0, 0.0]])
        data = labeled(theta, np.array([1.0, 0.0]))
        g, gi = nll_gradient(np.array([40.0, 0.0]), 0.0, data)
        assert np.max(np.abs(g)) <= 1e-12 and abs(gi) <= 1e-12

    def test_matches_finite_differences(self):
        """100 seeded instances, central differences, per-coordinate check."""
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(100):
            (omega, intercept), data = random_instance(rng, n=20, d=4)
            g, gi = nll_gradient(omega, intercept, data)
            for j in range(data.d + 1):
                def at(delta):
                    w = omega.copy()
                    b = intercept
                    if j < data.d:
                        w[j] += delta
                    else:
                        b += delta
                    return neg_log_likelihood(w, b, data)

                numeric = (at(h) - at(-h)) / (2 * h)
                exact = g[j] if j < data.d else gi
                denom = max(1.0, abs(exact))
                assert abs(numeric - exact) / denom <= 1e-5


@pytest.mark.parametrize("function", [neg_log_likelihood, nll_gradient])
@pytest.mark.parametrize(
    "omega",
    [np.zeros(5), np.zeros(3), np.zeros((4, 1)), 0.0],
    ids=["long", "short", "column", "scalar"],
)
def test_omega_must_match_theta_columns(function, omega):
    data = labeled(np.eye(4), np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(DimensionError):
        function(omega, 0.0, data)


class TestIrlsFit:
    def test_stationary_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, data = random_instance(rng, n=60, d=4, scale=0.5)
            g, gi = nll_gradient(*irls_fit(data, tol=1e-8), data)
            assert max(np.max(np.abs(g)), abs(gi)) <= 1e-8

    def test_nested_model_improves_fit(self):
        """A full model can only lower the NLL relative to intercept-only,
        which is the fit on all-zero columns."""
        theta = np.array([[-1.0], [-1.0], [-1.0], [1.0], [1.0], [1.0]])
        theta = np.column_stack([theta, np.zeros(6)])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])  # one flip each side
        data = labeled(theta, y)
        full = irls_fit(data)
        base = irls_fit(labeled(np.zeros_like(theta), y))
        assert np.all(base[0] == 0.0)
        assert neg_log_likelihood(*full, data) <= neg_log_likelihood(*base, data)

    def test_recovers_truth_on_large_sample(self):
        rng = np.random.default_rng(9)
        n, d = 5000, 4
        omega_true = np.array([0.8, -0.6, 0.0, 0.4])
        intercept_true = -0.3
        theta = rng.standard_normal((n, d))
        p = link_logistic(theta @ omega_true + intercept_true)
        y = (rng.random(n) < p).astype(float)
        omega, intercept = irls_fit(labeled(theta, y))
        assert np.max(np.abs(omega - omega_true)) <= 0.1
        assert abs(intercept - intercept_true) <= 0.1

    def test_intercept_only_closed_form(self):
        """All-zero columns leave only the intercept, at the log odds."""
        y = np.array([1.0] * 25 + [0.0] * 15)
        data = labeled(np.zeros((40, 4)), y)
        omega, intercept = irls_fit(data)
        assert abs(intercept - np.log(25 / 15)) <= 1e-10
        assert np.all(omega == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        _, data = random_instance(rng, n=80, d=8)
        (w1, b1), (w2, b2) = irls_fit(data), irls_fit(data)
        assert np.array_equal(w1, w2) and b1 == b2

    @pytest.mark.parametrize("scale", [1e8, 1e10])
    def test_duplicate_large_columns_are_singular(self, scale):
        """Two identical columns scaled far up make X^T W X singular even
        with the 1e-10 ridge; at scale 1 the ridge lets the fit converge."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal(40)
        y = (rng.random(40) < link_logistic(x)).astype(float)

        def duplicated(s):
            return labeled(s * np.column_stack([x, x]), y)

        irls_fit(duplicated(1.0))
        with pytest.raises(SingularityError):
            irls_fit(duplicated(scale))

    def test_nonconvergence_carries_residual(self):
        rng = np.random.default_rng(12)
        _, data = random_instance(rng, n=200, d=8)
        with pytest.raises(ConvergenceError, match="tolerance 1e-14 in 1 iterations") as info:
            irls_fit(data, max_iter=1, tol=1e-14)
        assert np.isfinite(info.value.residual) and info.value.residual > 1e-14


def newton_instance(seed):
    """n=60 rows, q=4 columns plus an intercept, a penalty map A (m=10 x q)
    and target b."""
    rng = np.random.default_rng(seed)
    n, q, m = 60, 4, 10
    design = rng.standard_normal((n, q))
    y = (rng.random(n) < link_logistic(design @ (0.5 * rng.standard_normal(q)))).astype(float)
    aug = np.column_stack([np.ones(n), design])
    a_mat = rng.standard_normal((m, q))
    b = rng.standard_normal(m)
    return aug, y, a_mat, b


class TestNewton:
    @pytest.mark.parametrize("rho", [1e-2, 1.0, 1e3])
    def test_quadratic_term_stationary_by_finite_differences(self, rho):
        """Central differences of NLL + (rho/2)||A beta[1:] - b||^2, written
        out here from the definition, vanish at the returned point."""
        aug, y, a_mat, b = newton_instance(30)
        beta, _ = _newton(aug, y, np.zeros(5), 50, 1e-9, (rho, a_mat, b, a_mat.T @ a_mat))

        def objective(x):
            eta = aug @ x
            r = a_mat @ x[1:] - b
            return np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0) - y * eta) + (
                0.5 * rho * (r @ r)
            )

        h = 1e-6
        numeric = [
            (objective(beta + h * e) - objective(beta - h * e)) / (2 * h) for e in np.eye(5)
        ]
        assert np.max(np.abs(numeric)) <= 1e-6

    def test_without_quadratic_term_equals_irls_fit(self):
        aug, y, _, _ = newton_instance(31)
        beta, steps = _newton(aug, y, np.zeros(5), 100, 1e-8)
        data = labeled(aug[:, 1:], y)
        omega, intercept = irls_fit(data, max_iter=100, tol=1e-8)
        assert steps >= 1
        np.testing.assert_allclose(beta[1:], omega, rtol=0, atol=1e-10)
        assert abs(beta[0] - intercept) <= 1e-10

    def test_cap_carries_residual(self):
        """The residual is the sup-norm of the gradient at the capped iterate,
        quadratic term included."""
        aug, y, a_mat, b = newton_instance(32)
        quad = (1.0, a_mat, b, a_mat.T @ a_mat)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as info:
            _newton(aug, y, np.zeros(5), 1, 1e-14, quad)
        # with the residual as its tolerance, a run stops after that one step
        _, steps = _newton(aug, y, np.zeros(5), 1, info.value.residual, quad)
        assert steps == 1
        assert info.value.residual > 1e-14
