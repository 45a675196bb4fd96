"""Reference quantities the tests check the package against.

None is part of the package: the package never needs the explicit
transform matrix, the PCA eigenvalues or whole-matrix draws of the curves.
"""

import numpy as np

from wavelogit.simulate import SynthSpec, coefficient_sds
from wavelogit.wavelet import WaveletBasis, dwt_forward, dwt_inverse


def transform_matrix(basis: WaveletBasis) -> np.ndarray:
    """Explicit d-by-d matrix W with W @ x == dwt_forward(x)."""
    # row i of the batched transform of I is the transform of e_i, i.e. column i of W
    return dwt_forward(np.eye(basis.d), basis).T


def score_variances(theta, loadings) -> np.ndarray:
    """Sample variance of each component's scores, ||(theta - mean) v_k||^2 / (n - 1);
    for PCA loadings these are the covariance eigenvalues."""
    theta = np.asarray(theta, dtype=float)
    scores = (theta - theta.mean(axis=0)) @ loadings
    return np.sum(scores * scores, axis=0) / (theta.shape[0] - 1)


def generate_curves(spec: SynthSpec) -> np.ndarray:
    """The simulated curves drawn whole: every coefficient in one call,
    inverted at once, then every noise value in one call."""
    rng = np.random.default_rng(spec.seed)
    n = 2 * spec.n_per_class
    coeffs = rng.standard_normal((n, spec.d)) * coefficient_sds(spec)
    if spec.true_support:
        coeffs[spec.n_per_class :, list(spec.true_support)] += np.asarray(spec.effect_sizes)
    curves = dwt_inverse(coeffs, spec.basis)
    noise = rng.standard_normal((n, spec.d))
    noise *= spec.noise_sd
    curves += noise
    return curves
