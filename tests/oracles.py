"""Reference quantities the tests check the package against.

Neither is part of the package: the package never needs the explicit
transform matrix or the PCA eigenvalues.
"""

import numpy as np

from wavelogit.wavelet import WaveletBasis, dwt_forward


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
