"""Dimension reduction of the coefficient matrix: PCA, PLS and sparse PLS.

Each fit returns its loadings, the d x q matrix V_q with unit-norm columns
that constrains the reduced estimators (omega = V_q @ gamma).  Every fit
builds its components in sequence (PCA takes them from one SVD), so the
first q columns of a fit equal a fresh fit at q bit for bit.  PLS and
sparse PLS share one NIPALS loop of q steps, which soft-thresholds each
direction only when the threshold is positive, so at a zero threshold
sparse PLS is PLS bit for bit.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataError, DimensionError, RankDeficiencyError, SparsityError, _as_int


def _check_q(theta: np.ndarray, q: int):
    _as_int(q, "q")
    n, d = theta.shape
    if n < 2:
        raise DataError(f"reduction needs n >= 2 rows, got n={n}")
    limit = min(n - 1, d)
    if not 1 <= q <= limit:
        raise DataError(f"q={q} outside valid range [1, {limit}] for n={n}, d={d}")


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # reproducible eigenvector orientation: largest-|entry| made positive
    if v[np.argmax(np.abs(v))] < 0:
        return -v
    return v


def soft_threshold(z, t):
    """sign(z) * max(|z| - t, 0); exact zeros inside the threshold."""
    if t < 0:
        raise DataError(f"threshold must be >= 0, got {t}")
    z = np.asarray(z, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    return float(out) if out.ndim == 0 else out


def pca_fit(theta, q: int) -> np.ndarray:
    """Leading q principal directions of the centered coefficient matrix."""
    theta = np.asarray(theta, dtype=float)
    _check_q(theta, q)
    _, _, vt = np.linalg.svd(theta - theta.mean(axis=0), full_matrices=False)
    return np.column_stack([_fix_sign(vt[k]) for k in range(q)])


def _threshold_direction(raw: np.ndarray, tau: float, k: int) -> np.ndarray:
    # threshold the unit-normalized direction so tau lives on loading scale
    norm = np.linalg.norm(raw)
    if norm < 1e-300:
        raise SparsityError(f"component {k + 1} target direction is zero")
    target = soft_threshold(raw / norm, tau)
    t_norm = np.linalg.norm(target)
    if t_norm == 0.0:
        raise SparsityError(
            f"threshold tau={tau} removed every coordinate of component {k + 1}"
        )
    return target / t_norm


def pls_fit(theta, labels, q: int) -> np.ndarray:
    """NIPALS partial least squares directions for a binary response."""
    return sparse_component_fit(theta, labels, q, 0.0)


def sparse_component_fit(theta, labels, q: int, sparsity: float) -> np.ndarray:
    """Sparse PLS loadings: NIPALS with each covariance direction
    soft-thresholded at ``sparsity``.

    ``sparsity`` is compared against entries of the unit-normalized
    direction, so useful values sit between 0 (dense) and the largest
    absolute entry.  At 0 the loadings are those of :func:`pls_fit` bit for
    bit.
    """
    if not sparsity >= 0:
        raise DataError(f"sparsity threshold must be >= 0, got {sparsity}")
    theta = np.asarray(theta, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_q(theta, q)
    if labels.shape != (theta.shape[0],):
        raise DimensionError("labels length must match theta rows")
    if labels.min() == labels.max():
        raise DataError("PLS reduction requires both classes present")
    residual = theta - theta.mean(axis=0)
    y_c = labels - labels.mean()
    loadings = np.empty((theta.shape[1], q))
    for k in range(q):
        w = residual.T @ y_c
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise RankDeficiencyError(f"label covariance vanished after {k} component(s)")
        v = _threshold_direction(w, sparsity, k) if sparsity > 0 else w / norm
        scores = residual @ v
        loadings[:, k] = v
        # rank-one regression of every column on the score vector
        residual = residual - np.outer(scores, residual.T @ scores / (scores @ scores))
    return loadings
