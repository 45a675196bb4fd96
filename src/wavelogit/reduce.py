"""Dimension reduction of the coefficient matrix: PCA, PLS, sparse variants.

Each fit returns its loadings, the d x q matrix V_q with unit-norm columns
that constrains the reduced estimators (omega = V_q @ gamma).  Every fit
builds its components in sequence (PCA takes them from one SVD), so the
first q columns of a fit equal a fresh fit at q bit for bit.  PLS and
sparse PLS share one NIPALS loop, which soft-thresholds each direction only
when the threshold is positive; sparse PCA at a positive threshold runs a
soft-thresholded rank-one alternating iteration per component.  At a zero
threshold both sparse kinds return the dense fit bit for bit.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataError, DimensionError, RankDeficiencyError, SparsityError, _as_int

KIND_SPARSE_PCA = "sparse_pca"
KIND_SPARSE_PLS = "sparse_pls"


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


def _nipals(theta, labels, q: int, tau: float) -> np.ndarray:
    """NIPALS PLS; each covariance direction is soft-thresholded when tau > 0."""
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
        v = _threshold_direction(w, tau, k) if tau > 0 else w / norm
        scores = residual @ v
        loadings[:, k] = v
        # rank-one regression of every column on the score vector
        residual = residual - np.outer(scores, residual.T @ scores / (scores @ scores))
    return loadings


def pls_fit(theta, labels, q: int) -> np.ndarray:
    """NIPALS partial least squares directions for a binary response."""
    return _nipals(theta, labels, q, 0.0)


def _sparse_pca_component(residual: np.ndarray, tau: float, k: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(residual, full_matrices=False)
    v = _fix_sign(vt[0])
    for _ in range(500):
        v, previous = _fix_sign(_threshold_direction(residual.T @ (residual @ v), tau, k)), v
        if np.linalg.norm(v - previous) <= 1e-8:
            break
    return v


def sparse_component_fit(theta, labels, q: int, sparsity: float, kind: str) -> np.ndarray:
    """Sparse PCA/PLS loadings by soft-thresholded alternating iteration.

    ``sparsity`` is compared against entries of the unit-normalized target
    direction, so useful values sit between 0 (dense) and the largest
    absolute loading entry.  At 0 the loadings are those of :func:`pca_fit`
    or :func:`pls_fit` bit for bit.
    """
    if kind not in (KIND_SPARSE_PCA, KIND_SPARSE_PLS):
        raise DataError(f"kind must be sparse_pca or sparse_pls, got {kind!r}")
    if not sparsity >= 0:
        raise DataError(f"sparsity threshold must be >= 0, got {sparsity}")
    if kind == KIND_SPARSE_PLS:
        return _nipals(theta, labels, q, sparsity)
    if sparsity == 0:
        return pca_fit(theta, q)
    theta = np.asarray(theta, dtype=float)
    _check_q(theta, q)
    residual = theta - theta.mean(axis=0)
    loadings = np.empty((theta.shape[1], q))
    for k in range(q):
        v = _sparse_pca_component(residual, sparsity, k)
        loadings[:, k] = v
        residual = residual - np.outer(residual @ v, v)
    return loadings
