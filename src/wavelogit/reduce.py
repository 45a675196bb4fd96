"""Dimension reduction of the coefficient matrix: PCA, PLS, sparse variants.

Each fit returns a :class:`ReducedBasis` whose loadings form the constraint
matrix V_q used by the reduced estimators (omega = V_q @ gamma).  PLS and
sparse PLS share one NIPALS loop, which soft-thresholds each direction only
when the threshold is positive; sparse PCA at a positive threshold runs a
soft-thresholded rank-one alternating iteration per component.  At a zero
threshold both sparse kinds return the dense fit bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataError, DimensionError, RankDeficiencyError, SparsityError

KIND_PCA = "pca"
KIND_PLS = "pls"
KIND_SPARSE_PCA = "sparse_pca"
KIND_SPARSE_PLS = "sparse_pls"
KINDS = (KIND_PCA, KIND_PLS, KIND_SPARSE_PCA, KIND_SPARSE_PLS)


@dataclass(frozen=True)
class ReducedBasis:
    """Loadings V_q (d x q) and per-component criterion values."""

    loadings: np.ndarray
    scores_scale: np.ndarray
    kind: str

    def __post_init__(self):
        loadings = np.asarray(self.loadings, dtype=float)
        scores_scale = np.asarray(self.scores_scale, dtype=float)
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "scores_scale", scores_scale)
        if self.kind not in KINDS:
            raise DataError(f"unknown reduction kind {self.kind!r}")
        if loadings.ndim != 2:
            raise DimensionError("loadings must be a d x q matrix")
        d, q = loadings.shape
        if not 1 <= q <= d:
            raise DataError(f"need 1 <= q <= d, got q={q}, d={d}")
        if scores_scale.shape != (q,):
            raise DimensionError("scores_scale must have length q")
        norms = np.linalg.norm(loadings, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise DataError("loadings columns must be unit-norm")
        if self.kind == KIND_PCA:
            gram = loadings.T @ loadings
            if np.max(np.abs(gram - np.eye(q))) > 1e-10:
                raise DataError("pca loadings must be orthonormal")
            if np.any(np.diff(scores_scale) > 1e-12) or np.any(scores_scale < -1e-12):
                raise DataError("pca eigenvalues must be non-increasing and non-negative")

    @property
    def q(self) -> int:
        return self.loadings.shape[1]

    @property
    def d(self) -> int:
        return self.loadings.shape[0]

    def leading(self, q: int) -> "ReducedBasis":
        """The first q components.

        Every kind builds its components in sequence (PCA takes them from
        one SVD), so this equals a fresh fit at q bit for bit.
        """
        if not 1 <= q <= self.q:
            raise DataError(f"need 1 <= q <= {self.q}, got q={q}")
        return ReducedBasis(
            loadings=np.ascontiguousarray(self.loadings[:, :q]),
            scores_scale=self.scores_scale[:q],
            kind=self.kind,
        )


def _check_q(theta: np.ndarray, q: int):
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


def pca_fit(theta, q: int) -> ReducedBasis:
    """Leading q principal directions of the centered coefficient matrix."""
    theta = np.asarray(theta, dtype=float)
    _check_q(theta, q)
    n = theta.shape[0]
    _, svals, vt = np.linalg.svd(theta - theta.mean(axis=0), full_matrices=False)
    eigenvalues = svals**2 / (n - 1)
    loadings = np.column_stack([_fix_sign(vt[k]) for k in range(q)])
    return ReducedBasis(loadings=loadings, scores_scale=eigenvalues[:q], kind=KIND_PCA)


def _threshold_direction(raw: np.ndarray, tau: float, k: int) -> np.ndarray:
    # threshold the unit-normalized direction so tau lives on loading scale
    norm = np.linalg.norm(raw)
    if norm < 1e-300:
        raise SparsityError(
            f"component {k + 1} target direction is zero", component_index=k
        )
    target = soft_threshold(raw / norm, tau)
    t_norm = np.linalg.norm(target)
    if t_norm == 0.0:
        raise SparsityError(
            f"threshold tau={tau} removed every coordinate of component {k + 1}",
            component_index=k,
        )
    return target / t_norm


def _nipals(theta, labels, q: int, tau: float, kind: str) -> ReducedBasis:
    """NIPALS PLS; each covariance direction is soft-thresholded when tau > 0."""
    theta = np.asarray(theta, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_q(theta, q)
    if labels.shape != (theta.shape[0],):
        raise DimensionError("labels length must match theta rows")
    if labels.min() == labels.max():
        raise DataError("PLS reduction requires both classes present")
    n = theta.shape[0]
    residual = theta - theta.mean(axis=0)
    y_c = labels - labels.mean()
    loadings = np.empty((theta.shape[1], q))
    criteria = np.empty(q)
    for k in range(q):
        w = residual.T @ y_c
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise RankDeficiencyError(
                f"label covariance vanished after {k} component(s)", components_achieved=k
            )
        v = _threshold_direction(w, tau, k) if tau > 0 else w / norm
        scores = residual @ v
        criteria[k] = abs(scores @ y_c) / (n - 1)
        loadings[:, k] = v
        # rank-one regression of every column on the score vector
        residual = residual - np.outer(scores, residual.T @ scores / (scores @ scores))
    return ReducedBasis(loadings=loadings, scores_scale=criteria, kind=kind)


def pls_fit(theta, labels, q: int) -> ReducedBasis:
    """NIPALS partial least squares directions for a binary response."""
    return _nipals(theta, labels, q, 0.0, KIND_PLS)


def _sparse_pca_component(residual: np.ndarray, tau: float, k: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(residual, full_matrices=False)
    v = _fix_sign(vt[0])
    for _ in range(500):
        v, previous = _fix_sign(_threshold_direction(residual.T @ (residual @ v), tau, k)), v
        if np.linalg.norm(v - previous) <= 1e-8:
            break
    return v


def sparse_component_fit(theta, labels, q: int, sparsity: float, kind: str) -> ReducedBasis:
    """Sparse PCA/PLS loadings by soft-thresholded alternating iteration.

    ``sparsity`` is compared against entries of the unit-normalized target
    direction, so useful values sit between 0 (dense) and the largest
    absolute loading entry.  At 0 the loadings and scales are those of
    :func:`pca_fit` or :func:`pls_fit` bit for bit, under the sparse kind.
    """
    if kind not in (KIND_SPARSE_PCA, KIND_SPARSE_PLS):
        raise DataError(f"kind must be sparse_pca or sparse_pls, got {kind!r}")
    if not sparsity >= 0:
        raise DataError(f"sparsity threshold must be >= 0, got {sparsity}")
    if kind == KIND_SPARSE_PLS:
        return _nipals(theta, labels, q, sparsity, kind)
    if sparsity == 0:
        return replace(pca_fit(theta, q), kind=kind)
    theta = np.asarray(theta, dtype=float)
    _check_q(theta, q)
    n = theta.shape[0]
    residual = theta - theta.mean(axis=0)
    loadings = np.empty((theta.shape[1], q))
    criteria = np.empty(q)
    for k in range(q):
        v = _sparse_pca_component(residual, sparsity, k)
        scores = residual @ v
        criteria[k] = scores @ scores / (n - 1)
        loadings[:, k] = v
        residual = residual - np.outer(scores, v)
    return ReducedBasis(loadings=loadings, scores_scale=criteria, kind=kind)
