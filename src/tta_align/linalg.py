"""Dense linear algebra: SPD factorization/inverse and covariance accumulation.

All carriers are float64 numpy arrays. Reductions keep numpy's fixed
summation order, so repeated runs on identical inputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFiniteInput, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains non-finite entries")
    return m


def spd_factor(m) -> np.ndarray:
    """The lower-triangular Cholesky factor L, with A = L @ L.T, of a
    symmetric positive-definite matrix.

    Raises NotPositiveDefinite when the matrix is not PD (degenerate
    covariance; the caller should regularize and retry).
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {a.shape}")
    scale = np.max(np.abs(a))
    if scale > 0 and np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if np.any(np.diag(lower) <= 0.0):
        raise NotPositiveDefinite("non-positive pivot in Cholesky factor")
    return lower


def spd_inverse(lower: np.ndarray) -> np.ndarray:
    """Dense inverse (L^-1)^T L^-1 of the matrix whose Cholesky factor is
    `lower`, symmetrized exactly.

    Raises NotPositiveDefinite when the inverse is not finite in float64:
    a matrix whose entries are all near the subnormal range factors, but
    its inverse overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inv_l = np.linalg.inv(lower)
        p = inv_l.T @ inv_l
        p = 0.5 * (p + p.T)
    if not np.all(np.isfinite(p)):
        raise NotPositiveDefinite("inverse overflows float64")
    return p


def mean_and_cov(samples) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased (1/N) covariance of the rows of an N x d matrix.

    The covariance is normalized by N, not N-1, and is exactly symmetric.
    """
    x = as_matrix(samples)
    n = x.shape[0]
    if n == 0:
        raise EmptyInput("need at least one sample")
    mu = x.sum(axis=0) / n
    centered = x - mu
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)
    return mu, cov
