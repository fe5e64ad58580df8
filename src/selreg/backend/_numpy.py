"""Pure NumPy implementations of the hot kernels.

Semantics are identical to the compiled module; see backend/__init__.py for
the contracts.  Distances are computed from explicit differences (not the
norm expansion) so results track the compiled kernels to rounding error.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256  # bounds the (chunk, m, d) difference tensor


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.shape[1] != queries.shape[1]:
        raise ValueError("dimension mismatch between queries and points")
    nq = queries.shape[0]
    out = np.empty((nq, points.shape[0]), dtype=np.float64)
    for start in range(0, nq, _CHUNK):
        block = queries[start : start + _CHUNK]
        diff = block[:, None, :] - points[None, :, :]
        out[start : start + _CHUNK] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def knn_mean(
    queries: np.ndarray, points: np.ndarray, values: np.ndarray, k: int
) -> np.ndarray:
    """Mean of the values at the k nearest points; distance ties break by
    ascending point index (stable sort)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != np.shape(points)[0]:
        raise ValueError("values length must match point count")
    if not 1 <= k <= values.shape[0]:
        raise ValueError("k out of range")
    d2 = pairwise_sq_dists(queries, points)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return values[order].mean(axis=1)


def gaussian_nw(
    queries: np.ndarray, centers: np.ndarray, values: np.ndarray, sigma: float
) -> np.ndarray:
    """Nadaraya-Watson average with weights exp(-||q - c||^2 / sigma).

    If every weight underflows to zero the estimate falls back to the value
    at the nearest center (ties by ascending index).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != np.shape(centers)[0]:
        raise ValueError("values length must match center count")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    d2 = pairwise_sq_dists(queries, centers)
    w = np.exp(-d2 / float(sigma))
    den = w.sum(axis=1)
    num = w @ values
    safe = np.where(den > 0.0, den, 1.0)
    out = num / safe
    dead = den == 0.0
    if np.any(dead):
        out[dead] = values[np.argmin(d2[dead], axis=1)]
    return out
