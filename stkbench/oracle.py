"""Naive space-time kernel density oracle, written from the paper's formula.

Saule et al. (ICPP 2017), Section 2.1::

    f(x, y, t) = 1 / (n hs^2 ht) * sum_i  ks((x - xi)/hs, (y - yi)/hs)
                                         * kt((t - ti)/ht)

over the events with spatial distance ``d_i < hs`` and ``|t - ti| <= ht``,
with the Epanechnikov pair ``ks(u, v) = 2/pi (1 - u^2 - v^2)`` and
``kt(w) = 3/4 (1 - w^2)``.  Every query touches every event: O(n) per
answer, no index, no stamping, no code shared with the package under
test.  Voxel ``(X, Y, T)`` is sampled at its centre,
``origin + (index + 0.5) * resolution``.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 16


def density(events: np.ndarray, queries: np.ndarray, hs: float, ht: float) -> np.ndarray:
    """Estimator value at each ``(x, y, t)`` query row."""
    ev = np.asarray(events, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    out = np.zeros(q.shape[0])
    n = ev.shape[0]
    if n == 0:
        return out
    for lo in range(0, q.shape[0], _CHUNK):
        qc = q[lo:lo + _CHUNK]
        u = (qc[:, None, 0] - ev[None, :, 0]) / hs
        v = (qc[:, None, 1] - ev[None, :, 1]) / hs
        w = (qc[:, None, 2] - ev[None, :, 2]) / ht
        r2 = u * u + v * v
        inside = (r2 < 1.0) & (np.abs(w) <= 1.0)
        ks = (2.0 / math.pi) * (1.0 - r2)
        kt = 0.75 * (1.0 - w * w)
        out[lo:lo + _CHUNK] = np.where(inside, ks * kt, 0.0).sum(axis=1)
    return out / (n * hs * hs * ht)


def voxel_centres(origin, res, voxels: np.ndarray) -> np.ndarray:
    """Domain coordinates of the centres of integer ``(X, Y, T)`` voxels."""
    ox, oy, ot = origin
    sres, tres = res
    v = np.asarray(voxels, dtype=np.float64) + 0.5
    return np.column_stack(
        (ox + v[:, 0] * sres, oy + v[:, 1] * sres, ot + v[:, 2] * tres)
    )


def sample_voxels(rng, shape, events_vox: np.ndarray, k: int) -> np.ndarray:
    """``k`` voxels: half at events' own voxels (dense, nonzero answers),
    half uniform over the grid (mostly sparse or empty)."""
    gx, gy, gt = shape
    half = k // 2
    near = events_vox[rng.integers(0, len(events_vox), size=half)]
    near = np.clip(near, 0, np.array(shape) - 1)
    anywhere = np.column_stack((
        rng.integers(0, gx, size=k - half),
        rng.integers(0, gy, size=k - half),
        rng.integers(0, gt, size=k - half),
    ))
    return np.vstack((near, anywhere)).astype(np.int64)


def mismatches(got: np.ndarray, want: np.ndarray, rtol: float) -> int:
    """Answers outside ``rtol`` of the oracle.  The absolute floor is
    ``rtol`` times the largest oracle value, so a voxel whose density is
    a few vanishing kernel tails is judged on the batch's own scale."""
    got = np.asarray(got, dtype=np.float64)
    atol = rtol * float(np.max(np.abs(want), initial=0.0))
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    return int(np.count_nonzero(bad))


def approx_ok(got: np.ndarray, want: np.ndarray, eps: float) -> bool:
    """The approximate tier's contract: p95 relative error within ``eps``
    (over queries with a nonzero exact answer)."""
    nz = want > 0
    if not nz.any():
        return bool(np.all(np.asarray(got) == 0))
    rel = np.abs(np.asarray(got)[nz] - want[nz]) / want[nz]
    return float(np.quantile(rel, 0.95)) <= eps
