"""K-Means++ seeding and Lloyd iteration over embedding vectors.

Distance work deliberately avoids matrix-multiply kernels: per-centroid
ufunc reductions keep results bit-stable regardless of BLAS threading, which
the cleaning engine's byte-identical-output contract depends on. The
centroid update sums with ``np.bincount``, which adds each point into its
cluster's bin in point order, so that reduction order is fixed as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MAX_ITER, DEFAULT_TOL
from .rng import Xoshiro256StarStar

# slack for the inertia monotonicity assertion; Lloyd is monotone in exact
# arithmetic, float64 accumulation can wobble in the last ulps
_INERTIA_SLACK = 1e-9


@dataclass
class ClusteringResult:
    centroids: np.ndarray  # (k, dim)
    assignment: np.ndarray  # (n,) centroid index per point
    distances: np.ndarray  # (n,) Euclidean distance to assigned centroid
    inertia: float  # sum of squared assigned distances
    iterations: int


def _sq_dist_to(
    points: np.ndarray,
    centroid: np.ndarray,
    buf: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distance of every point to one centroid; buf (points' shape)
    and out ((n,)) are optional arrays to write into instead of new ones."""
    diff = np.subtract(points, centroid, out=buf)
    return np.einsum("ij,ij->i", diff, diff, out=out)


def _nearest(sq_dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point from (k, n) squared distances, and that
    distance; argmin returns the first minimum, so ties go to the lowest
    centroid index."""
    assignment = sq_dists.argmin(axis=0)
    return assignment, sq_dists[assignment, np.arange(sq_dists.shape[1])]


def distinct_rows(points: np.ndarray, stop_at: int | None = None) -> int:
    """Number of value-distinct rows, or stop_at as soon as that many are
    found. Adding 0.0 folds -0.0 into 0.0, so equal rows have equal bytes."""
    seen: set[bytes] = set()
    for row in points:
        seen.add((row + 0.0).tobytes())
        if len(seen) == stop_at:
            break
    return len(seen)


def kmeanspp_init(points: np.ndarray, k: int, rng_seed: int) -> np.ndarray:
    """D-squared seeding: first centroid uniform, the rest sampled with
    probability proportional to squared distance to the nearest chosen one."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-d array")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = distinct_rows(points, stop_at=k)
    if k > distinct:
        raise ValueError(f"k={k} exceeds the number of distinct points ({distinct})")

    rng = Xoshiro256StarStar(rng_seed)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = rng.next_below(n)
    centroids[0] = points[first]
    if k == 1:
        return centroids

    buf = np.empty_like(points)
    d2 = _sq_dist_to(points, centroids[0], buf)
    for j in range(1, k):
        total = float(d2.sum())
        # total > 0 is guaranteed while chosen centroids < distinct points
        r = rng.next_float() * total
        cum = np.cumsum(d2)
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx >= n:  # guards the r == total float edge case
            idx = int(np.max(np.nonzero(d2 > 0)[0]))
        centroids[j] = points[idx]
        np.minimum(d2, _sq_dist_to(points, centroids[j], buf), out=d2)
    return centroids


def lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> ClusteringResult:
    """Alternate assignment and mean updates until the largest centroid
    displacement drops below tol or max_iter is reached.

    Empty clusters are repaired by reseeding them on the globally farthest
    point. Inertia is asserted non-increasing at every assignment.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64, copy=True)
    if centroids.ndim != 2 or centroids.shape[0] == 0:
        raise ValueError("centroids must be a non-empty 2-d array")
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, centroids {centroids.shape[1]}-d"
        )
    k, dim = centroids.shape
    n = points.shape[0]
    flat_points = points.ravel()  # row-major, matching the bins below
    dim_offsets = np.arange(dim)

    buf = np.empty_like(points)
    sq_dists = np.empty((k, n))  # row j: squared distances to centroid j
    for j in range(k):
        _sq_dist_to(points, centroids[j], buf, sq_dists[j])
    assignment, d2 = _nearest(sq_dists)
    inertia = float(d2.sum())
    iterations = 0

    for _ in range(max_iter):
        # one flat bincount adds every coordinate into its (cluster, dim) bin
        # in canonical point order, so the reduction is fixed
        bins = (assignment[:, None] * dim + dim_offsets).ravel()
        new_centroids = np.bincount(bins, weights=flat_points, minlength=k * dim).reshape(k, dim)
        counts = np.bincount(assignment, minlength=k)
        nonempty = counts > 0
        new_centroids[nonempty] /= counts[nonempty, None]

        empty = np.nonzero(~nonempty)[0]
        if empty.size:
            # farthest points become the new homes, one per empty cluster
            order = np.lexsort((np.arange(n), -d2))
            taken = 0
            for cluster in empty:
                new_centroids[cluster] = points[order[taken]]
                taken += 1

        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        # a centroid equal in value to the last one keeps its row of
        # distances: recomputing it would give the same bits
        moved = np.flatnonzero((new_centroids != centroids).any(axis=1))
        centroids = new_centroids
        for j in moved:
            _sq_dist_to(points, centroids[j], buf, sq_dists[j])
        assignment, d2 = _nearest(sq_dists)
        new_inertia = float(d2.sum())
        if new_inertia > inertia + _INERTIA_SLACK * max(1.0, inertia):
            raise AssertionError(
                f"inertia increased: {inertia!r} -> {new_inertia!r}"
            )
        inertia = new_inertia
        iterations += 1
        if shift < tol:
            break

    return ClusteringResult(
        centroids=centroids,
        assignment=assignment,
        distances=np.sqrt(d2),
        inertia=inertia,
        iterations=iterations,
    )
