import itertools
import math

import numpy as np
import pytest

from tagforge.clustering import distinct_rows, kmeanspp_init, lloyd
from tagforge.data_engine import cluster_count
from tagforge.embedding_store import EmbeddingTable
from tagforge.rng import Xoshiro256StarStar, derive_seed

from engine_synth import Region, clean_regions, removed_pairs


def brute_force_optimum(points: np.ndarray, k: int) -> float:
    """Exhaustive minimum inertia over all assignments into <= k clusters."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        inertia = 0.0
        for cluster in range(k):
            members = points[[i for i in range(n) if assignment[i] == cluster]]
            if len(members):
                centroid = members.mean(axis=0)
                inertia += float(((members - centroid) ** 2).sum())
        best = min(best, inertia)
    return best


def test_init_k_equals_n_is_permutation():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        points = rng.normal(size=(n, 3))
        centroids = kmeanspp_init(points, n, rng_seed=derive_seed(100, trial))
        got = {tuple(row) for row in centroids}
        want = {tuple(row) for row in points}
        assert got == want


def test_init_k1_reproducible():
    points = np.arange(12, dtype=float).reshape(6, 2)
    a = kmeanspp_init(points, 1, rng_seed=99)
    b = kmeanspp_init(points, 1, rng_seed=99)
    assert np.array_equal(a, b)
    assert any(np.array_equal(a[0], p) for p in points)


def test_init_duplicate_points_never_reselected():
    p, q = np.array([1.0, 1.0]), np.array([5.0, 5.0])
    points = np.stack([p, p, q])
    for seed in range(40):
        centroids = kmeanspp_init(points, 2, rng_seed=seed)
        assert not np.array_equal(centroids[0], centroids[1])


def test_init_errors():
    points = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="distinct"):
        kmeanspp_init(points, 3, rng_seed=0)  # only 2 distinct points
    with pytest.raises(ValueError):
        kmeanspp_init(np.empty((0, 2)), 1, rng_seed=0)
    with pytest.raises(ValueError):
        kmeanspp_init(points, 0, rng_seed=0)


def test_lloyd_k1_mean():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    result = lloyd(points, points[:1].copy())
    assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
    assert result.iterations >= 1


def test_lloyd_two_separated_pairs():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    init = np.array([[0.0, 0.0], [10.0, 0.0]])
    result = lloyd(points, init)
    assert np.allclose(sorted(result.centroids.tolist()), [[0.0, 0.5], [10.0, 0.5]])
    assert result.inertia == pytest.approx(4 * 0.25)


def test_lloyd_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lloyd(np.ones((4, 3)), np.ones((2, 2)))


def test_lloyd_final_assignment_is_nearest_lowest_index():
    points = np.array([[0.0], [1.0], [2.0]])
    init = np.array([[0.5], [1.5]])
    result = lloyd(points, init, max_iter=0)
    # equidistant point 1.0 must take the lower centroid index
    assert result.assignment[1] == 0


def test_inertia_non_increasing_and_recount():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(4, 60))
        k = int(rng.integers(1, min(n, 6)))
        points = rng.normal(size=(n, int(rng.integers(1, 5))))
        result = lloyd(points, kmeanspp_init(points, k, derive_seed(5, trial)))
        recount = sum(
            float(((points[i] - result.centroids[result.assignment[i]]) ** 2).sum())
            for i in range(n)
        )
        assert abs(recount - result.inertia) <= 1e-9 * max(1.0, recount)
        initial = lloyd(points, kmeanspp_init(points, k, derive_seed(5, trial)), max_iter=0)
        assert result.inertia <= initial.inertia + 1e-9


def test_deterministic_given_seed():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(40, 4))
    a = lloyd(points, kmeanspp_init(points, 5, 1234))
    b = lloyd(points, kmeanspp_init(points, 5, 1234))
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.inertia == b.inertia and a.iterations == b.iterations
    c = lloyd(points, kmeanspp_init(points, 5, 1235))
    assert not np.array_equal(a.centroids, c.centroids)


def test_empty_cluster_repair_keeps_k():
    # both initial centroids inside one blob, far point forms its own cluster
    points = np.vstack([np.zeros((5, 2)), np.array([[100.0, 100.0]])])
    points[:5] += np.linspace(0, 0.1, 10).reshape(5, 2)
    init = np.array([[0.0, 0.0], [0.05, 0.05]])
    result = lloyd(points, init)
    assert len(set(result.assignment.tolist())) == 2


def test_restarts_reach_bruteforce_optimum():
    rng = np.random.default_rng(21)
    hits = 0
    trials = 30
    for trial in range(trials):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        points = rng.normal(size=(n, 2))
        best = min(
            lloyd(points, kmeanspp_init(points, k, derive_seed(777, trial, restart))).inertia
            for restart in range(20)
        )
        if best <= brute_force_optimum(points, k) + 1e-9:
            hits += 1
    assert hits >= int(0.90 * trials)


# -- bitwise equality with the reference kernels ----------------------------------
# The functions below are the original loop kernels: np.add.at centroid update,
# masked per-centroid assignment and np.unique distinct count. The optimized
# kernels must reproduce their every bit.


def _ref_sq_dist_to(points, centroid):
    diff = points - centroid
    return np.einsum("ij,ij->i", diff, diff)


def _ref_assign(points, centroids):
    n = points.shape[0]
    best = np.full(n, np.inf)
    assignment = np.zeros(n, dtype=np.int64)
    for j in range(centroids.shape[0]):
        d = _ref_sq_dist_to(points, centroids[j])
        better = d < best
        assignment[better] = j
        best[better] = d[better]
    return assignment, best


def _ref_kmeanspp_init(points, k, rng_seed):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        raise ValueError(f"k={k} exceeds the number of distinct points ({distinct})")
    rng = Xoshiro256StarStar(rng_seed)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.next_below(n)]
    if k == 1:
        return centroids
    d2 = _ref_sq_dist_to(points, centroids[0])
    for j in range(1, k):
        r = rng.next_float() * float(d2.sum())
        idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
        if idx >= n:
            idx = int(np.max(np.nonzero(d2 > 0)[0]))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _ref_sq_dist_to(points, centroids[j]))
    return centroids


def _ref_lloyd(points, centroids, max_iter=100, tol=1e-4):
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64, copy=True)
    k, n = centroids.shape[0], points.shape[0]
    assignment, d2 = _ref_assign(points, centroids)
    inertia = float(d2.sum())
    iterations = 0
    for _ in range(max_iter):
        new_centroids = np.zeros_like(centroids)
        counts = np.zeros(k, dtype=np.int64)
        np.add.at(new_centroids, assignment, points)
        np.add.at(counts, assignment, 1)
        nonempty = counts > 0
        new_centroids[nonempty] /= counts[nonempty, None]
        empty = np.nonzero(~nonempty)[0]
        if empty.size:
            order = np.lexsort((np.arange(n), -d2))
            for taken, cluster in enumerate(empty):
                new_centroids[cluster] = points[order[taken]]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        assignment, d2 = _ref_assign(points, centroids)
        inertia = float(d2.sum())
        iterations += 1
        if shift < tol:
            break
    return centroids, assignment, np.sqrt(d2), inertia, iterations


def _assert_lloyd_matches_reference(points, init, **kwargs):
    got = lloyd(points, init, **kwargs)
    want_centroids, want_assignment, want_distances, want_inertia, want_iterations = _ref_lloyd(
        points, init, **kwargs
    )
    assert np.array_equal(got.centroids, want_centroids)
    assert np.array_equal(got.assignment, want_assignment)
    assert np.array_equal(got.distances, want_distances)
    assert got.inertia == want_inertia
    assert got.iterations == want_iterations
    return got


def _bitwise_cases():
    """Seeded point sets covering duplicates, signed zeros, grids with exact
    distance ties, and plain Gaussian blobs."""
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = int(rng.integers(8, 300))
        dim = int(rng.integers(1, 40))
        points = rng.normal(size=(n, dim))
        if trial % 3 == 0:  # duplicate rows
            points[rng.integers(0, n, n // 3)] = points[rng.integers(0, n, n // 3)]
        if trial % 3 == 1:  # -0.0 and 0.0 in the same positions of equal rows
            points[: n // 4] = 0.0
            points[: n // 8] = -0.0
        yield f"random{trial}", points, int(rng.integers(1, 9))
    # integer grid: many points equidistant from several centroids
    grid = np.array([[x, y] for x in range(-3, 4) for y in range(-3, 4)], dtype=float)
    yield "grid", np.vstack([grid, grid]), 6
    yield "signed-zero", np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [1.0, 0.0], [-0.0, -0.0]]), 3


def test_kmeanspp_and_lloyd_bitwise_equal_reference():
    for name, points, k in _bitwise_cases():
        k = min(k, np.unique(points, axis=0).shape[0])
        for seed in range(4):
            init = kmeanspp_init(points, k, rng_seed=derive_seed(seed, 7))
            assert np.array_equal(init, _ref_kmeanspp_init(points, k, derive_seed(seed, 7))), name
            _assert_lloyd_matches_reference(points, init)
            _assert_lloyd_matches_reference(points, init, max_iter=2, tol=0.0)


def test_lloyd_bitwise_equal_reference_with_ties_and_empty_cluster():
    # exact ties: every point of the grid line sits midway between two centroids
    points = np.array([[float(x), 0.0] for x in range(-4, 5)] * 2)
    init = np.array([[-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
    result = _assert_lloyd_matches_reference(points, init, max_iter=0)
    assert set(result.assignment.tolist()) == {0, 2}  # ties go to the lowest index
    _assert_lloyd_matches_reference(points, init)
    # a centroid far from every point starts empty and is reseeded
    points = np.vstack([np.zeros((6, 3)), np.ones((6, 3)), np.full((1, 3), 9.0)])
    points[:12] += np.linspace(0.0, 0.05, 36).reshape(12, 3)
    init = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-50.0, -50.0, -50.0]])
    result = _assert_lloyd_matches_reference(points, init)
    assert len(set(result.assignment.tolist())) == 3


def test_distinct_count_matches_unique():
    for name, points, _ in _bitwise_cases():
        want = np.unique(points, axis=0).shape[0]
        assert distinct_rows(points) == want, name
        assert distinct_rows(points, stop_at=3) == min(3, want), name
    with pytest.raises(ValueError, match=r"distinct points \(3\)"):
        kmeanspp_init(np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 4, 0)


def _ref_clean_outliers(regions, table, fraction, seed, scope):
    """Outlier regions and removed pairs by the reference kernels and the
    sorted(key=(-distance, image_id, region_id)) ranking."""
    regs = sorted(regions, key=lambda r: (r.image_id, r.region_id))
    n = len(regs)
    points = np.asarray([table.vector(r.embedding_key) for r in regs])
    k = min(cluster_count(n), np.unique(points, axis=0).shape[0])
    init = _ref_kmeanspp_init(points, k, derive_seed(seed, regs[0].tag_id))
    _, assignment, distances, _, _ = _ref_lloyd(points, init)

    def ranked(indices):
        return sorted(indices, key=lambda i: (-distances[i], regs[i].image_id, regs[i].region_id))

    def quota(m):
        return math.ceil(fraction * m - 1e-9) if fraction > 0 and m > 0 else 0

    if scope == "category":
        outliers = set(ranked(range(n))[: quota(n)])
    else:
        outliers = set()
        for cluster in range(k):
            members = [i for i in range(n) if assignment[i] == cluster]
            outliers.update(ranked(members)[: quota(len(members))])
    by_image = {}
    for i, r in enumerate(regs):
        by_image.setdefault(r.image_id, []).append(i)
    removed = [
        (image_id, regs[0].tag_id)
        for image_id, idxs in sorted(by_image.items())
        if all(i in outliers for i in idxs)
    ]
    return [(regs[i].image_id, regs[i].region_id) for i in sorted(outliers)], removed


def test_clean_category_ranking_matches_reference():
    rng = np.random.default_rng(77)
    for trial in range(8):
        n = int(rng.integers(25, 200))
        dim = int(rng.integers(2, 12))
        # few distinct vectors shared by many regions: exact distance ties
        palette = rng.normal(size=(int(rng.integers(3, 12)), dim))
        vectors = {f"e{i}": palette[rng.integers(len(palette))] for i in range(n)}
        table = EmbeddingTable.from_vectors(vectors)
        regions = [
            Region(f"img{int(rng.integers(n // 2)):03d}", f"r{i:03d}", 5, f"e{i}")
            for i in rng.permutation(n)
        ]
        for scope in ("category", "cluster"):
            got, got_outliers = clean_regions(
                5, regions, table, fraction=0.2, seed=trial, outlier_scope=scope
            )
            want_outliers, want_removed = _ref_clean_outliers(regions, table, 0.2, trial, scope)
            assert got_outliers == want_outliers, (trial, scope)
            assert removed_pairs(got, regions) == want_removed, (trial, scope)
