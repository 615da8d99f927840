"""Distance, neighbor, and clustering kernels shared by every query strategy.

All operations are exact (no approximate indexing) and fully deterministic:
ties everywhere break toward the smaller index, and any randomness flows
through an explicit seed or Generator.
"""

from dataclasses import dataclass, field

import numpy as np

KMEANS_MAX_ITERS = 100


@dataclass
class Clustering:
    """Result of a k-means run."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (m,) cluster ids
    inertia: float
    inertia_history: list = field(default_factory=list, repr=False)


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clamped >= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def knn(points: np.ndarray, k: int):
    """Exact k nearest neighbors per point, self excluded.

    Returns (indices, distances), both (m, k), distances ascending with
    ties broken toward the smaller index.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if k >= m:
        raise ValueError(f"k={k} must be < number of points {m}")
    d2 = pairwise_sq_dist(points, points)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return order, dist


def _weighted_pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw proportional to non-negative weights."""
    cum = np.cumsum(weights)
    r = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, r, side="right"))
    return min(idx, len(weights) - 1)


def _kmeanspp_from_dist(n: int, k: int, rng: np.random.Generator, dist_to) -> np.ndarray:
    """Generic k-means++ seeding over an implicit squared-distance space.

    ``dist_to(j)`` must return squared distances from every point to point j.
    The rng is consumed as: one uniform integer for the first seed, then one
    uniform float per remaining seed.
    """
    chosen = [int(rng.integers(n))]
    d2 = np.maximum(dist_to(chosen[0]), 0.0)
    d2[chosen[0]] = 0.0
    for _ in range(k - 1):
        total = float(d2.sum())
        if total > 0.0:
            idx = _weighted_pick(d2, rng)
            if d2[idx] == 0.0:  # fp boundary guard: step to next positive weight
                positive = np.flatnonzero(d2 > 0.0)
                idx = int(positive[positive >= idx][0]) if np.any(positive >= idx) else int(positive[-1])
        else:
            # all remaining candidates are duplicates of chosen seeds
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            idx = int(np.flatnonzero(mask)[0])
        chosen.append(idx)
        d2 = np.minimum(d2, np.maximum(dist_to(idx), 0.0))
        d2[idx] = 0.0
    return np.asarray(chosen, dtype=np.int64)


def kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first seed uniform, then D^2-weighted draws."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if k > m:
        raise ValueError(f"k={k} exceeds number of points {m}")
    return _kmeanspp_from_dist(m, k, rng, lambda j: pairwise_sq_dist(points, points[j : j + 1])[:, 0])


def kmeans(points: np.ndarray, k: int, seed: int) -> Clustering:
    """Lloyd iterations from k-means++ seeds (rng = default_rng(seed)).

    Stops at an assignment fixpoint or after KMEANS_MAX_ITERS (100) Lloyd
    steps; there is no tolerance, the fixpoint is exact. Empty clusters are
    re-seeded at the point currently farthest from its assigned centroid, so
    all k clusters stay populated.
    """
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    if k > m:
        raise ValueError(f"k={k} exceeds number of points {m}")
    rng = np.random.default_rng(seed)
    centroids = points[kmeanspp_seed(points, k, rng)].copy()

    def assign(cent):
        d2 = pairwise_sq_dist(points, cent)
        a = np.argmin(d2, axis=1)
        return a, float(d2[np.arange(m), a].sum())

    assignments, inertia = assign(centroids)
    history = [inertia]
    for _ in range(KMEANS_MAX_ITERS):
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros((k, d))
        np.add.at(sums, assignments, points)
        new_centroids = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)

        empties = np.flatnonzero(counts == 0)
        if empties.size:
            resid = points - new_centroids[assignments]
            gap = np.einsum("ij,ij->i", resid, resid)
            for cid in empties:
                far = int(np.argmax(gap))
                new_centroids[cid] = points[far]
                gap[far] = -np.inf

        new_assignments, new_inertia = assign(new_centroids)
        centroids = new_centroids
        history.append(new_inertia)
        if np.array_equal(new_assignments, assignments):
            assignments, inertia = new_assignments, new_inertia
            break
        assignments, inertia = new_assignments, new_inertia
    return Clustering(centroids=centroids, assignments=assignments, inertia=inertia, inertia_history=history)


def nearest_to_centroids(points: np.ndarray, clustering: Clustering) -> np.ndarray:
    """Per non-empty cluster, the member closest to its centroid (ties: smaller index).

    Clusters are disjoint, so the picks are distinct.
    """
    points = np.asarray(points, dtype=np.float64)
    picks = []
    k = clustering.centroids.shape[0]
    for cid in range(k):
        members = np.flatnonzero(clustering.assignments == cid)
        if members.size == 0:
            continue
        d2 = pairwise_sq_dist(points[members], clustering.centroids[cid : cid + 1])[:, 0]
        picks.append(int(members[np.argmin(d2)]))
    return np.asarray(picks, dtype=np.int64)


def greedy_k_center(points: np.ndarray, existing_centers, b: int) -> np.ndarray:
    """Greedy k-center: repeatedly take the point farthest from all centers.

    With no existing centers the first pick is the point farthest from the
    dataset mean, keeping the query fully deterministic.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    existing = np.asarray(existing_centers, dtype=np.int64)
    if b > m - existing.size:
        raise ValueError(f"cannot pick b={b} new centers from {m - existing.size} candidates")

    blocked = np.zeros(m, dtype=bool)
    blocked[existing] = True
    picks = []

    if existing.size:
        min_d2 = pairwise_sq_dist(points, points[existing]).min(axis=1)
    else:
        mean = points.mean(axis=0, keepdims=True)
        d2_mean = pairwise_sq_dist(points, mean)[:, 0]
        first = int(np.argmax(d2_mean))
        picks.append(first)
        blocked[first] = True
        min_d2 = pairwise_sq_dist(points, points[first : first + 1])[:, 0]

    while len(picks) < b:
        scores = np.where(blocked, -np.inf, min_d2)
        pick = int(np.argmax(scores))
        picks.append(pick)
        blocked[pick] = True
        min_d2 = np.minimum(min_d2, pairwise_sq_dist(points, points[pick : pick + 1])[:, 0])
    return np.asarray(picks, dtype=np.int64)
