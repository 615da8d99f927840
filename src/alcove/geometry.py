"""Distance, neighbor, and clustering kernels shared by every query strategy.

All operations are exact (no approximate indexing) and fully deterministic:
ties everywhere break toward the smaller index, and any randomness flows
through an explicit seed or Generator.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

KMEANS_MAX_ITERS = 100

# Bytes of squared distances one row block of a points-vs-points kernel holds.
# knn, _nearest_other_label_dist and _ball_graph read the distances through
# _row_blocks, in O(block + output) memory, and never build the n x n matrix.
BLOCK_BYTES = 4 * 2**20
# Fewest rows in a block, whatever the budget: each block's product reads
# every point once, so blocks of a few rows leave it bound by memory traffic
# (past 8,192 points, where the budget holds fewer rows).
BLOCK_MIN_ROWS = 64


@dataclass
class Clustering:
    """Result of a k-means run."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (m,) cluster ids
    inertia: float
    inertia_history: list = field(default_factory=list, repr=False)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _sq_dist(a: np.ndarray, b: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """pairwise_sq_dist(a, b), given the squared row norms a2 and b2."""
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clamped >= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _sq_dist(a, b, _sq_norms(a), _sq_norms(b))


def _row_blocks(points: np.ndarray):
    """Yield (rows, d2) with d2 = pairwise_sq_dist(points, points)[rows] for
    consecutive row slices of about BLOCK_BYTES of d2 each, and at least
    BLOCK_MIN_ROWS rows.

    Each block is computed by pairwise_sq_dist's expression with the squared
    norms taken once. One block reproduces the full matrix bit for bit; a
    block's product may round otherwise than the same rows of the full
    product, since BLAS picks its kernel by shape. A one-row product goes
    through a matrix-vector kernel, so a one-row remainder joins the block
    before it.
    """
    m = points.shape[0]
    sq = _sq_norms(points)
    step = max(BLOCK_MIN_ROWS, BLOCK_BYTES // (8 * max(m, 1)))
    start = 0
    while start < m:
        stop = start + step
        if stop >= m - 1:
            stop = m
        yield slice(start, stop), _sq_dist(points[start:stop], points, sq[start:stop], sq)
        start = stop


def _smallest_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns of the k smallest values ordered by (value, column):
    the first k columns of a stable argsort, NaN last."""
    part = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    by_value = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(part, by_value, axis=1)
    # a row whose k-th value ties with a value left out (or is NaN) may have
    # kept a larger column than the stable sort does: sort it in full
    kth = np.take_along_axis(d2, order[:, -1:], axis=1)
    redo = np.count_nonzero(d2 <= kth, axis=1) != k
    if redo.any():
        order[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :k]
    return order


def knn(points: np.ndarray, k: int):
    """Exact k nearest neighbors per point, self excluded.

    Returns (indices, distances), both (m, k), distances ascending with
    ties broken toward the smaller index.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k >= m:
        raise ValueError(f"k={k} must be < number of points {m}")
    idx = np.empty((m, k), dtype=np.int64)
    dist = np.empty((m, k))
    for rows, d2 in _row_blocks(points):
        np.fill_diagonal(d2[:, rows.start :], np.inf)
        order = _smallest_k(d2, k)
        idx[rows] = order
        dist[rows] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return idx, dist


def _nearest_other_label_dist(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per point of the float64 (m, d) points, the distance to the nearest
    point with another label (inf where every point shares its label)."""
    nearest = np.empty(points.shape[0])
    for rows, d2 in _row_blocks(points):
        d2[labels[rows, None] == labels[None, :]] = np.inf
        nearest[rows] = d2.min(axis=1)
    return np.sqrt(nearest)


def _ball_graph(points: np.ndarray, radius: float) -> sp.csr_matrix:
    """Boolean CSR graph over the float64 (m, d) points whose row i holds
    every j whose squared distance from point i is at most radius**2, i itself included when that holds.
    Each row is tested on its own distances, so the graph need not be
    symmetric.
    """
    m = points.shape[0]
    r2 = radius * radius
    indptr = np.zeros(m + 1, dtype=np.int64)
    columns = [np.empty(0, dtype=np.int32)]  # 2**31 points would not fit in memory
    for rows, d2 in _row_blocks(points):
        near = d2 <= r2
        indptr[rows.start + 1 : rows.stop + 1] = np.count_nonzero(near, axis=1)
        columns.append(np.nonzero(near)[1].astype(np.int32))
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(columns)
    return sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr), shape=(m, m))


def _dist_to_point(points: np.ndarray, sq: np.ndarray, j: int) -> np.ndarray:
    """pairwise_sq_dist(points, points[j : j + 1])[:, 0], given the squared row norms sq."""
    return _sq_dist(points, points[j : j + 1], sq, sq[j : j + 1])[:, 0]


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
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > m:
        raise ValueError(f"k={k} exceeds number of points {m}")
    sq = _sq_norms(points)
    return _kmeanspp_from_dist(m, k, rng, lambda j: _dist_to_point(points, sq, j))


def _cluster_sums(points: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per cluster, the sum of its member rows in index order (+0.0 when empty).

    One product of a k x m CSR matrix of ones with the points. scipy's
    CSR-dense kernel zero-fills each output row and adds its columns in
    stored order, so the sums equal np.add.at's bit for bit.
    """
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    members = np.argsort(assignments, kind="stable")
    ones = sp.csr_matrix(
        (np.ones(len(members)), members, indptr), shape=(len(counts), len(assignments))
    )
    return ones @ points


def kmeans(points: np.ndarray, k: int, seed: int) -> Clustering:
    """Lloyd iterations from k-means++ seeds (rng = default_rng(seed)).

    Stops at an assignment fixpoint or after KMEANS_MAX_ITERS (100) Lloyd
    steps; there is no tolerance, the fixpoint is exact. Empty clusters are
    re-seeded at the point currently farthest from its assigned centroid.
    Coinciding points can still leave clusters empty, since a point tied
    between centroids goes to the smaller cluster id; callers that need k
    picks pad them.
    """
    points = np.asarray(points, dtype=np.float64)
    m, _ = points.shape
    if k > m:
        raise ValueError(f"k={k} exceeds number of points {m}")
    rng = np.random.default_rng(seed)
    centroids = points[kmeanspp_seed(points, k, rng)].copy()
    sq = _sq_norms(points)

    def assign(cent):
        d2 = _sq_dist(points, cent, sq, _sq_norms(cent))
        a = np.argmin(d2, axis=1)
        return a, float(d2[np.arange(m), a].sum())

    assignments, inertia = assign(centroids)
    history = [inertia]
    for _ in range(KMEANS_MAX_ITERS):
        counts = np.bincount(assignments, minlength=k)
        sums = _cluster_sums(points, assignments, counts)
        new_centroids = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)

        empties = np.flatnonzero(counts == 0)
        if empties.size:
            resid = points - new_centroids[assignments]
            gap = _sq_norms(resid)
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

    picks = []
    sq = _sq_norms(points)
    # a center's own entry is -inf, so the argmax never takes it again
    if existing.size:
        min_d2 = _sq_dist(points, points[existing], sq, sq[existing]).min(axis=1)
        min_d2[existing] = -np.inf
    elif b:
        mean = points.mean(axis=0, keepdims=True)
        d2_mean = _sq_dist(points, mean, sq, _sq_norms(mean))[:, 0]
        first = int(np.argmax(d2_mean))
        picks.append(first)
        min_d2 = _dist_to_point(points, sq, first)
        min_d2[first] = -np.inf

    while len(picks) < b:
        pick = int(np.argmax(min_d2))
        picks.append(pick)
        min_d2 = np.minimum(min_d2, _dist_to_point(points, sq, pick))
        min_d2[pick] = -np.inf
    return np.asarray(picks, dtype=np.int64)
