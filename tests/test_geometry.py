import itertools

import numpy as np
import pytest

from alcove import geometry
from alcove.geometry import (
    greedy_k_center,
    kmeans,
    kmeanspp_seed,
    knn,
    nearest_to_centroids,
    pairwise_sq_dist,
)
from oracles import cluster_sums_add_at


def naive_sq_dist(a, b):
    out = np.zeros((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            for t in range(a.shape[1]):
                out[i, j] += (a[i, t] - b[j, t]) ** 2
    return out


class TestPairwiseSqDist:
    def test_same_point(self):
        assert pairwise_sq_dist(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0

    def test_three_four_five(self):
        assert pairwise_sq_dist(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0, 0] == 25.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        assert np.allclose(pairwise_sq_dist(a, b), naive_sq_dist(a, b), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_sq_dist(np.zeros((2, 3)), np.zeros((2, 4)))


class TestKnn:
    def test_collinear(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        idx, dist = knn(pts, 1)
        assert idx[:, 0].tolist() == [1, 0, 1]
        assert np.allclose(dist[:, 0], [1.0, 1.0, 9.0])

    def test_full_neighborhood_is_permutation(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2))
        idx, _ = knn(pts, 5)
        for i in range(6):
            assert sorted(idx[i].tolist()) == sorted(set(range(6)) - {i})

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 4))
        idx, dist = knn(pts, 5)
        for i in range(20):
            d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            expected = np.lexsort((np.arange(20), d))[:5]
            assert idx[i].tolist() == expected.tolist()
            assert np.allclose(dist[i], d[expected])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn(np.zeros((3, 2)), 3)


class TestKmeansppSeed:
    def test_k_equals_m_selects_all(self):
        rng = np.random.default_rng(3)
        pts = np.array([[0.0], [0.0], [5.0], [9.0]])
        seeds = kmeanspp_seed(pts, 4, rng)
        assert sorted(seeds.tolist()) == [0, 1, 2, 3]

    def test_zero_distance_point_excluded(self):
        pts = np.array([[0.0], [0.0], [100.0]])
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(trial)
            first = int(rng.integers(3))
            if first != 2:
                continue
            hits += 1
            seeds = kmeanspp_seed(pts, 2, np.random.default_rng(trial))
            assert seeds[0] == 2 and seeds[1] in (0, 1)
        assert hits > 0

    def test_empirical_distribution_matches_d2_weights(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        trials = 10000
        for _ in range(trials):
            counts[kmeanspp_seed(pts, 2, rng)[1]] += 1
        # analytic: first uniform; second ~ d^2 to the first seed
        d2 = naive_sq_dist(pts, pts)
        expected = np.zeros(3)
        for first in range(3):
            w = d2[:, first]
            expected += (1 / 3) * w / w.sum()
        assert np.abs(counts / trials - expected).max() < 0.02

    def test_k_exceeds_m(self):
        with pytest.raises(ValueError):
            kmeanspp_seed(np.zeros((2, 1)), 3, np.random.default_rng(0))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k=0"):
            kmeanspp_seed(np.zeros((2, 1)), 0, np.random.default_rng(0))


class TestKmeans:
    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k=0"):
            kmeans(np.zeros((3, 2)), 0, seed=0)

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 3))
        cl = kmeans(pts, 1, seed=0)
        assert np.allclose(cl.centroids[0], pts.mean(axis=0))
        assert np.isclose(cl.inertia, ((pts - pts.mean(axis=0)) ** 2).sum())

    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        cl = kmeans(pts, 2, seed=0)
        assert cl.assignments[0] == cl.assignments[1]
        assert cl.assignments[2] == cl.assignments[3]
        assert cl.assignments[0] != cl.assignments[2]

    def test_final_inertia_below_seeding_inertia(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 4))
        seed = 9
        cl = kmeans(pts, 5, seed=seed)
        # oracle bound: inertia of assigning everything to the k-means++ seeds
        seeds = kmeanspp_seed(pts, 5, np.random.default_rng(seed))
        d2 = naive_sq_dist(pts, pts[seeds])
        seed_inertia = d2.min(axis=1).sum()
        assert cl.inertia <= seed_inertia + 1e-9

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            pts = rng.normal(size=(40, 3))
            hist = kmeans(pts, 4, seed=trial).inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_centroids_are_member_means_at_convergence(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        cl = kmeans(pts, 3, seed=1)
        for cid in range(3):
            members = pts[cl.assignments == cid]
            assert members.size
            assert np.allclose(cl.centroids[cid], members.mean(axis=0), atol=1e-6)


class TestNearestToCentroids:
    def test_singletons(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        cl = kmeans(pts, 3, seed=0)
        assert sorted(nearest_to_centroids(pts, cl).tolist()) == [0, 1, 2]

    def test_equidistant_tie_goes_to_smaller_index(self):
        from alcove.geometry import Clustering

        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        cl = Clustering(centroids=np.array([[1.0, 0.0]]), assignments=np.array([0, 0]), inertia=2.0)
        assert nearest_to_centroids(pts, cl).tolist() == [0]

    def test_matches_per_cluster_argmin_oracle(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        cl = kmeans(pts, 6, seed=2)
        got = nearest_to_centroids(pts, cl).tolist()
        expected = []
        for cid in range(6):
            members = np.flatnonzero(cl.assignments == cid)
            if members.size == 0:
                continue
            d2 = ((pts[members] - cl.centroids[cid]) ** 2).sum(axis=1)
            expected.append(members[np.argmin(d2)])
        assert got == expected


class TestGreedyKCenter:
    def test_farthest_point_from_existing(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        assert greedy_k_center(pts, [0], 1).tolist() == [2]

    def test_exhausts_pool(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        picks = greedy_k_center(pts, [1], 3)
        assert sorted(picks.tolist()) == [0, 2, 3]

    def test_budget_overflow(self):
        with pytest.raises(ValueError):
            greedy_k_center(np.zeros((3, 1)), [0], 3)

    @pytest.mark.parametrize("existing", [[], [0]])
    def test_negative_budget_rejected(self, existing):
        pts = np.random.default_rng(12).normal(size=(10, 3))
        with pytest.raises(ValueError, match="b must be >= 0, got -1"):
            greedy_k_center(pts, existing, -1)

    def test_no_existing_starts_farthest_from_mean(self):
        pts = np.array([[0.0], [1.0], [2.0], [50.0]])
        picks = greedy_k_center(pts, [], 2)
        assert picks[0] == 3  # farthest from the mean
        assert picks[1] == 0

    def test_min_distance_sequence_non_increasing(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 3))
        picks = greedy_k_center(pts, [], 8)
        min_d = np.full(30, np.inf)
        seq = []
        for p in picks:
            seq.append(min_d[p])
            min_d = np.minimum(min_d, ((pts - pts[p]) ** 2).sum(axis=1))
        # first pick's distance is inf by convention; the rest must not increase
        assert all(b <= a + 1e-12 for a, b in zip(seq[1:], seq[2:]))

    def test_two_approximation_against_exhaustive(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(4, 11))
            b = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, 2))
            d2 = naive_sq_dist(pts, pts)
            picks = greedy_k_center(pts, [], min(b, n))
            greedy_radius = np.sqrt(d2[:, picks].min(axis=1).max())
            best = np.inf
            for centers in itertools.combinations(range(n), min(b, n)):
                best = min(best, np.sqrt(d2[:, centers].min(axis=1).max()))
            assert greedy_radius <= 2 * best + 1e-9


def test_row_permutation_changes_only_indices():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(15, 3))
    perm = rng.permutation(15)
    for b in (1, 3):
        orig = greedy_k_center(pts, [], b)
        shuffled = greedy_k_center(pts[perm], [], b)
        assert np.allclose(np.sort(pts[orig], axis=0), np.sort(pts[perm][shuffled], axis=0))


class TestClusterSums:
    """Lloyd's cluster sums, one sparse product, against np.add.at bit for bit."""

    @staticmethod
    def assert_bits_equal(points, assignments, k):
        counts = np.bincount(assignments, minlength=k)
        got = geometry._cluster_sums(points, assignments, counts)
        want = cluster_sums_add_at(points, assignments, k)
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("m, d, k", [(1, 2, 1), (7, 3, 4), (200, 16, 9), (800, 32, 210), (500, 5, 50)])
    def test_random_points_and_empty_clusters(self, m, d, k):
        rng = np.random.default_rng(m + k)
        points = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))
        assignments = rng.integers(0, k, m)
        assignments[assignments == k // 2] = 0  # cluster k // 2 is empty (unless k == 1)
        self.assert_bits_equal(points, assignments, k)

    def test_coinciding_points_and_signed_zeros(self):
        points = np.array([[1.0, -0.0], [1.0, -0.0], [1.0, -0.0], [-0.0, -0.0], [0.1, 0.2], [0.2, 0.1]])
        assignments = np.array([2, 0, 2, 1, 3, 3])
        # cluster 1's only member is -0.0, which sums to +0.0 as np.add.at does
        self.assert_bits_equal(points, assignments, 5)
        counts = np.bincount(assignments, minlength=5)
        assert np.signbit(geometry._cluster_sums(points, assignments, counts)[1]).tolist() == [False, False]

    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_equals_add_at_lloyd(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        points = np.vstack([rng.normal(size=(60, 4)), np.zeros((8, 4))])  # 8 coinciding points
        got = kmeans(points, 12, seed)
        monkeypatch.setattr(geometry, "_cluster_sums", lambda p, a, c: cluster_sums_add_at(p, a, len(c)))
        want = kmeans(points, 12, seed)
        assert got.assignments.tolist() == want.assignments.tolist()
        assert got.centroids.view(np.int64).tolist() == want.centroids.view(np.int64).tolist()
        assert got.inertia_history == want.inertia_history
