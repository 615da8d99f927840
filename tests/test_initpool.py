import numpy as np
import pytest

from alcove.geometry import kmeans, nearest_to_centroids
from alcove.initpool import centroid_init, random_init


class TestRandomInit:
    def test_full_budget_returns_all(self):
        train = np.array([3, 5, 8, 13])
        assert sorted(random_init(train, 4, seed=0).tolist()) == [3, 5, 8, 13]

    def test_deterministic(self):
        train = np.arange(50)
        assert random_init(train, 7, seed=4).tolist() == random_init(train, 7, seed=4).tolist()

    def test_inclusion_frequency_is_hypergeometric(self):
        train = np.array([0, 1, 2, 3])
        counts = np.zeros(4)
        trials = 10000
        for t in range(trials):
            counts[random_init(train, 2, seed=t)] += 1
        # drawing 2 of 4 includes each index with probability 1/2
        assert np.abs(counts / trials - 0.5).max() < 0.02


class TestCentroidInit:
    def test_separated_blobs_one_pick_each(self):
        rng = np.random.default_rng(0)
        blobs = [rng.normal(size=(8, 2)) * 0.1 + offset for offset in (0, 40, 80)]
        feats = np.vstack(blobs)
        got = centroid_init(feats, np.arange(24), 3, seed=1)
        assert sorted(int(i) // 8 for i in got) == [0, 1, 2]

    def test_b1_is_point_nearest_global_mean(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(15, 3))
        got = centroid_init(feats, np.arange(15), 1, seed=0)
        d2 = ((feats - feats.mean(axis=0)) ** 2).sum(axis=1)
        assert got.tolist() == [int(np.argmin(d2))]

    def test_replay_through_geometry_oracles(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, 4))
        train = np.arange(30)
        seed = 9
        got = centroid_init(feats, train, 5, seed)
        cl = kmeans(feats, 5, seed)
        expected = nearest_to_centroids(feats, cl)
        assert got.tolist() == expected.tolist()

    def test_subset_train_indices_map_back(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 2))
        train = np.array([2, 4, 6, 8, 10, 12, 14, 16])
        got = centroid_init(feats, train, 3, seed=0)
        assert set(got.tolist()) <= set(train.tolist())
        assert len(got) == 3

    def test_permutation_invariance_up_to_relabeling(self):
        # separated blobs so every seeding converges to the same partition
        rng = np.random.default_rng(4)
        blobs = [rng.normal(size=(6, 3)) * 0.1 + off for off in (0, 30, 60, 90)]
        feats = np.vstack(blobs)
        perm = rng.permutation(24)
        a = centroid_init(feats, np.arange(24), 4, seed=2)
        b = centroid_init(feats[perm], np.arange(24), 4, seed=2)
        # same coordinates selected, indices relabeled by the permutation
        assert np.allclose(np.sort(feats[a], axis=0), np.sort(feats[perm][b], axis=0))

    @pytest.mark.parametrize("b", [3, 4, 5, 6, 9])
    def test_coinciding_points_pad_to_budget_in_index_order(self, b):
        # five identical points leave k-means two non-empty clusters
        feats = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]])
        train = np.array([4, 2, 5, 0, 3, 1])
        got = centroid_init(feats, train, b, seed=0).tolist()
        assert len(got) == len(set(got)) == min(b, 6)
        assert 5 in got[:2]
        assert got[2:] == [i for i in range(6) if i not in got[:2]][: b - 2]


def test_both_inits_return_distinct_indices():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(25, 3))
    train = np.arange(25)
    for b in (1, 5, 12):
        r = random_init(train, b, seed=1)
        c = centroid_init(feats, train, b, seed=1)
        assert len(set(r.tolist())) == b
        assert len(set(c.tolist())) == b


def test_centroid_init_picks_the_same_on_float32_features_as_on_their_float64_cast():
    rng = np.random.default_rng(6)
    f32 = rng.normal(size=(60, 5)).astype(np.float32)
    train = np.arange(3, 60, 2)
    for b in (1, 4, 9):
        assert centroid_init(f32, train, b, seed=2).tolist() == centroid_init(
            f32.astype(np.float64), train, b, seed=2
        ).tolist()


@pytest.mark.parametrize("init", ["random", "centroid"])
def test_negative_budget_rejected(init):
    feats = np.random.default_rng(5).normal(size=(17, 3))
    train = np.arange(17)
    pick = {
        "random": lambda b: random_init(train, b, seed=1),
        "centroid": lambda b: centroid_init(feats, train, b, seed=1),
    }[init]
    with pytest.raises(ValueError, match="b must be >= 0, got -2"):
        pick(-2)
    assert sorted(pick(30).tolist()) == train.tolist()
