import tracemalloc

import numpy as np
import pytest

from alcove.semisup import build_knn_graph, label_propagate
from oracles import knn_graph_by_gather, label_propagate_closed_form


class TestBuildKnnGraph:
    def test_orthogonal_features_zero_affinity(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = build_knn_graph(feats, k=1)
        assert s.nnz == 0

    def test_identical_points_full_affinity(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, -5.0]])
        s = build_knn_graph(feats, k=1)
        # raw cosine^3 affinity between the twins is 1 before normalization
        dense = np.asarray(s.todense())
        assert dense[0, 1] > 0
        assert dense[0, 1] == pytest.approx(dense[1, 0])

    def test_symmetric_and_spectral_radius_bounded(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 5))
        s = np.asarray(build_knn_graph(feats, k=6).todense())
        assert np.abs(s - s.T).max() < 1e-9
        eigvals = np.linalg.eigvalsh(s)
        assert np.abs(eigvals).max() <= 1 + 1e-9

    def test_k_clamps_to_n_minus_one(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(5, 3))
        s = build_knn_graph(feats, k=500)
        assert s.shape == (5, 5)

    def test_matches_gather_reference_in_bounded_memory(self):
        feats = np.random.default_rng(4).normal(size=(1000, 64))
        tracemalloc.start()
        try:
            s = build_knn_graph(feats, k=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        ref = knn_graph_by_gather(feats, k=200)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(s, attr), getattr(ref, attr))

    def test_zero_diagonal(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(10, 3))
        assert np.all(build_knn_graph(feats, k=3).diagonal() == 0)


def two_cluster_graph():
    rng = np.random.default_rng(3)
    blob_a = rng.normal(size=(3, 2)) * 0.1
    blob_b = rng.normal(size=(3, 2)) * 0.1 + np.array([5.0, 5.0])
    feats = np.vstack([blob_a, blob_b])
    s = build_knn_graph(feats, k=2)
    y = np.zeros((6, 2))
    y[0, 0] = 1.0  # one seed per cluster
    y[3, 1] = 1.0
    return s, y


class TestLabelPropagate:
    def test_alpha_zero_reduces_to_seed_matrix(self):
        s, y = two_cluster_graph()
        res = label_propagate(s, y, alpha=0.0)
        assert np.array_equal(res.pseudo_probs[0], y[0])
        assert np.array_equal(res.pseudo_probs[3], y[3])
        # unlabeled rows become uniform after renormalization, with weight 0
        for i in (1, 2, 4, 5):
            assert np.allclose(res.pseudo_probs[i], 0.5)
            assert res.weights[i] == 0.0

    def test_one_hot_weight_is_one(self):
        s, y = two_cluster_graph()
        res = label_propagate(s, y, alpha=0.9)
        assert res.weights[0] == 1.0
        assert res.weights[3] == 1.0

    def test_weights_in_unit_interval_and_rows_stochastic(self):
        s, y = two_cluster_graph()
        res = label_propagate(s, y, alpha=0.9)
        assert np.all((res.weights >= 0) & (res.weights <= 1))
        assert np.allclose(res.pseudo_probs.sum(axis=1), 1.0, atol=1e-6)

    def test_iterative_matches_closed_form(self):
        s, y = two_cluster_graph()
        raw_iter = label_propagate(s, y, alpha=0.9)
        raw_solve = label_propagate_closed_form(s, y, alpha=0.9)
        assert np.abs(raw_iter.pseudo_probs - raw_solve.pseudo_probs).max() < 1e-5
        assert np.abs(raw_iter.weights - raw_solve.weights).max() < 1e-5

    def test_iterative_matches_closed_form_random_graphs(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(5, 15))
            feats = rng.normal(size=(n, 3))
            s = build_knn_graph(feats, k=min(4, n - 1))
            y = np.zeros((n, 3))
            seeds = rng.choice(n, size=3, replace=False)
            for c, i in enumerate(seeds):
                y[i, c] = 1.0
            a = label_propagate(s, y, alpha=0.9)
            b = label_propagate_closed_form(s, y, alpha=0.9)
            assert np.abs(a.pseudo_probs - b.pseudo_probs).max() < 1e-5

    def test_seeds_keep_their_argmax(self):
        s, y = two_cluster_graph()
        res = label_propagate(s, y, alpha=0.9)
        assert np.argmax(res.pseudo_probs[0]) == 0
        assert np.argmax(res.pseudo_probs[3]) == 1
        assert np.array_equal(res.pseudo_probs[0], y[0])

    def test_propagation_fills_clusters(self):
        s, y = two_cluster_graph()
        res = label_propagate(s, y, alpha=0.9)
        assert np.argmax(res.pseudo_probs[1]) == 0
        assert np.argmax(res.pseudo_probs[2]) == 0
        assert np.argmax(res.pseudo_probs[4]) == 1
        assert np.argmax(res.pseudo_probs[5]) == 1

    def test_residual_monotone_non_increasing(self):
        s, y = two_cluster_graph()
        f = y.copy()
        residuals = []
        for _ in range(60):
            f_next = 0.9 * (s @ f) + 0.1 * y
            residuals.append(np.linalg.norm(f_next - f))
            f = f_next
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_requires_labeled_rows(self):
        s, _ = two_cluster_graph()
        with pytest.raises(ValueError):
            label_propagate(s, np.zeros((6, 2)), alpha=0.9)

    def test_uniform_pseudo_row_weight_zero(self):
        # a disconnected unlabeled node diffuses nothing: uniform row, weight 0
        feats = np.array([[0.0, 1.0], [0.0, 2.0], [100.0, -100.0]])
        s = build_knn_graph(feats, k=1)
        y = np.zeros((3, 2))
        y[0, 0] = 1.0
        res = label_propagate(s, y, alpha=0.9)
        assert np.allclose(res.pseudo_probs[2], 0.5)
        assert res.weights[2] == 0.0
