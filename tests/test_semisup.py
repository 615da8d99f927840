import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from alcove.dataset_io import generate_synthetic
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


@pytest.fixture(scope="module")
def semisup_grid_graph():
    """build_knn_graph over the semisup-grid benchmark's train rows (3,200 x 64)
    at k = 500, and its peak traced allocation in bytes."""
    ds = generate_synthetic(20, 200, 64, 8.0, 1)
    feats = ds.features[ds.train_indices]
    tracemalloc.start()
    try:
        graph = build_knn_graph(feats, k=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return graph, peak


def test_graph_build_holds_w_its_transpose_and_the_result(semisup_grid_graph):
    # W and W^T hold 18.3 MiB each and the symmetrized result's buffers
    # 36.6 MiB before they are cut to the graph's 24.5 MiB
    graph, peak = semisup_grid_graph
    assert peak < 85 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"


def test_graph_arrays_own_exactly_nnz_entries(semisup_grid_graph):
    graph, _ = semisup_grid_graph
    for arr in (graph.data, graph.indices):
        assert arr.size == graph.nnz
        assert arr.base is None or arr.base.size == graph.nnz


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


class CountingGraph(sp.csr_matrix):
    """A CSR graph that counts its products with ``@``."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def blob_graph_one_class_unseeded():
    """400 points in 8 well-separated blobs, k = 50; classes 0-6 get two seeds, class 7 none.

    Few edges join the blobs, so plain fixpoint iteration mixes slowly here.
    """
    data = generate_synthetic(8, 50, 16, 6.0, seed=5)
    s = build_knn_graph(data.features, k=50)
    y = np.zeros((400, 8))
    for c in range(7):
        y[np.flatnonzero(data.labels == c)[:2], c] = 1.0
    return s, y


class TestPropagationSolve:
    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    def test_within_1e7_of_closed_form(self, alpha):
        s, y = blob_graph_one_class_unseeded()
        got = label_propagate(s, y, alpha=alpha)
        ref = label_propagate_closed_form(s, y, alpha=alpha)
        assert np.abs(got.pseudo_probs - ref.pseudo_probs).max() < 1e-7

    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    def test_at_most_40_products(self, alpha):
        s, y = blob_graph_one_class_unseeded()
        graph = CountingGraph(s)
        label_propagate(graph, y, alpha=alpha)
        assert 0 < graph.products <= 40

    @pytest.mark.parametrize("where", ["graph", "labels"])
    def test_nan_rejected_before_any_product(self, where):
        rng = np.random.default_rng(6)
        graph = CountingGraph(build_knn_graph(rng.normal(size=(60, 4)), k=8))
        y = np.zeros((60, 3))
        y[[0, 1, 2], [0, 1, 2]] = 1.0
        if where == "graph":
            graph.data[5] = np.nan
        else:
            y[10, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            label_propagate(graph, y, alpha=0.9)
        assert graph.products == 0
