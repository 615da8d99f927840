"""The row-blocked distance kernels against their dense references.

knn, estimate_delta, query_probcover and build_knn_graph read the distance
matrix a block of rows at a time. Each runs under three block budgets:
two-row blocks, block sizes that would leave a one-row remainder, and a
single block.

A block's matrix product is not always rounded like the same rows of the full
product: BLAS picks its kernels by shape. So each reduction is checked bit
for bit against its dense reference fed the distances the blocks computed,
and the blocks are checked against pairwise_sq_dist separately: bit for bit
for one block and for integer-valued points (where every product and sum is
exact), and to rounding otherwise.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from alcove import geometry
from alcove.geometry import knn, pairwise_sq_dist
from alcove.semisup import build_knn_graph
from alcove.strategies import estimate_delta, query_probcover
from oracles import knn_by_argsort, knn_graph_by_gather, nearest_other_label_dist_dense, probcover_dense

BLOCKINGS = ("two rows", "one-row remainder", "one block")


def block_rows(blocking: str, m: int) -> int:
    """Rows per block: 2, a count that leaves one row over, or all rows."""
    if blocking == "two rows":
        return 2
    if blocking == "one-row remainder":
        return next((s for s in range(3, m) if m % s == 1), 2)
    return m


@pytest.fixture(params=BLOCKINGS)
def blocking(request, monkeypatch):
    """Sets the block budget for m points to the blocking's rows per block."""

    def set_rows(m: int) -> str:
        monkeypatch.setattr(geometry, "BLOCK_BYTES", block_rows(request.param, m) * 8 * m)
        monkeypatch.setattr(geometry, "BLOCK_MIN_ROWS", 2)
        return request.param

    return set_rows


def datasets():
    rng = np.random.default_rng(30)
    return {
        "normal": rng.normal(size=(97, 5)),
        # few distinct values: many rows tie at their k-th distance
        "integer grid": rng.integers(0, 3, size=(61, 2)).astype(np.float64),
        "integer 40-d": rng.integers(-3, 4, size=(90, 40)).astype(np.float64),
        "duplicates": np.repeat(rng.normal(size=(25, 3)), 3, axis=0)[:73],
    }


INTEGER_VALUED = ("integer grid", "integer 40-d")


def blocked_d2(points) -> np.ndarray:
    """The distance matrix as the row-blocked kernel computes it."""
    return np.vstack([d2 for _, d2 in geometry._row_blocks(np.asarray(points, dtype=np.float64))])


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestRowBlocks:
    @pytest.mark.parametrize("m", [2, 3, 7, 50, 101])
    def test_blocks_cover_rows_in_order(self, blocking, m):
        blocking(m)
        start = 0
        for rows, d2 in geometry._row_blocks(np.zeros((m, 3))):
            assert rows.start == start and rows.stop - rows.start >= 2
            assert d2.shape == (rows.stop - rows.start, m)
            start = rows.stop
        assert start == m

    def test_one_row_remainder_joins_the_block_before(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_BYTES", 4 * 8 * 101)
        monkeypatch.setattr(geometry, "BLOCK_MIN_ROWS", 2)
        sizes = [rows.stop - rows.start for rows, _ in geometry._row_blocks(np.zeros((101, 2)))]
        assert sizes == [4] * 24 + [5]

    def test_budget_sets_rows_down_to_the_floor(self):
        # the shipped budget: 131 rows at 4,000 points, the 64-row floor at 10,000
        for m, rows in ((4000, 131), (10_000, 64)):
            blocks = geometry._row_blocks(np.zeros((m, 1)))
            assert next(blocks)[0] == slice(0, rows)

    @pytest.mark.parametrize("name", sorted(datasets()))
    def test_blocks_match_pairwise(self, blocking, name):
        pts = datasets()[name]
        exact = blocking(len(pts)) == "one block" or name in INTEGER_VALUED
        got, want = blocked_d2(pts), pairwise_sq_dist(pts, pts)
        if exact:
            assert_same(got, want)
        else:
            # |x|^2 + |y|^2 - 2 x.y loses digits relative to |x|^2 + |y|^2
            sq = np.einsum("ij,ij->i", pts, pts)
            tol = 16 * np.finfo(np.float64).eps * (sq[:, None] + sq[None, :])
            assert np.all(np.abs(got - want) <= tol)


class TestKnnBlocked:
    @pytest.mark.parametrize("name", sorted(datasets()))
    def test_matches_stable_argsort(self, blocking, name):
        pts = datasets()[name]
        m = len(pts)
        blocking(m)
        d2 = blocked_d2(pts)
        for k in (1, 2, 5, m // 3, m // 2, m - 1):
            idx, dist = knn(pts, k)
            want_idx, want_dist = knn_by_argsort(pts, k, d2)
            assert_same(idx, want_idx)
            assert_same(dist, want_dist)

    def test_integer_grid_ties_straddle_the_cut(self):
        # the case a partition alone gets wrong: the k-th value also sits
        # outside the first k columns of the stable order
        pts = datasets()["integer grid"]
        d2 = pairwise_sq_dist(pts, pts)
        np.fill_diagonal(d2, np.inf)
        ordered = np.sort(d2, axis=1)
        assert (ordered[:, 4] == ordered[:, 5]).any()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            knn(np.zeros((5, 2)), k)


class TestEstimateDeltaBlocked:
    @pytest.mark.parametrize("name", sorted(datasets()))
    def test_nearest_other_label_matches_dense(self, blocking, name):
        pts = datasets()[name]
        m = len(pts)
        blocking(m)
        d2 = blocked_d2(pts)
        rng = np.random.default_rng(34)
        # one label (every distance inf), a few, and a label per point
        for labels in (np.zeros(m, dtype=np.int64), rng.integers(0, 3, m), rng.integers(0, 6, m), np.arange(m)):
            got = geometry._nearest_other_label_dist(pts, labels)
            assert_same(got, nearest_other_label_dist_dense(d2, labels))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least 2 points, got {n}"):
            estimate_delta(np.zeros((n, 3)), 2)


class TestProbCoverBlocked:
    @pytest.mark.parametrize("name", sorted(datasets()))
    def test_matches_dense(self, blocking, name):
        pts = datasets()[name]
        m = len(pts)
        blocking(m)
        d2 = blocked_d2(pts)
        deltas = (0.0, 0.5, estimate_delta(pts, 3, seed=1), 1.5, 1e9)  # 1e9 covers every point
        for labeled in ([], [0], list(range(0, m, 9))):
            unlabeled = np.setdiff1d(np.arange(m), labeled)
            for delta in deltas:
                for b in (1, 5, len(unlabeled)):
                    got = query_probcover(pts, labeled, unlabeled, b, delta)
                    assert_same(got, probcover_dense(pts, labeled, unlabeled, b, delta, d2))

    def test_pool_subset_of_features(self, blocking):
        pts = datasets()["normal"]
        labeled, unlabeled = [4, 40, 90], np.arange(10, 80, 2)
        pool = np.sort(np.concatenate([labeled, unlabeled]))
        blocking(len(pool))
        got = query_probcover(pts, labeled, unlabeled, 6, 1.2)
        assert_same(got, probcover_dense(pts, labeled, unlabeled, 6, 1.2, blocked_d2(pts[pool])))

    @pytest.mark.parametrize("delta", [-1.0, float("nan")])
    def test_negative_or_nan_delta_rejected(self, delta):
        pts = datasets()["normal"]
        with pytest.raises(ValueError, match="delta must be a non-negative number"):
            query_probcover(pts, [0], np.arange(1, 20), 3, delta)


class TestKnnGraphBlocked:
    @pytest.mark.parametrize("name", sorted(datasets()))
    def test_matches_coo_and_diags_assembly(self, blocking, name):
        pts = datasets()[name]
        pts = pts - pts.mean(axis=0)  # negative cosines, so some edges drop out
        blocking(len(pts))
        d2 = blocked_d2(pts)
        for k in (1, 4, 30, 500):
            got = build_knn_graph(pts, k)
            want = knn_graph_by_gather(pts, k, d2)
            for attr in ("indptr", "indices", "data"):
                assert_same(getattr(got, attr), getattr(want, attr))

    @pytest.mark.parametrize("n, k", [(0, 5), (1, 5), (6, 0)])
    def test_no_neighbours_gives_an_empty_graph(self, n, k):
        pts = np.random.default_rng(35).normal(size=(n, 3))
        got = build_knn_graph(pts, k)
        assert got.shape == (n, n) and got.nnz == 0
        want = knn_graph_by_gather(pts, k)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))

    def test_zero_row_has_no_edges(self):
        pts = np.random.default_rng(31).normal(size=(40, 3))
        pts[7] = 0.0
        got = build_knn_graph(pts, 5)
        want = knn_graph_by_gather(pts, 5)
        assert got.indptr[8] == got.indptr[7]
        for attr in ("indptr", "indices", "data"):
            assert_same(getattr(got, attr), getattr(want, attr))


def test_cached_row_norms_match_pairwise_bit_for_bit():
    pts = np.random.default_rng(32).normal(size=(300, 17))
    sq = geometry._sq_norms(pts)
    for j in (0, 1, 150, 299):
        assert_same(geometry._dist_to_point(pts, sq, j), pairwise_sq_dist(pts, pts[j : j + 1])[:, 0])
    chosen = [3, 9, 200]
    assert_same(geometry._sq_dist(pts, pts[chosen], sq, sq[chosen]), pairwise_sq_dist(pts, pts[chosen]))
    cent = pts[:7] * 0.5
    assert_same(geometry._sq_dist(pts, cent, sq, geometry._sq_norms(cent)), pairwise_sq_dist(pts, cent))


def test_shipped_budget_pins_multi_block_results():
    # 2,047 points: eight blocks under the shipped budget, the last one row
    # short. The blocks' distances can differ from pairwise_sq_dist's in the
    # last bit (and with the BLAS thread count), so the picks are pinned and
    # the distances checked to rounding; a BLAS or blocking change that moves
    # a pick shows here.
    pts = np.random.default_rng(36).normal(size=(2047, 16))
    assert [rows.stop - rows.start for rows, _ in geometry._row_blocks(pts)] == [256] * 7 + [255]

    idx, dist = knn(pts, 20)
    assert hashlib.sha256(idx.tobytes()).hexdigest() == (
        "cb04cb2807035cd63974b5de469e17c9578845902a978d6f285271d7ee820456"
    )
    want_idx, want_dist = knn_by_argsort(pts, 20)
    assert np.array_equal(idx, want_idx)
    assert np.allclose(dist, want_dist, rtol=1e-12, atol=0.0)

    delta = estimate_delta(pts, 10, seed=3)
    assert delta.hex() == "0x1.b47eaa17073bdp+1"

    labeled = np.arange(0, 2047, 50)
    unlabeled = np.setdiff1d(np.arange(2047), labeled)
    assert query_probcover(pts, labeled, unlabeled, 12, delta).tolist() == [
        1919, 318, 220, 29, 407, 1381, 1991, 373, 1152, 261, 344, 1573,
    ]
    assert query_probcover(pts, labeled, unlabeled, 12, 3.0).tolist() == [
        220, 318, 1082, 961, 495, 998, 1439, 261, 1706, 1919, 583, 407,
    ]


def test_kernels_peak_far_below_a_dense_matrix():
    # one dense 4,000 x 4,000 float64 matrix is 122 MB
    pts = np.random.default_rng(33).normal(size=(4000, 16))
    labeled = np.arange(0, 4000, 40)
    unlabeled = np.setdiff1d(np.arange(4000), labeled)
    calls = {
        "knn": lambda: knn(pts, 50),
        "estimate_delta": lambda: estimate_delta(pts, 10),
        # at delta = 3 a ball holds a handful of points
        "query_probcover": lambda: query_probcover(pts, labeled, unlabeled, 20, 3.0),
        "build_knn_graph": lambda: build_knn_graph(pts, 50),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"
