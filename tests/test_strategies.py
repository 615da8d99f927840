import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove.classifier import (
    LinearClassifier,
    mc_dropout_passes,
    mc_dropout_proba,
    predict_proba,
    zero_classifier,
)
from alcove import strategies
from alcove.geometry import kmeans, kmeanspp_seed, nearest_to_centroids
from alcove.rng import derive_seed
from alcove.strategies import (
    QuerySpec,
    StrategyUnavailable,
    diversify,
    dropquery,
    estimate_delta,
    prepare,
    query,
    query_alfamix,
    query_badge,
    query_coreset,
    query_powerbald,
    query_probcover,
    query_typiclust,
    score_bald,
    score_entropy,
    score_margin,
    score_uncertainty,
    select_topb,
)

import oracles
from oracles import alfamix_anchor_flips, badge_sq_dist, typicality


def random_clf(rng, c, d):
    return LinearClassifier(weights=rng.normal(size=(c, d)), bias=rng.normal(size=c))


# ---------------------------------------------------------------------------
# score functions


class TestScores:
    def test_uncertainty_values(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25][:3]])
        assert score_uncertainty(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
        assert score_uncertainty(np.array([[0.25, 0.25, 0.25, 0.25]]))[0] == 0.75
        assert np.isclose(score_uncertainty(np.array([[0.7, 0.2, 0.1]]))[0], 0.3)

    def test_entropy_values(self):
        assert score_entropy(np.array([[0.0, 1.0]]))[0] == 0.0
        assert np.isclose(score_entropy(np.array([[0.5, 0.5]]))[0], math.log(2))
        assert np.isclose(score_entropy(np.array([[0.5, 0.25, 0.25]]))[0], 1.5 * math.log(2))

    def test_margin_values(self):
        assert score_margin(np.array([[0.0, 1.0]]))[0] == -1.0
        assert score_margin(np.array([[0.5, 0.5]]))[0] == 0.0
        assert np.isclose(score_margin(np.array([[0.7, 0.2, 0.1]]))[0], -0.5)

    def test_bald_identical_samples_zero(self):
        stack = np.broadcast_to(np.array([[0.6, 0.4]]), (5, 1, 2))
        assert score_bald(stack)[0] == 0.0

    def test_bald_max_disagreement(self):
        stack = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert np.isclose(score_bald(stack)[0], math.log(2))

    def test_bald_matches_naive_loops(self):
        rng = np.random.default_rng(0)
        raw = rng.random((3, 6, 4))
        stack = raw / raw.sum(axis=2, keepdims=True)
        got = score_bald(stack)
        for i in range(6):
            mean_p = stack[:, i, :].mean(axis=0)
            h_mean = -sum(p * math.log(p) for p in mean_p if p > 0)
            mean_h = np.mean(
                [-sum(p * math.log(p) for p in stack[s, i] if p > 0) for s in range(3)]
            )
            assert got[i] == pytest.approx(max(h_mean - mean_h, 0.0), abs=1e-12)
        # same arithmetic as entropy taken one sample at a time, bit for bit
        per_sample = np.stack([score_entropy(stack[s]) for s in range(3)]).mean(axis=0)
        assert np.array_equal(got, np.maximum(score_entropy(stack.mean(axis=0)) - per_sample, 0.0))

    @pytest.mark.parametrize(
        "samples, n, d, c", [(20, 300, 32, 50), (20, 120, 64, 100), (1, 200, 16, 50), (7, 513, 8, 3)]
    )
    def test_bald_over_streamed_passes_equals_stack_formula(self, samples, n, d, c):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, d))
        clf = LinearClassifier(rng.normal(size=(c, d)), rng.normal(size=c), dropout_rho=0.75)
        mc = mc_dropout_proba(clf, X, samples, seed=5)
        expected = np.maximum(score_entropy(mc.mean(axis=0)) - score_entropy(mc).mean(axis=0), 0.0)
        assert score_bald(mc_dropout_passes(clf, X, samples, seed=5)).tobytes() == expected.tobytes()
        assert score_bald(mc).tobytes() == expected.tobytes()

    def test_bald_reads_a_read_only_broadcast_stack(self):
        raw = np.random.default_rng(6).random((40, 50))
        stack = np.broadcast_to(raw / raw.sum(axis=1, keepdims=True), (20, 40, 50))
        expected = np.maximum(
            score_entropy(stack.mean(axis=0)) - score_entropy(stack).mean(axis=0), 0.0
        )
        assert score_bald(stack).tobytes() == expected.tobytes()
        assert not stack.flags.writeable

    def test_bald_needs_a_pass(self):
        with pytest.raises(ValueError, match="at least one pass"):
            score_bald(iter([]))

    def test_duplicate_row_locality(self):
        rng = np.random.default_rng(1)
        raw = rng.random((8, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        extended = np.vstack([probs, probs[2:3]])
        for scorer in (score_uncertainty, score_entropy, score_margin):
            base = scorer(probs)
            ext = scorer(extended)
            assert np.array_equal(ext[:8], base)
            assert ext[8] == base[2]

    @given(st.integers(2, 6), st.integers(0, 5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_one_hot_strictly_least_uncertain(self, c, hot, data):
        hot = hot % c
        raw = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c).filter(
                lambda v: max(v) / sum(v) < 0.999
            )
        )
        probs = np.array(raw) / sum(raw)
        one_hot = np.zeros(c)
        one_hot[hot] = 1.0
        stacked = np.vstack([one_hot, probs])
        assert score_entropy(stacked)[0] < score_entropy(stacked)[1]
        assert score_margin(stacked)[0] < score_margin(stacked)[1]


class TestSelectTopB:
    def test_full_budget_returns_all(self):
        unl = np.array([4, 7, 9])
        assert sorted(select_topb(np.array([0.1, 0.5, 0.3]), unl, 3).tolist()) == [4, 7, 9]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            scores = rng.normal(size=n)
            unl = np.sort(rng.choice(1000, size=n, replace=False))
            b = int(rng.integers(1, n + 1))
            got = select_topb(scores, unl, b)
            ranked = sorted(zip(scores, unl), key=lambda p: (-p[0], p[1]))
            assert got.tolist() == [i for _, i in ranked[:b]]

    def test_all_equal_scores_take_smallest_indices(self):
        unl = np.array([12, 3, 44, 7])
        assert select_topb(np.zeros(4), unl, 2).tolist() == [3, 7]


# ---------------------------------------------------------------------------
# diversify


class TestDiversify:
    def test_k1_equals_topb_set(self, monkeypatch):
        monkeypatch.setattr(strategies, "SHORTLIST_FACTOR", 1)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 3))
        unl = np.arange(20)
        scores = rng.random(20)
        got = diversify(scores, feats, unl, 4, seed=0)
        assert sorted(got.tolist()) == sorted(select_topb(scores, unl, 4).tolist())

    def test_score_tied_blobs_one_pick_each(self, monkeypatch):
        monkeypatch.setattr(strategies, "SHORTLIST_FACTOR", 50)
        rng = np.random.default_rng(4)
        blob_a = rng.normal(size=(10, 2)) * 0.05
        blob_b = rng.normal(size=(10, 2)) * 0.05 + 20
        feats = np.vstack([blob_a, blob_b])
        got = diversify(np.zeros(20), feats, np.arange(20), 2, seed=0)
        assert len({int(i) // 10 for i in got}) == 2

    def test_replay_through_geometry_oracles(self, monkeypatch):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 4))
        scores = rng.random(30)
        unl = np.arange(30)
        b, k_mult, seed = 3, 4, 77
        monkeypatch.setattr(strategies, "SHORTLIST_FACTOR", k_mult)
        got = diversify(scores, feats, unl, b, seed)
        order = np.lexsort((unl, -scores))
        shortlist = unl[order][: k_mult * b]
        cl = kmeans(feats[shortlist], b, seed)
        expected = shortlist[nearest_to_centroids(feats[shortlist], cl)]
        assert got.tolist() == expected.tolist()
        assert diversify(scores, feats, unl, b, seed).tolist() == got.tolist()

    def test_empty_pool_gives_empty_pick(self):
        got = diversify(np.zeros(0), np.zeros((4, 2)), np.arange(0), 3, seed=0)
        assert got.dtype == np.int64 and got.size == 0


# ---------------------------------------------------------------------------
# powerbald


class TestPowerBald:
    def test_single_positive_score_wins(self):
        scores = np.array([0.0, 0.0, 3.0, 0.0])
        unl = np.array([10, 11, 12, 13])
        for trial in range(20):
            got = query_powerbald(scores, unl, 1, 1.0, np.random.default_rng(trial))
            assert got.tolist() == [12]

    def test_full_budget_returns_all(self):
        unl = np.array([5, 6, 7])
        got = query_powerbald(np.ones(3), unl, 3, 1.0, np.random.default_rng(0))
        assert sorted(got.tolist()) == [5, 6, 7]

    def test_empirical_ratio_three_to_one(self):
        scores = np.array([3.0, 1.0])
        unl = np.array([0, 1])
        rng = np.random.default_rng(6)
        wins = sum(
            query_powerbald(scores, unl, 1, 1.0, rng)[0] == 0 for _ in range(10000)
        )
        assert abs(wins / 10000 - 0.75) < 0.02

    @pytest.mark.parametrize("beta", [-3.0, -1e-9, float("nan"), float("inf")])
    def test_beta_not_finite_and_non_negative_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            query_powerbald(np.ones(12), np.arange(12), 3, beta, np.random.default_rng(0))

    def test_zero_beta_samples_uniformly(self):
        scores = np.array([3.0, 1.0])
        rng = np.random.default_rng(6)
        wins = sum(query_powerbald(scores, [0, 1], 1, 0.0, rng)[0] == 0 for _ in range(4000))
        assert abs(wins / 4000 - 0.5) < 0.03


# ---------------------------------------------------------------------------
# coreset


class TestCoreset:
    def test_farthest_from_labeled(self):
        feats = np.array([[0.0], [1.0], [10.0]])
        assert query_coreset(feats, [0], [1, 2], 1).tolist() == [2]

    def test_full_budget(self):
        feats = np.array([[0.0], [1.0], [10.0], [11.0]])
        got = query_coreset(feats, [1], [0, 2, 3], 3)
        assert sorted(got.tolist()) == [0, 2, 3]

    def test_never_returns_labeled(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(15, 2))
        labeled = [0, 5, 9]
        got = query_coreset(feats, labeled, [i for i in range(15) if i not in labeled], 4)
        assert not set(got.tolist()) & set(labeled)


# ---------------------------------------------------------------------------
# badge


def materialized_embedding(z, p):
    return np.outer(z, p).ravel()


class TestBadge:
    def test_identical_pair_zero(self):
        z, p = np.array([1.0, 2.0]), np.array([0.3, -0.7])
        assert badge_sq_dist(z, p, z, p) == 0.0

    def test_hand_value(self):
        val = badge_sq_dist(
            np.array([1.0, 0.0]), np.array([-0.5, 0.5]),
            np.array([0.0, 1.0]), np.array([-0.5, 0.5]),
        )
        # oracle: explicit 2x2 gradient matrices G = z p^T, Frobenius norm of difference
        g_i = np.outer([1.0, 0.0], [-0.5, 0.5])
        g_j = np.outer([0.0, 1.0], [-0.5, 0.5])
        assert val == pytest.approx(((g_i - g_j) ** 2).sum(), rel=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_matches_frobenius_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            z_i, z_j = rng.normal(size=d), rng.normal(size=d)
            p_i, p_j = rng.normal(size=c), rng.normal(size=c)
            explicit = ((np.outer(z_i, p_i) - np.outer(z_j, p_j)) ** 2).sum()
            got = badge_sq_dist(z_i, p_i, z_j, p_j)
            assert got == pytest.approx(explicit, rel=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        z_i, z_j = rng.normal(size=4), rng.normal(size=4)
        p_i, p_j = rng.normal(size=3), rng.normal(size=3)
        assert badge_sq_dist(z_i, p_i, z_j, p_j) == pytest.approx(
            badge_sq_dist(z_j, p_j, z_i, p_i), rel=1e-12
        )

    def test_seeding_trace_matches_materialized_embeddings(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            n = int(rng.integers(8, 30))
            d, c = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            feats = rng.normal(size=(n, d))
            clf = random_clf(rng, c, d)
            b = int(rng.integers(2, min(6, n)))
            unl = np.arange(n)
            got = query_badge(feats, clf, unl, b, np.random.default_rng(trial))
            probs = predict_proba(clf, feats)
            p = probs.copy()
            p[np.arange(n), probs.argmax(axis=1)] -= 1.0
            embeddings = np.stack([materialized_embedding(feats[i], p[i]) for i in range(n)])
            expected = kmeanspp_seed(embeddings, b, np.random.default_rng(trial))
            assert got.tolist() == expected.tolist()

    def test_zero_gradient_points_excluded_after_first_draw(self):
        # one point with uniform probs (max gradient norm), others exactly one-hot
        # (zero gradient). Once a zero-norm point seeds the trace, every other
        # zero-norm point has weight 0, so the uniform point must come second.
        feats = np.vstack([np.full(3, 5.0), np.eye(3) * 40.0])  # row 0: equal logits
        clf = LinearClassifier(weights=np.eye(3), bias=np.zeros(3))
        probs = predict_proba(clf, feats)
        assert np.allclose(probs[0], 1 / 3)
        assert probs[1:].max() > 0.999999999999  # one-hot to double precision
        hits = 0
        for trial in range(40):
            first = int(np.random.default_rng(trial).integers(4))
            if first == 0:
                continue  # want a zero-gradient first seed
            got = query_badge(feats, clf, np.arange(4), 2, np.random.default_rng(trial))
            hits += 1
            assert got[0] == first and got[1] == 0
        assert hits > 0

    def test_full_budget_returns_all(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(5, 3))
        clf = random_clf(rng, 3, 3)
        got = query_badge(feats, clf, np.arange(5), 5, np.random.default_rng(0))
        assert sorted(got.tolist()) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# alfamix


class TestAlfaMix:
    def test_no_anchors_raises(self):
        feats = np.zeros((4, 2))
        with pytest.raises(StrategyUnavailable):
            query_alfamix(feats, zero_classifier(2, 2, 0.75), [], [], [0, 1, 2, 3], 2, 0.2, 0)

    def test_zero_budget_gives_empty_pick(self):
        # the setup of test_boundary_crossing_point_is_candidate: row 0 flips
        feats = np.array([[-0.5], [-9.0], [4.0]])
        clf = LinearClassifier(weights=np.array([[1.0], [-1.0]]), bias=np.zeros(2))
        got = query_alfamix(feats, clf, [2], [0], [0, 1], 0, eps_scale=1.0, seed=0)
        assert got.dtype == np.int64 and got.tolist() == []

    def test_zero_weight_classifier_falls_back_to_smallest_indices(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(10, 3))
        got = query_alfamix(feats, zero_classifier(2, 3, 0.75), [8, 9], [0, 1], np.arange(8), 3, 0.2, 0)
        assert got.tolist() == [0, 1, 2]  # uniform probs: entropy ties, smallest indices

    def test_eps_zero_never_flips(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(12, 2)) * 5
        clf = random_clf(rng, 2, 2)
        got = query_alfamix(feats, clf, [10, 11], [0, 1], np.arange(10), 3, 0.0, 0)
        # no flips -> pure entropy fallback ordering
        probs = predict_proba(clf, feats[:10])
        expected = select_topb(score_entropy(probs), np.arange(10), 3)
        assert got.tolist() == expected.tolist()

    def test_boundary_crossing_point_is_candidate(self):
        # 1-d, 2 classes, decision boundary at z = 0; full unit step toward the
        # anchor crosses it for the point at -0.5 but not for the one at -9
        feats = np.array([[-0.5], [-9.0], [4.0]])
        clf = LinearClassifier(weights=np.array([[1.0], [-1.0]]), bias=np.zeros(2))
        labeled, labels = [2], [0]
        got = query_alfamix(feats, clf, labeled, labels, [0, 1], 1, eps_scale=1.0, seed=0)
        assert got.tolist() == [0]

    def test_partial_flip_set_pads_flips_then_entropy(self):
        # 1-d, boundary at z = 0, one class-0 anchor at +4: with eps = 0.2 a
        # negative point moves to z + 0.2 * (4 - z), which crosses the boundary
        # iff z > -1. So rows 0, 2, 4 flip and B = 5 needs two more. Rows 0
        # and 2 coincide, so k-means over the flip set keeps one of them.
        feats = np.array([[-0.5], [-9.0], [-0.5], [-3.0], [-0.6], [-2.5], [-7.0], [4.0]])
        clf = LinearClassifier(weights=np.array([[1.0], [-1.0]]), bias=np.zeros(2))
        unl, b, seed = np.arange(7), 5, 3
        got = query_alfamix(feats, clf, [7], [0], unl, b, 0.2, seed)

        cands = np.array([0, 2, 4])
        cl = kmeans(feats[cands], len(cands), seed)
        picked = cands[nearest_to_centroids(feats[cands], cl)].tolist()
        assert len(picked) < len(cands)
        # fallback: the flip set (one flip each) then the rest, both by
        # entropy, which falls with |z|; ties to the smaller index
        by_entropy = lambda idx: sorted(idx, key=lambda i: (abs(feats[i, 0]), i))
        fallback = by_entropy([0, 2, 4]) + by_entropy([1, 3, 5, 6])
        expected = picked + [i for i in fallback if i not in picked][: b - len(picked)]
        assert got.tolist() == expected


ALFAMIX_SHAPES = {
    "small": (60, 3, 2), "wide": (400, 48, 6), "long": (1100, 16, 10),
    "zero head": (90, 8, 3), "on anchor": (90, 8, 3),
}


def alfamix_case(name):
    """(features, classifier, labeled, labels, unlabeled) for an alfamix query."""
    rng = np.random.default_rng(41)
    n, d, c = ALFAMIX_SHAPES[name]
    feats = rng.normal(size=(n, d)) * 2
    clf = random_clf(rng, c, d)
    labeled = np.arange(2 * c)
    labels = labeled % c
    if name == "zero head":  # every h is 0, so every norm is 0
        clf = zero_classifier(c, d, 0.75)
    if name == "on anchor":  # class 0 has one labeled point, and row 30 copies it
        labeled, labels = labeled[1:], labels[1:]
        feats[30] = feats[labeled[labels == 0][0]]
    return feats, clf, labeled, labels, np.setdiff1d(np.arange(n), labeled)


@pytest.mark.parametrize("name", ["small", "wide", "long", "zero head", "on anchor"])
def test_alfamix_buffers_match_the_per_anchor_loop(name, monkeypatch):
    feats, clf, labeled, labels, unlabeled = alfamix_case(name)
    U = feats[unlabeled]
    probs = predict_proba(clf, U)
    anchors = np.stack([feats[labeled[labels == c]].mean(axis=0) for c in np.unique(labels)])
    eps = strategies.ALFAMIX_EPS_SCALE / np.sqrt(feats.shape[1])
    if name == "on anchor":
        assert np.array_equal(anchors[0], U[np.searchsorted(unlabeled, 30)])

    # the points handed to predict_proba, bit for bit
    seen = {strategies: [], oracles: []}
    for module in seen:
        def record(c, x, mixed=seen[module]):
            mixed.append(x.copy())
            return predict_proba(c, x)

        monkeypatch.setattr(module, "predict_proba", record)
    flips = strategies._anchor_flips(clf, U, probs, anchors, eps)
    expected = alfamix_anchor_flips(clf, U, probs, anchors, eps)
    assert flips.tolist() == expected.tolist()
    assert len(seen[strategies]) == len(seen[oracles]) == len(anchors)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen[strategies], seen[oracles]))
    if name == "zero head":
        assert not flips.any()

    monkeypatch.undo()
    b = 7
    got = query_alfamix(feats, clf, labeled, labels, unlabeled, b, strategies.ALFAMIX_EPS_SCALE, 3)
    monkeypatch.setattr(strategies, "_anchor_flips", alfamix_anchor_flips)
    ref = query_alfamix(feats, clf, labeled, labels, unlabeled, b, strategies.ALFAMIX_EPS_SCALE, 3)
    assert got.tolist() == ref.tolist()


# ---------------------------------------------------------------------------
# typicality / typiclust


class TestTypicality:
    def test_duplicate_point_clamped(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert typicality(feats, 0, k=1) == pytest.approx(1e12)

    def test_equilateral_triangle_symmetric(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        vals = [typicality(feats, i, k=2) for i in range(3)]
        assert vals[0] == pytest.approx(vals[1]) == pytest.approx(vals[2])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(30, 4))
        for idx in range(30):
            dists = sorted(
                math.dist(feats[idx], feats[j]) for j in range(30) if j != idx
            )
            expected = 1.0 / (sum(dists[:20]) / 20 + 1e-12)
            assert typicality(feats, idx, k=20) == pytest.approx(expected, rel=1e-9)


class TestTypiclust:
    def test_cold_start_two_blobs(self):
        rng = np.random.default_rng(15)
        blob_a = rng.normal(size=(12, 2)) * 0.2
        blob_b = rng.normal(size=(12, 2)) * 0.2 + 15
        feats = np.vstack([blob_a, blob_b])
        got = query_typiclust(feats, [], np.arange(24), 2, 500, 5, seed=0)
        assert len({int(i) // 12 for i in got}) == 2

    def test_replay_through_oracles(self):
        rng = np.random.default_rng(16)
        feats = rng.normal(size=(40, 3))
        labeled = [1, 7, 20]
        unlabeled = np.array([i for i in range(40) if i not in labeled])
        b, knn_k, seed = 4, 5, 3
        got = query_typiclust(feats, labeled, unlabeled, b, 500, knn_k, seed)

        # oracle: recompute through public geometry + typicality APIs
        k = len(labeled) + b
        cl = kmeans(feats, k, seed)
        sizes = np.bincount(cl.assignments, minlength=k)
        lab_counts = np.bincount(cl.assignments[labeled], minlength=k)
        rank = np.lexsort((np.arange(k), -sizes, lab_counts))
        expected = []
        for cid in rank:
            if len(expected) == b:
                break
            members = np.flatnonzero(cl.assignments == cid)
            cand = [m for m in members if m not in labeled]
            if not cand:
                continue
            typ = [typicality(feats[members], int(np.searchsorted(members, m)), min(knn_k, len(members) - 1)) for m in cand]
            ranked = sorted(zip(cand, typ), key=lambda p: (-p[1], p[0]))
            expected.append(ranked[0][0])
        assert got.tolist() == expected

    def test_round_robin_over_fewer_clusters_than_picks(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(30, 3))
        labeled = [2, 11]
        unlabeled = np.array([i for i in range(30) if i not in labeled])
        b, max_clusters, knn_k, seed = 20, 3, 4, 5
        got = query_typiclust(feats, labeled, unlabeled, b, max_clusters, knn_k, seed)

        # oracle: one queue per ranked cluster, densest first, popped in turn
        cl = kmeans(feats, max_clusters, seed)
        sizes = np.bincount(cl.assignments, minlength=max_clusters)
        lab_counts = np.bincount(cl.assignments[labeled], minlength=max_clusters)
        queues = []
        for cid in np.lexsort((np.arange(max_clusters), -sizes, lab_counts)):
            members = np.flatnonzero(cl.assignments == cid)
            k = min(knn_k, len(members) - 1)
            typ = {m: typicality(feats[members], int(np.searchsorted(members, m)), k) for m in members}
            cand = sorted((m for m in members if m not in labeled), key=lambda m: (-typ[m], m))
            queues.append(cand)
        assert min(map(len, queues)) < b // max_clusters  # some queue runs dry
        expected = []
        while len(expected) < b:
            for q in queues:
                if q and len(expected) < b:
                    expected.append(int(q.pop(0)))
        assert got.tolist() == expected

    @pytest.mark.parametrize("knn_k", [0, -5])
    def test_knn_k_below_one_rejected(self, knn_k):
        feats = np.random.default_rng(18).normal(size=(60, 3))
        with pytest.raises(ValueError, match="knn_k"):
            query_typiclust(feats, [0, 1], np.arange(2, 60), 3, 500, knn_k, 0)

    def test_tie_rule_size_then_id(self):
        # two singleton labeled-free clusters of equal size: smaller cluster id wins
        feats = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        got = query_typiclust(feats, [], np.arange(4), 4, 500, 1, seed=0)
        assert sorted(got.tolist()) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# probcover


class TestProbCover:
    def test_delta_zero_takes_smallest_indices(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(10, 2))
        got = query_probcover(feats, [9], np.arange(9), 3, delta=0.0)
        assert got.tolist() == [0, 1, 2]

    def test_delta_above_diameter_single_pick(self):
        rng = np.random.default_rng(18)
        feats = rng.normal(size=(8, 2))
        got = query_probcover(feats, [], np.arange(8), 1, delta=1e9)
        assert got.tolist() == [0]

    def test_greedy_trace_matches_naive(self):
        rng = np.random.default_rng(19)
        feats = rng.normal(size=(25, 3))
        labeled = [3, 11]
        unlabeled = np.array([i for i in range(25) if i not in labeled])
        delta = 1.8
        got = query_probcover(feats, labeled, unlabeled, 5, delta)

        # naive greedy oracle with explicit recomputation each step
        dist = np.sqrt(((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1))
        ball = dist <= delta
        covered = ball[labeled].any(axis=0)
        cands = set(unlabeled.tolist())
        expected = []
        for _ in range(5):
            best, best_count = None, -1
            for i in sorted(cands):
                count = int((ball[i] & ~covered).sum())
                if count > best_count:
                    best, best_count = i, count
            expected.append(best)
            covered |= ball[best]
            cands.remove(best)
        assert got.tolist() == expected


class TestEstimateDelta:
    def test_two_blob_gap(self):
        rng = np.random.default_rng(20)
        blob_a = rng.normal(size=(20, 2)) * 0.1
        blob_b = rng.normal(size=(20, 2)) * 0.1 + 10
        feats = np.vstack([blob_a, blob_b])
        delta = estimate_delta(feats, 2, purity_threshold=0.95, seed=0)
        gap = np.sqrt(((blob_a[:, None, :] - blob_b[None, :, :]) ** 2).sum(-1)).min()
        assert 0 < delta < gap

        # brute-force oracle: recompute purity on the same grid and take the max pass
        pseudo = kmeans(feats, 2, 0).assignments
        n = 40
        gen = np.random.default_rng(0)
        left = gen.integers(0, n, 2000)
        right = gen.integers(0, n - 1, 2000)
        right = np.where(right >= left, right + 1, right)
        sample = np.sqrt(((feats[left] - feats[right]) ** 2).sum(1))
        lo = max(float(np.percentile(sample, 1)), 1e-12)
        hi = max(float(np.percentile(sample, 99)), lo * (1 + 1e-9))
        grid = np.geomspace(lo, hi, 64)
        best = grid[0]
        for cand in grid:
            pure = 0
            for i in range(n):
                members = [j for j in range(n) if math.dist(feats[i], feats[j]) <= cand]
                pure += len({int(pseudo[j]) for j in members}) == 1
            if pure / n >= 0.95:
                best = cand
        assert delta == pytest.approx(best)

    def test_zero_threshold_returns_grid_max(self):
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(30, 2))
        d_all = estimate_delta(feats, 3, purity_threshold=0.0, seed=1)
        d_strict = estimate_delta(feats, 3, purity_threshold=1.0, seed=1)
        assert d_all > d_strict  # threshold 0 accepts the largest grid value

    @pytest.mark.parametrize("threshold", [7.0, 1.01, -1.0, -0.01, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        feats = np.random.default_rng(23).normal(size=(60, 3))
        with pytest.raises(ValueError, match="purity_threshold"):
            estimate_delta(feats, 3, purity_threshold=threshold)

    def test_single_cluster_data_returns_grid_max(self):
        rng = np.random.default_rng(22)
        feats = rng.normal(size=(30, 2))
        assert estimate_delta(feats, 2, purity_threshold=0.0, seed=2) == estimate_delta(
            feats, 2, purity_threshold=0.0, seed=2
        )


# ---------------------------------------------------------------------------
# dropquery


class TestDropQuery:
    def test_rho_zero_candidate_fraction_zero(self):
        rng = np.random.default_rng(23)
        feats = rng.normal(size=(20, 4))
        clf = replace(random_clf(rng, 3, 4), dropout_rho=0.0)
        res = dropquery(feats, clf, np.arange(20), 5, m=3, seed=0)
        assert res.candidate_fraction == 0.0
        assert len(res.selected) == 5

    def test_always_flipping_point_is_candidate(self):
        # bias dominates unless the feature survives dropout: base pred flips
        # under every mask that kills the feature; make the feature huge so any
        # surviving coordinate wins
        feats = np.array([[100.0], [0.0]])
        clf = LinearClassifier(weights=np.array([[1.0], [0.0]]), bias=np.array([0.0, 1.0]))
        # base: point 0 -> logits (100, 1) -> class 0; dropout kills the lone
        # feature with prob rho, giving logits (0, 1) -> class 1 (a flip)
        found = False
        for seed in range(50):
            masks = np.random.default_rng(seed).random((3, 2, 1)) >= 0.75
            if not masks[:, 0, 0].any():  # feature dropped in all 3 passes
                res = dropquery(feats, clf, np.arange(2), 1, m=3, seed=seed)
                assert res.candidate_fraction >= 0.5
                assert 0 in res.selected.tolist()
                found = True
                break
        assert found

    def test_hand_built_instance_selects_majority_inconsistent(self):
        # W = I, b = 0, rho = 0.5: point A=(1,2) flips under (keep,drop) and
        # (drop,drop); point B=(2,1) flips only under (drop,keep). Seed 1 yields
        # flip counts (2, 1), so the prose rule selects A and the literal
        # algorithm-text rule selects the complement {B}.
        feats = np.array([[1.0, 2.0], [2.0, 1.0]])
        clf = LinearClassifier(weights=np.eye(2), bias=np.zeros(2), dropout_rho=0.5)
        seed = 1

        # replay the documented mask draw through scalar forward passes
        masks = np.random.default_rng(seed).random((3, 2, 2)) >= 0.5
        flips = [0, 0]
        for s in range(3):
            for i in range(2):
                z = [feats[i, t] * masks[s, i, t] / 0.5 for t in range(2)]
                pred = 0 if z[0] >= z[1] else 1
                base = 0 if feats[i, 0] >= feats[i, 1] else 1
                flips[i] += pred != base
        assert flips == [2, 1]

        res = dropquery(feats, clf, np.arange(2), 1, m=3, seed=seed)
        assert res.selected.tolist() == [0]
        assert res.candidate_fraction == 0.5

        literal = dropquery(feats, clf, np.arange(2), 1, m=3, seed=seed, literal=True)
        assert literal.selected.tolist() == [1]

    def test_empty_candidates_fall_back_to_margin_diversified(self):
        rng = np.random.default_rng(24)
        blob_a = rng.normal(size=(10, 2)) * 0.1
        blob_b = rng.normal(size=(10, 2)) * 0.1 + 25
        feats = np.vstack([blob_a, blob_b])
        clf = zero_classifier(2, 2, 0.75)  # uniform probs everywhere -> no inconsistency
        res = dropquery(feats, clf, np.arange(20), 2, m=3, seed=0)
        assert res.candidate_fraction == 0.0
        # centroid-style diversity: one pick per blob
        assert len({int(i) // 10 for i in res.selected}) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        feats = rng.normal(size=(30, 4))
        clf = random_clf(rng, 3, 4)
        a = dropquery(feats, clf, np.arange(30), 6, seed=9)
        b = dropquery(feats, clf, np.arange(30), 6, seed=9)
        assert a.selected.tolist() == b.selected.tolist()
        assert a.candidate_fraction == b.candidate_fraction

    def test_partial_candidate_set_pads_in_margin_order(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(24, 3))
        clf = LinearClassifier(
            weights=rng.normal(size=(3, 3)) * 3, bias=np.zeros(3), dropout_rho=0.3
        )
        unl, b, m, seed = np.arange(24), 5, 3, 7
        res = dropquery(feats, clf, unl, b, m=m, seed=seed)

        probs = predict_proba(clf, feats)
        mc = mc_dropout_proba(clf, feats, m, seed)
        disagree = (np.argmax(mc, axis=2) != np.argmax(probs, axis=1)).sum(axis=0)
        cands = unl[disagree > 0.5 * m]
        assert 0 < len(cands) < b
        assert res.candidate_fraction == len(cands) / len(unl)
        cl = kmeans(feats[cands], len(cands), seed)
        picked = cands[nearest_to_centroids(feats[cands], cl)].tolist()
        # fallback: every unlabeled point by top-two gap, smallest first
        top2 = np.sort(probs, axis=1)[:, -2:]
        fallback = sorted(unl.tolist(), key=lambda i: (top2[i, 1] - top2[i, 0], i))
        expected = picked + [i for i in fallback if i not in picked][: b - len(picked)]
        assert res.selected.tolist() == expected


# ---------------------------------------------------------------------------
# dispatcher-level invariants


ALL_KINDS = (
    "random",
    "uncertainty",
    "entropy",
    "margins",
    "bald",
    "powerbald",
    "coreset",
    "badge",
    "alfamix",
    "typiclust",
    "probcover",
    "dropquery",
)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_strategy_is_budget_exact_and_deterministic(kind):
    rng = np.random.default_rng(26)
    feats = rng.normal(size=(40, 4))
    clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    labeled = np.array([0, 13, 26])
    labeled_labels = np.array([0, 1, 2])
    unlabeled = np.array([i for i in range(40) if i not in labeled.tolist()])
    spec = QuerySpec(kind=kind)
    state = prepare(spec, feats, np.arange(40), 3, seed=5)
    for b in (4, len(unlabeled), len(unlabeled) + 10):
        res = query(spec, feats, clf, labeled, labeled_labels, unlabeled, b, seed=5, state=state)
        again = query(spec, feats, clf, labeled, labeled_labels, unlabeled, b, seed=5, state=state)
        assert res.selected.tolist() == again.selected.tolist()
        assert len(res.selected) == min(b, len(unlabeled))
        assert len(set(res.selected.tolist())) == len(res.selected)
        assert set(res.selected.tolist()) <= set(unlabeled.tolist())


# name -> fn(features, clf, labeled, unlabeled, b) running that query outside ``query``;
# labeled points 0, 1 and 2 carry labels 0, 1 and 2
STANDALONE_QUERIES = {
    "select_topb": lambda X, clf, lab, unl, b: select_topb(np.ones(len(unl)), unl, b),
    "diversify": lambda X, clf, lab, unl, b: diversify(np.ones(len(unl)), X, unl, b, seed=1),
    "powerbald": lambda X, clf, lab, unl, b: query_powerbald(
        np.ones(len(unl)), unl, b, 1.0, np.random.default_rng(1)
    ),
    "coreset": lambda X, clf, lab, unl, b: query_coreset(X, lab, unl, b),
    "coreset_unseeded": lambda X, clf, lab, unl, b: query_coreset(X, [], unl, b),
    "badge": lambda X, clf, lab, unl, b: query_badge(X, clf, unl, b, np.random.default_rng(1)),
    "alfamix": lambda X, clf, lab, unl, b: query_alfamix(X, clf, lab, lab, unl, b, 0.2, seed=1),
    "typiclust": lambda X, clf, lab, unl, b: query_typiclust(X, lab, unl, b, 500, 20, seed=1),
    "probcover": lambda X, clf, lab, unl, b: query_probcover(X, lab, unl, b, delta=1.0),
    "dropquery": lambda X, clf, lab, unl, b: dropquery(X, clf, unl, b, seed=1).selected,
}


@pytest.mark.parametrize("pool", ["b=0", "empty"])
@pytest.mark.parametrize("name", sorted(STANDALONE_QUERIES))
def test_standalone_queries_pick_nothing_at_b_0_or_from_an_empty_pool(name, pool):
    rng = np.random.default_rng(31)
    feats = rng.normal(size=(10, 3))
    clf = random_clf(rng, 3, 3)
    unlabeled, b = (np.arange(3, 10), 0) if pool == "b=0" else (np.empty(0, dtype=np.int64), 4)
    picks = STANDALONE_QUERIES[name](feats, clf, np.arange(3), unlabeled, b)
    assert picks.dtype == np.int64 and picks.shape == (0,)


@pytest.mark.parametrize("name", sorted(STANDALONE_QUERIES))
def test_standalone_query_rejects_a_negative_budget(name):
    rng = np.random.default_rng(34)
    feats = rng.normal(size=(20, 3))
    clf = LinearClassifier(rng.normal(size=(3, 3)), rng.normal(size=3), dropout_rho=0.5)
    call = STANDALONE_QUERIES[name]
    with pytest.raises(ValueError, match="b must be >= 0, got -2"):
        call(feats, clf, np.array([0, 1, 2]), np.arange(3, 20), -2)
    assert len(call(feats, clf, np.array([0, 1, 2]), np.arange(3, 20), 30)) == 17


def test_diversified_variants_also_budget_exact():
    rng = np.random.default_rng(27)
    feats = rng.normal(size=(40, 4))
    clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    unlabeled = np.arange(40)
    for kind in ("uncertainty", "entropy", "margins", "bald"):
        for drop in (False, True):
            spec = QuerySpec(kind=kind, diversify=True, inference_dropout=drop)
            res = query(spec, feats, clf, [], [], unlabeled, 5, seed=1)
            assert len(res.selected) == 5


def test_inference_dropout_needs_diversify():
    with pytest.raises(ValueError, match="inference_dropout"):
        QuerySpec("margins", inference_dropout=True)
    assert QuerySpec("margins", diversify=True, inference_dropout=True).strategy_id() == "margins_divdrop"
    # bald scores its own MC passes, so inference dropout changes nothing and gets no id
    assert QuerySpec("bald", diversify=True, inference_dropout=True).strategy_id() == "bald_div"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="choose from random, uncertainty, .*, dropquery"):
        QuerySpec(kind="mystery")


@pytest.mark.parametrize("name", ["dq_m"])
def test_count_settings_must_be_positive(name):
    with pytest.raises(ValueError, match=name):
        QuerySpec("bald", **{name: 0})


def test_probcover_without_delta_names_estimate_delta():
    rng = np.random.default_rng(28)
    feats = rng.normal(size=(12, 2))
    clf = random_clf(rng, 2, 2)
    with pytest.raises(ValueError, match="estimate_delta"):
        query(QuerySpec(kind="probcover"), feats, clf, [0], [0], np.arange(1, 12), 3, seed=0)
    with pytest.raises(ValueError, match="estimate_delta"):
        query_probcover(feats, [0], np.arange(1, 12), 3, None)


def test_prepare_builds_state_only_for_probcover():
    feats = np.random.default_rng(29).normal(size=(30, 3))
    states = {kind: prepare(QuerySpec(kind), feats, np.arange(30)[::-1], 3, seed=4) for kind in ALL_KINDS}
    assert [kind for kind, state in states.items() if state is not None] == ["probcover"]
    state = states["probcover"]
    assert state.pool.tolist() == list(range(30))  # sorted, like the pool a query splits
    assert state.delta == estimate_delta(feats, 3, seed=derive_seed(4, "probcover/delta"))
    assert (state.holders != state.balls.T).nnz == 0


def test_prepared_probcover_query_equals_standalone():
    rng = np.random.default_rng(30)
    feats = rng.normal(size=(60, 4))
    clf = random_clf(rng, 3, 4)
    spec = QuerySpec("probcover")
    state = prepare(spec, feats, np.arange(60), 3, seed=2)
    labeled = np.array([0, 1, 2])
    for b in (1, 5, 57, 80):
        unlabeled = np.setdiff1d(np.arange(60), labeled)
        got = query(spec, feats, clf, labeled, labeled % 3, unlabeled, b, seed=2, state=state)
        want = query_probcover(feats, labeled, unlabeled, b, state.delta)
        assert got.selected.tolist() == want.tolist()
        labeled = np.union1d(labeled, got.selected[:1])


@pytest.mark.parametrize("pool", [np.arange(30), np.arange(1, 41)], ids=["shorter", "shifted"])
def test_probcover_state_over_another_pool_rejected(pool):
    rng = np.random.default_rng(31)
    feats = rng.normal(size=(41, 3))
    clf = random_clf(rng, 3, 3)
    state = prepare(QuerySpec("probcover"), feats, pool, 3, seed=0)
    with pytest.raises(ValueError, match="another train pool"):
        query(QuerySpec("probcover"), feats, clf, [0], [0], np.arange(1, 40), 3, seed=0, state=state)


def query_peak_bytes(kind, n, d, c):
    """Peak traced allocation of one query over n random d-dim points with C classes."""
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(n, d))
    clf = LinearClassifier(rng.normal(size=(c, d)) * 0.3, rng.normal(size=c), dropout_rho=0.75)
    labeled = np.arange(2 * c)
    unlabeled = np.arange(2 * c, n)
    tracemalloc.start()
    try:
        query(QuerySpec(kind), feats, clf, labeled, labeled % c, unlabeled, 10, seed=1)
        return tracemalloc.get_traced_memory()[1], len(unlabeled)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["bald", "powerbald"])
def test_bald_peaks_below_half_a_pass_stack(kind):
    n, d, c = 3000, 64, 50
    peak, u = query_peak_bytes(kind, n, d, c)
    stack = strategies.MC_SAMPLES * u * c * 8
    assert peak < stack / 2, f"{kind} peaked at {peak / 2**20:.1f} MiB"


def test_alfamix_peaks_below_five_point_matrices():
    n, d, c = 2000, 256, 10
    peak, u = query_peak_bytes("alfamix", n, d, c)
    assert peak < 5 * u * d * 8, f"alfamix peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_negative_budget_rejected(kind):
    rng = np.random.default_rng(32)
    feats = rng.normal(size=(20, 3))
    clf = random_clf(rng, 3, 3)
    spec = QuerySpec(kind)
    state = prepare(spec, feats, np.arange(20), 3, seed=0)
    with pytest.raises(ValueError, match="b must be >= 0, got -2"):
        query(spec, feats, clf, [0, 1, 2], [0, 1, 2], np.arange(3, 20), -2, seed=0, state=state)


SPECS = [QuerySpec(kind) for kind in ALL_KINDS] + [
    QuerySpec("margins", diversify=True),
    QuerySpec("entropy", diversify=True, inference_dropout=True),
    QuerySpec("dropquery", dq_literal=True),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.strategy_id())
def test_float32_features_pick_what_their_float64_cast_does(spec):
    rng = np.random.default_rng(33)
    means = 3.0 * np.repeat(np.eye(3, 6), [30, 30, 20], axis=0)
    f32 = (rng.normal(size=(80, 6)) + means).astype(np.float32)
    f64 = f32.astype(np.float64)
    clf = LinearClassifier(rng.normal(size=(3, 6)), rng.normal(size=3), dropout_rho=0.5)
    pool = np.arange(4, 80)  # rows 0-3 are in no pool, so the gathers leave them out
    labeled = np.array([4, 40, 70])
    unlabeled = np.setdiff1d(pool, labeled)
    picks = []
    for feats in (f32, f64):
        state = prepare(spec, feats, pool, 3, seed=6)
        for b in (1, 5, 30):
            res = query(spec, feats, clf, labeled, [0, 1, 2], unlabeled, b, seed=6, state=state)
            picks.append((b, res.selected.tolist(), res.candidate_fraction))
    assert picks[:3] == picks[3:]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_query_gathers_only_the_rows_it_uses(kind):
    # a float32 matrix of n points, of which only a 43-point train pool is queried
    n, d, c = 20000, 32, 3
    rng = np.random.default_rng(34)
    feats = rng.normal(size=(n, d)).astype(np.float32)
    clf = LinearClassifier(rng.normal(size=(c, d)) * 0.3, rng.normal(size=c), dropout_rho=0.5)
    labeled, unlabeled = np.arange(c), np.arange(c, 43)
    spec = QuerySpec(kind)
    tracemalloc.start()
    try:
        state = prepare(spec, feats, np.arange(43), c, seed=1)
        query(spec, feats, clf, labeled, labeled, unlabeled, 10, seed=1, state=state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below even a float32 copy of the matrix, half of the float64 one a whole-matrix cast makes
    assert peak < n * d * 4, f"{kind} peaked at {peak / 2**20:.2f} MiB"
