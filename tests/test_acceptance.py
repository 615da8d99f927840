"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The end-to-end checks (criterion 8) run the full benchmark protocol
on synthetic blob data and take a couple of minutes.
"""

import csv
import math
import time

import numpy as np
import pytest
import scipy.stats

from alcove.classifier import LinearClassifier, predict_proba
from alcove.dataset_io import generate_synthetic
from alcove.geometry import greedy_k_center, kmeanspp_seed
from alcove.harness import RunConfig, run_al, run_bench
from alcove.semisup import build_knn_graph, label_propagate
from alcove.stats import T_CRITICAL, paired_t_stat, win_fraction
from alcove.strategies import (
    STRATEGY_KINDS,
    QuerySpec,
    dropquery,
    query_badge,
    score_bald,
    score_entropy,
    score_margin,
    score_uncertainty,
    select_topb,
)

from oracles import badge_sq_dist, cross_entropy_loss_and_grad, label_propagate_closed_form

DATASET_FAMILY = (1, 2, 3)
RUN_SEEDS = (1, 10, 100, 1000, 10000)


def _pass(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def blob_family():
    return {s: generate_synthetic(10, 100, 32, 4.0, seed=s) for s in DATASET_FAMILY}


# ---------------------------------------------------------------------------
# 1. BADGE factorization equivalence


def test_criterion_1_badge_factorization():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()

    for _ in range(200):
        d, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        z_i, z_j = rng.normal(size=d), rng.normal(size=d)
        p_i, p_j = rng.normal(size=c), rng.normal(size=c)
        explicit = ((np.outer(z_i, p_i) - np.outer(z_j, p_j)) ** 2).sum()
        got = badge_sq_dist(z_i, p_i, z_j, p_j)
        assert got == pytest.approx(explicit, rel=1e-6, abs=1e-12)

    for trial in range(10):
        n = int(rng.integers(10, 51))
        d, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        feats = rng.normal(size=(n, d))
        clf = LinearClassifier(weights=rng.normal(size=(c, d)), bias=rng.normal(size=c))
        b = int(rng.integers(2, 8))
        got = query_badge(feats, clf, np.arange(n), b, np.random.default_rng(trial))
        probs = predict_proba(clf, feats)
        p = probs.copy()
        p[np.arange(n), probs.argmax(axis=1)] -= 1.0
        embeddings = np.stack([np.outer(feats[i], p[i]).ravel() for i in range(n)])
        expected = kmeanspp_seed(embeddings, b, np.random.default_rng(trial))
        assert got.tolist() == expected.tolist()

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(1, f"factorized distance and seeding trace match oracles ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Score-function oracles


def test_criterion_2_score_oracles():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()

    def naive_rank(scores, indices, b):
        return [i for _, i in sorted(zip(scores, indices), key=lambda p: (-p[0], p[1]))][:b]

    for _ in range(100):
        n, c = int(rng.integers(3, 40)), int(rng.integers(2, 6))
        raw = rng.random((n, c)) + 1e-6
        probs = raw / raw.sum(axis=1, keepdims=True)
        unl = np.sort(rng.choice(10 * n, size=n, replace=False))
        b = int(rng.integers(1, n + 1))

        for scorer, naive in (
            (score_uncertainty, lambda P: [1 - max(row) for row in P]),
            (score_entropy, lambda P: [-sum(p * math.log(p) for p in row if p > 0) for row in P]),
            (score_margin, lambda P: [-(sorted(row)[-1] - sorted(row)[-2]) for row in P]),
        ):
            got = select_topb(np.asarray(scorer(probs)), unl, b)
            assert got.tolist() == naive_rank(naive(probs), unl.tolist(), b)

        stack_raw = rng.random((5, n, c)) + 1e-6
        stack = stack_raw / stack_raw.sum(axis=2, keepdims=True)
        bald = score_bald(stack)
        naive_bald = []
        for i in range(n):
            mean_p = stack[:, i, :].mean(axis=0)
            h_mean = -sum(p * math.log(p) for p in mean_p if p > 0)
            mean_h = np.mean(
                [-sum(p * math.log(p) for p in stack[s, i] if p > 0) for s in range(5)]
            )
            naive_bald.append(max(h_mean - mean_h, 0.0))
        got = select_topb(bald, unl, b)
        assert got.tolist() == naive_rank(naive_bald, unl.tolist(), b)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"100 random matrices, selections bit-exact vs naive references ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Greedy k-center 2-approximation


def test_criterion_3_k_center_two_approximation():
    import itertools

    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(4, 11))
        b = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        picks = greedy_k_center(pts, [], min(b, n))
        greedy_radius = math.sqrt(d2[:, picks].min(axis=1).max())
        optimal = min(
            math.sqrt(d2[:, centers].min(axis=1).max())
            for centers in itertools.combinations(range(n), min(b, n))
        )
        assert greedy_radius <= 2.0 * optimal + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(3, f"50 exhaustive trials, radius within 2x optimal ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. DropQuery mechanics


def test_criterion_4_dropquery_mechanics():
    rng = np.random.default_rng(103)

    # (a) rho = 0 never yields candidates
    for _ in range(10):
        n, d, c = int(rng.integers(5, 25)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        feats = rng.normal(size=(n, d))
        clf = LinearClassifier(
            weights=rng.normal(size=(c, d)), bias=rng.normal(size=c), dropout_rho=0.0
        )
        res = dropquery(feats, clf, np.arange(n), 3, m=3, seed=int(rng.integers(1000)))
        assert res.candidate_fraction == 0.0

    # (b) hand-built seeded-mask instance: point 0 is inconsistent under 2 of
    # 3 masks, point 1 under 1 of 3, so the prose rule selects exactly point 0
    feats = np.array([[1.0, 2.0], [2.0, 1.0]])
    clf = LinearClassifier(weights=np.eye(2), bias=np.zeros(2), dropout_rho=0.5)
    seed = 1
    masks = np.random.default_rng(seed).random((3, 2, 2)) >= 0.5
    flips = [0, 0]
    for s in range(3):
        for i in range(2):
            z = [feats[i, t] * masks[s, i, t] / 0.5 for t in range(2)]
            flips[i] += (0 if z[0] >= z[1] else 1) != (0 if feats[i, 0] >= feats[i, 1] else 1)
    assert flips == [2, 1]
    res = dropquery(feats, clf, np.arange(2), 1, m=3, seed=seed)
    assert res.selected.tolist() == [0]

    # (c) the literal algorithm-text predicate keeps the complement set
    literal = dropquery(feats, clf, np.arange(2), 1, m=3, seed=seed, literal=True)
    assert literal.selected.tolist() == [1]

    _pass(4, "rho=0 fraction 0; seeded-mask instance and literal-switch complement")


# ---------------------------------------------------------------------------
# 5. Label propagation


def test_criterion_5_label_propagation():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n, c = int(rng.integers(6, 16)), int(rng.integers(2, 4))
        feats = rng.normal(size=(n, 3))
        s = build_knn_graph(feats, k=min(4, n - 1))
        y = np.zeros((n, c))
        for cls, i in enumerate(rng.choice(n, size=c, replace=False)):
            y[i, cls] = 1.0
        a = label_propagate(s, y, alpha=0.9)
        b = label_propagate_closed_form(s, y, alpha=0.9)
        assert np.abs(a.pseudo_probs - b.pseudo_probs).max() < 1e-5

    # exact weight endpoints: clamped one-hot seeds, isolated uniform node
    feats = np.array([[0.0, 1.0], [0.0, 1.1], [500.0, -500.0]])
    s = build_knn_graph(feats, k=1)
    y = np.zeros((3, 2))
    y[0, 0] = 1.0
    res = label_propagate(s, y, alpha=0.9)
    assert res.weights[0] == 1.0
    assert np.allclose(res.pseudo_probs[2], 0.5)
    assert res.weights[2] == 0.0

    # alpha = 0 reduces to the clamped seed matrix
    res0 = label_propagate(s, y, alpha=0.0)
    assert np.array_equal(res0.pseudo_probs[0], y[0])
    assert np.allclose(res0.pseudo_probs[1:], 0.5)

    _pass(5, "fixpoint matches closed form (1e-5, 20 graphs); weight endpoints exact")


# ---------------------------------------------------------------------------
# 6. Gradient check


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(105)
    step = 1e-4
    for _ in range(20):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, c, n)
        w = rng.normal(size=(c, d)) * 0.5
        b = rng.normal(size=c) * 0.5
        _, g_w, g_b = cross_entropy_loss_and_grad(w, b, X, y)
        for arr, grad in ((w, g_w), (b, g_b)):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                lp = cross_entropy_loss_and_grad(w, b, X, y)[0]
                arr[ix] = orig - step
                lm = cross_entropy_loss_and_grad(w, b, X, y)[0]
                arr[ix] = orig
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(numeric), abs(grad[ix]), 1e-8)
                assert abs(numeric - grad[ix]) / denom < 1e-3
                it.iternext()
    _pass(6, "analytic gradients match central differences (rel 1e-3, 20 trials)")


# ---------------------------------------------------------------------------
# 7. Significance machinery


def test_criterion_7_significance():
    assert paired_t_stat([2, 1, 3, 1, 3]) == 5.0
    assert abs(T_CRITICAL - scipy.stats.t.ppf(0.975, df=4)) < 1e-3

    from alcove.harness import IterationRow, RunRecord

    def records(strategy, accs_by_seed):
        out = []
        for seed, accs in accs_by_seed.items():
            rec = RunRecord(strategy=strategy, seed=seed)
            rec.rows = [
                IterationRow(iteration=t, labeled_count=t, accuracy=a)
                for t, a in enumerate(accs, 1)
            ]
            out.append(rec)
        return out

    # iteration 2 reproduces the c = 5.0 instance; iterations 1 and 3 tie
    base = records("j", {s: [0.0, 0.0, 0.0] for s in (1, 2, 3, 4, 5)})
    boosted = records(
        "i",
        {1: [0, 2.0, 0], 2: [0, 1.0, 0], 3: [0, 3.0, 0], 4: [0, 1.0, 0], 5: [0, 3.0, 0]},
    )
    assert win_fraction(boosted, base, 3) == pytest.approx(1 / 3)
    assert win_fraction(base, boosted, 3) == 0.0

    # a uniformly better strategy wins every iteration (sigma = 0 convention)
    flat = records("j", {s: [0.1, 0.1] for s in (1, 2, 3, 4, 5)})
    ahead = records("i", {s: [0.3, 0.4] for s in (1, 2, 3, 4, 5)})
    assert win_fraction(ahead, flat, 2) == 1.0

    _pass(7, "printed formula gives 5.0 exactly; 2.776 matches t(4); fractions check out")


# ---------------------------------------------------------------------------
# 8. End-to-end behavioral checks


@pytest.fixture(scope="module")
def bench_timing(blob_family):
    ds = blob_family[1]
    configs = [RunConfig(strategy=QuerySpec(kind), iterations=20) for kind in STRATEGY_KINDS]
    t0 = time.perf_counter()
    bench = run_bench(ds, configs, RUN_SEEDS)
    return bench, time.perf_counter() - t0


def test_criterion_8a_uncertainty_strategies_beat_random(blob_family):
    window = range(2, 9)
    specs = {
        "dropquery": QuerySpec("dropquery"),
        "margins_div": QuerySpec("margins", diversify=True),
        "random": QuerySpec("random"),
    }
    accs = {name: {} for name in specs}
    configs = [RunConfig(strategy=spec, iterations=20, init="centroid") for spec in specs.values()]
    for ds_seed, ds in blob_family.items():
        # each cell's rows equal those of run_al on it; the grid only batches the fits
        bench = run_bench(ds, configs, RUN_SEEDS)
        assert not bench.failures, bench.failures
        for rec in bench.records:
            accs[rec.strategy][(ds_seed, rec.seed)] = [row.accuracy for row in rec.rows]

    for name in ("dropquery", "margins_div"):
        window_deltas = []
        iter_deltas = {t: [] for t in window}
        for key, curve in accs[name].items():
            rand_curve = accs["random"][key]
            window_deltas.append(
                np.mean([curve[t - 1] for t in window]) - np.mean([rand_curve[t - 1] for t in window])
            )
            for t in window:
                iter_deltas[t].append(curve[t - 1] - rand_curve[t - 1])
        mean_window = float(np.mean(window_deltas))
        assert mean_window > 0, f"{name}: paired mean delta over t=2..8 is {mean_window}"
        positive = sum(np.mean(iter_deltas[t]) > 0 for t in window)
        assert positive >= 5, f"{name}: only {positive}/7 iteration deltas positive"
    _pass(8, "dropquery and diversified margins beat random over iterations 2-8")


def test_criterion_8b_centroid_init_beats_random_at_t1(blob_family):
    deltas = []
    for ds in blob_family.values():
        for seed in RUN_SEEDS:
            rand = run_al(ds, RunConfig(strategy=QuerySpec("random"), iterations=1, init="random"), seed)
            cent = run_al(ds, RunConfig(strategy=QuerySpec("random"), iterations=1, init="centroid"), seed)
            deltas.append(cent.rows[0].accuracy - rand.rows[0].accuracy)
    mean_delta = float(np.mean(deltas))
    assert mean_delta > 0
    _pass(8, f"centroid init beats random init at t=1 by +{mean_delta:.3f} mean accuracy")


def test_criterion_8c_full_bench_under_five_minutes(bench_timing):
    bench, elapsed = bench_timing
    assert not bench.failures
    assert len(bench.records) == len(STRATEGY_KINDS) * len(RUN_SEEDS)
    assert all(len(rec.rows) == 20 for rec in bench.records)
    assert elapsed < 300.0
    _pass(8, f"12 strategies x 5 seeds x 20 iterations in {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path):
    from alcove.cli import main

    ds_dir = tmp_path / "ds"
    assert main([
        "synth", "--classes", "4", "--per-class", "30", "--dim", "8",
        "--sep", "4", "--seed", "2", "--out", str(ds_dir),
    ]) == 0

    outputs = []
    for name, strategies in (("a", "dropquery,margins,random"),
                             ("b", "dropquery,margins,random"),
                             ("c", "margins")):
        out = tmp_path / name
        assert main([
            "bench", "--data", str(ds_dir), "--out", str(out),
            "--strategies", strategies, "--seeds", "1,10",
            "--iterations", "3", "--epochs", "60",
        ]) == 0
        outputs.append((out / "records.csv").read_bytes())

    assert outputs[0] == outputs[1], "repeated run is not byte-identical"
    # adding strategies to a grid never perturbs another strategy's draws
    grid_margins = [line for line in outputs[0].splitlines() if line.startswith(b"margins,")]
    alone = outputs[2].splitlines()
    assert alone[0] == outputs[0].splitlines()[0]
    assert len(grid_margins) == 6 and alone[1:] == grid_margins, "margins rows depend on the grid"
    with open(tmp_path / "a" / "records.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["strategy", "seed", "iteration", "labeled", "accuracy", "candidate_fraction"]
    _pass(9, "byte-identical records across reruns and with or without other strategies")
