"""Shows that every correctness check passes on a good output and fails on a
corrupted one, and that BENCHMARK.json names the metrics the runs print.

Needs numpy only. Run from the repository root:

    python3 perfbench/selftest.py

Exits 1 and names the case if any check accepts a corrupted output.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from inputs import make_blobs  # noqa: E402

FAILURES = []


def expect(name, good, corrupted):
    """``good`` must pass; each function in ``corrupted`` must raise CheckFailed."""
    try:
        good()
    except checks.CheckFailed as exc:
        FAILURES.append(f"{name}: rejects a good output ({exc})")
    for label, bad in corrupted.items():
        try:
            bad()
        except checks.CheckFailed:
            continue
        FAILURES.append(f"{name}: accepts a corrupted output ({label})")


def flipped_bit(a):
    out = a.copy()
    out.view(np.uint32)[0, 0] ^= 1
    return out


def test_inputs():
    b = make_blobs(3, 10, 4, 4.0, seed=1)
    f, y = b.features.copy(), b.labels.copy()
    y_bad = y.copy()
    y_bad[0] = (y_bad[0] + 1) % 3
    expect("inputs", lambda: checks.check_inputs(b, f, y, b.train, b.test), {
        "one feature bit flipped": lambda: checks.check_inputs(b, flipped_bit(f), y, b.train, b.test),
        "a label changed": lambda: checks.check_inputs(b, f, y_bad, b.train, b.test),
        "a test index moved to train": lambda: checks.check_inputs(
            b, f, y, np.append(b.train, b.test[0]), b.test[1:]),
        "features as float64": lambda: checks.check_inputs(b, f.astype(np.float64), y, b.train, b.test),
    })


def test_query():
    train = np.arange(20)
    labeled, unlabeled = np.array([0, 5]), np.array([i for i in range(20) if i not in (0, 5)])
    ok = np.array([1, 2, 3])
    expect("query", lambda: checks.check_query(labeled, unlabeled, 3, ok, train), {
        "too few": lambda: checks.check_query(labeled, unlabeled, 3, ok[:2], train),
        "repeated": lambda: checks.check_query(labeled, unlabeled, 3, np.array([1, 1, 2]), train),
        "already labeled": lambda: checks.check_query(labeled, unlabeled, 3, np.array([0, 1, 2]), train),
        "outside train": lambda: checks.check_query(labeled, unlabeled, 3, np.array([1, 2, 25]), train),
    })
    expect("query on a short pool", lambda: checks.check_query(labeled, unlabeled[:2], 3, unlabeled[:2], train), {
        "more than the pool": lambda: checks.check_query(labeled, unlabeled[:2], 3, ok, train),
    })


def test_reveals():
    test = np.array([7, 8, 9])
    expect("reveals", lambda: checks.check_reveals([[[1, 2], [3]], [[1]]], test), {
        "a test index": lambda: checks.check_reveals([[[1, 2], [8]]], test),
        "an index twice": lambda: checks.check_reveals([[[1, 2], [2]]], test),
    })


def test_labeled_counts():
    expect("labeled counts", lambda: checks.check_labeled_counts([10, 20, 30], 10, 10, 3, 40), {
        "a skipped reveal": lambda: checks.check_labeled_counts([10, 20, 29], 10, 10, 3, 39),
        "a missing row": lambda: checks.check_labeled_counts([10, 20], 10, 10, 3, 40),
        "uncounted oracle access": lambda: checks.check_labeled_counts([10, 20, 30], 10, 10, 3, 30),
    })


def test_accuracy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    w, b = rng.normal(size=(3, 4)), rng.normal(size=3)
    y = np.argmax(x @ w.T + b, axis=1)
    y[:10] = (y[:10] + 1) % 3
    expect("accuracy", lambda: checks.check_accuracy(w, b, x, y, 0.8), {
        "one row off": lambda: checks.check_accuracy(w, b, x, y, 0.82),
        "another classifier": lambda: checks.check_accuracy(-w, b, x, y, 0.8),
    })


def test_kmeans():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    c = x[:4].copy()
    a = np.argmin(((x[:, None, :] - c[None]) ** 2).sum(axis=2), axis=1)
    wrong = a.copy()
    wrong[10] = (wrong[10] + 1) % 4
    expect("kmeans", lambda: checks.check_kmeans(x, c, a), {
        "one point misassigned": lambda: checks.check_kmeans(x, c, wrong),
        "a centroid moved": lambda: checks.check_kmeans(x, c + np.array([[3.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]), a),
    })


def test_propagation():
    true = np.array([0, 1, 2, 1, 0])
    y = np.zeros((5, 3))
    y[0, 0] = y[1, 1] = 1.0
    f = np.full((5, 3), 1 / 3)
    f[0], f[1] = y[0], y[1]
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    wrong_seed = y.copy()
    wrong_seed[1] = [0.0, 0.0, 1.0]
    unnormalized = f.copy()
    unnormalized[3] *= 1.1
    unclamped = f.copy()
    unclamped[0] = [0.9, 0.1, 0.0]
    expect("propagation", lambda: checks.check_propagation(y, f, w, true), {
        "a row not stochastic": lambda: checks.check_propagation(y, unnormalized, w, true),
        "a labeled row not clamped": lambda: checks.check_propagation(y, unclamped, w, true),
        "a seed on the wrong label": lambda: checks.check_propagation(wrong_seed, f, w, true),
        "a weight above 1": lambda: checks.check_propagation(y, f, w + 0.5, true),
    })


def test_win_matrix():
    rng = np.random.default_rng(2)
    base = rng.normal(0.7, 0.02, (5, 6))
    table = {"a": base + 0.05, "b": base + rng.normal(0, 0.002, base.shape), "c": base - 0.05}
    names = ["a", "b", "c"]
    mat = np.array([[checks.win_fraction(table[i], table[j]) if i != j else 0.0 for j in names]
                    for i in names])
    assert mat[0, 2] == 1.0, "the fixture should contain a clear win"
    diag = mat.copy()
    diag[1, 1] = 0.5
    both = mat.copy()
    both[2, 0] = 0.5
    off = mat.copy()
    off[0, 1] = mat[0, 1] + 1 / 6 if mat[0, 1] < 1 else 0.0
    expect("win matrix", lambda: checks.check_win_matrix(names, {"d": mat}, mat, {"d": table}), {
        "nonzero diagonal": lambda: checks.check_win_matrix(names, {"d": diag}, diag, {"d": table}),
        "w_ij + w_ji above 1": lambda: checks.check_win_matrix(names, {"d": both}, both, {"d": table}),
        "a wrong win fraction": lambda: checks.check_win_matrix(names, {"d": off}, off, {"d": table}),
        "a wrong total": lambda: checks.check_win_matrix(names, {"d": mat}, mat * 2, {"d": table}),
        "a strategy missing": lambda: checks.check_win_matrix(
            names[:2], {"d": mat[:2, :2]}, mat[:2, :2], {"d": table}),
        "a dataset missing": lambda: checks.check_win_matrix(names, {}, mat * 0, {"d": table}),
    })
    # the paired statistic itself: five equal positive differences always win
    expect("paired statistic", lambda: checks.require(checks.paired_win([0.01] * 5), "no win"), {
        "zero differences": lambda: checks.require(checks.paired_win([0.0] * 5), "no win"),
        "t = 1.12, below 2.776": lambda: checks.require(
            checks.paired_win([2.0, 0.0, 0.0, 0.0, 0.0]), "no win"),
    })


def test_final_accuracy():
    expect("final accuracy", lambda: checks.check_final_accuracy([0.3, 0.4], 10), {
        "at chance": lambda: checks.check_final_accuracy([0.1, 0.1], 10),
    })


def test_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != layers.declared():
        FAILURES.append("BENCHMARK.json per_layer differs from layers.declared()")
    want = {"rounds_per_s", "cpu_s", "setup_s", "peak_rss_mb", "alc_accuracy"}
    if {m["name"] for m in spec["end_to_end"]} != want:
        FAILURES.append("BENCHMARK.json end_to_end differs from the metrics run.py prints")


def main() -> int:
    for test in (test_inputs, test_query, test_reveals, test_labeled_counts, test_accuracy,
                 test_kmeans, test_propagation, test_win_matrix, test_final_accuracy,
                 test_benchmark_json):
        test()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    if not FAILURES:
        print("selftest: every check accepts good outputs and rejects the corrupted ones")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
