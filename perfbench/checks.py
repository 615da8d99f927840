"""Correctness checks on the program's outputs.

Each check compares against a computation of the benchmark's own or a
property the output must have, never against saved output, and raises
``CheckFailed`` on the first violation. The module needs numpy only, so
``selftest.py`` can exercise every check without the program.
"""

import math

import numpy as np

T_CRITICAL = 2.776  # two-sided p = 0.05 quantile of Student's t with 4 degrees of freedom


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_inputs(blobs, features, labels, train, test):
    """The loaded arrays equal the generated ones bit for bit."""
    require(features.dtype == np.float32, f"features loaded as {features.dtype}")
    require(
        features.shape == blobs.features.shape
        and np.array_equal(features.view(np.uint32), blobs.features.view(np.uint32)),
        "loaded features differ from the generated ones",
    )
    require(np.array_equal(labels, blobs.labels), "loaded labels differ from the generated ones")
    require(np.array_equal(np.sort(train), blobs.train), "loaded train split differs")
    require(np.array_equal(np.sort(test), blobs.test), "loaded test split differs")


def check_query(labeled, unlabeled, b, selected, train):
    """A query returns exactly min(b, |unlabeled|) distinct unlabeled train indices."""
    labeled = np.asarray(labeled)
    unlabeled = np.asarray(unlabeled)
    selected = np.asarray(selected)
    require(
        np.isin(unlabeled, train).all() and not np.isin(unlabeled, labeled).any(),
        "the unlabeled pool is not a subset of train disjoint from the labeled pool",
    )
    want = min(b, len(unlabeled))
    require(len(selected) == want, f"query returned {len(selected)} indices, expected {want}")
    require(len(np.unique(selected)) == len(selected), "query returned a repeated index")
    require(np.isin(selected, unlabeled).all(), "query returned an index outside the unlabeled pool")


def check_reveals(reveals, test):
    """No oracle reveals a test index, or the same index twice."""
    for oracle in reveals:
        revealed = [i for batch in oracle for i in batch]
        require(len(set(revealed)) == len(revealed), "an oracle revealed an index twice")
        require(not np.isin(revealed, test).any(), "an oracle revealed a test index")


def check_labeled_counts(labeled_counts, initial, budget, iterations, oracle_accesses):
    """Row t has initial + (t-1)*budget labels; the oracle was asked for every label."""
    want = [initial + t * budget for t in range(iterations)]
    require(list(labeled_counts) == want, f"labeled counts {list(labeled_counts)}, expected {want}")
    final = initial + iterations * budget
    require(
        oracle_accesses == final,
        f"oracle accessed {oracle_accesses} labels, final labeled count is {final}",
    )


def check_accuracy(weights, bias, test_features, test_labels, accuracy):
    """Test accuracy recomputed from the classifier's argmax matches the reported one.

    Rows whose two largest logits lie within 1e-9 of each other may go either
    way, so the recomputed count may differ from the reported one by at most
    their number.
    """
    logits = np.asarray(test_features, dtype=np.float64) @ np.asarray(weights).T + bias
    top2 = np.sort(logits, axis=1)[:, -2:]
    near_ties = int((top2[:, 1] - top2[:, 0] <= 1e-9).sum())
    correct = int((np.argmax(logits, axis=1) == test_labels).sum())
    reported = accuracy * len(test_labels)
    require(
        abs(reported - correct) <= near_ties + 1e-6,
        f"reported accuracy {accuracy}, recomputed {correct}/{len(test_labels)}",
    )


def check_kmeans(points, centroids, assignments):
    """Every point is assigned to its nearest centroid."""
    X = np.asarray(points, dtype=np.float64)
    C = np.asarray(centroids, dtype=np.float64)
    require(len(assignments) == len(X), "one assignment per point is required")
    require(
        assignments.min() >= 0 and assignments.max() < len(C), "assignment outside the centroids"
    )
    d2 = np.empty((len(X), len(C)))
    for j, c in enumerate(C):
        diff = X - c
        d2[:, j] = np.einsum("ij,ij->i", diff, diff)
    assigned = d2[np.arange(len(X)), assignments]
    scale = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", C, C)[assignments]
    require(
        (assigned - d2.min(axis=1) <= 1e-9 * (scale + 1.0)).all(),
        "a point is assigned to a centroid that is not its nearest",
    )


def check_propagation(labels_onehot, pseudo_probs, weights, true_labels):
    """Pseudo-labels are row-stochastic, labeled rows are one-hot on the true label,
    and the confidence weights lie in [0, 1].

    ``true_labels`` holds the hidden label of every row (rows follow the
    sorted train split).
    """
    Y = np.asarray(labels_onehot)
    F = np.asarray(pseudo_probs)
    n, c = F.shape
    require(Y.shape == (n, c) and weights.shape == (n,), "propagation shapes disagree")
    require((F >= 0).all() and np.allclose(F.sum(axis=1), 1.0, rtol=0, atol=1e-9),
             "pseudo-labels are not row-stochastic")
    labeled = Y.sum(axis=1) > 0
    onehot = np.eye(c)[true_labels[labeled]]
    require(np.array_equal(Y[labeled], onehot), "a seed label is not the one-hot of the true label")
    require(np.array_equal(F[labeled], onehot), "a labeled row's pseudo-label is not its true one-hot")
    require(((weights >= 0) & (weights <= 1)).all(), "a confidence weight lies outside [0, 1]")


def paired_win(diffs) -> bool:
    """The protocol's paired test over five seeds: sqrt(5) * mean / std > 2.776,
    std normalized by 1/5; zero spread wins exactly when the mean is positive."""
    n = len(diffs)
    mu = sum(diffs) / n
    sigma = math.sqrt(sum((d - mu) ** 2 for d in diffs) / n)
    if sigma == 0.0:
        return mu > 0
    return math.sqrt(n) * mu / sigma > T_CRITICAL


def win_fraction(acc_i, acc_j) -> float:
    """Share of iterations where strategy i beats j; arrays are (seeds, iterations)."""
    iterations = acc_i.shape[1]
    wins = sum(paired_win([a - b for a, b in zip(acc_i[:, t], acc_j[:, t])]) for t in range(iterations))
    return wins / iterations


def check_win_matrix(strategies, per_dataset, totals, tables):
    """Checks the win matrices written by ``stats``.

    ``per_dataset`` maps a dataset name to its matrix; ``tables`` maps the
    same names to {strategy: (seeds, iterations) accuracy array} as the
    benchmark generated them.
    """
    require(set(per_dataset) == set(tables), "the win matrices cover other datasets than the input")
    total = np.zeros((len(strategies), len(strategies)))
    for name, table in tables.items():
        require(sorted(strategies) == sorted(table), f"{name}: the strategies differ from the input")
        mat = np.asarray(per_dataset[name])
        require(np.all(np.diag(mat) == 0), f"{name}: the win matrix diagonal is not zero")
        require(np.all(mat + mat.T <= 1 + 1e-12), f"{name}: some w_ij + w_ji exceeds 1")
        for i, a in enumerate(strategies):
            for j, b in enumerate(strategies):
                if i != j:
                    want = win_fraction(table[a], table[b])
                    require(mat[i, j] == want,
                             f"{name}: win fraction {a} over {b} is {mat[i, j]}, expected {want}")
        total += mat
    require(np.allclose(np.asarray(totals), total, rtol=0, atol=1e-12),
             "the summed win matrix is not the sum of the per-dataset ones")


def check_final_accuracy(final_accuracies, num_classes):
    """The mean final-round accuracy beats guessing."""
    mean = float(np.mean(final_accuracies))
    require(mean > 1.0 / num_classes, f"mean final accuracy {mean} is not above 1/{num_classes}")
