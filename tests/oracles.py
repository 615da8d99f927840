"""Scalar reference implementations that the tests check the library against.

Each one computes, the slow and obvious way, what a library function computes
in vectorized or factorized form, so the two can be compared directly.
"""

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (registers sp.linalg)

from alcove.classifier import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainingDiverged, predict_proba
from alcove.geometry import pairwise_sq_dist
from alcove.semisup import PropagationResult


def badge_sq_dist(z_i, p_i, z_j, p_j) -> float:
    """Squared Frobenius distance between rank-one gradient embeddings z p^T.

    Evaluated through inner products of the factor vectors only, so no
    (C x d)-sized embedding is ever materialized.
    """
    z_i = np.asarray(z_i, dtype=np.float64)
    p_i = np.asarray(p_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    p_j = np.asarray(p_j, dtype=np.float64)
    val = (
        (z_i @ z_i) * (p_i @ p_i)
        + (z_j @ z_j) * (p_j @ p_j)
        - 2.0 * (z_i @ z_j) * (p_i @ p_j)
    )
    return max(float(val), 0.0)


def typicality(features: np.ndarray, idx: int, k: int = 20) -> float:
    """Inverse mean distance to the k nearest neighbors (clamped near zero).

    A point with no neighbors to average over (k < 1) has typicality 0.
    """
    if k < 1:
        return 0.0
    X = np.asarray(features, dtype=np.float64)
    d2 = pairwise_sq_dist(X[idx : idx + 1], X)[0]
    d2[idx] = np.inf
    nearest = np.sort(np.sqrt(d2), kind="stable")[:k]
    return float(1.0 / (nearest.mean() + 1e-12))


def cross_entropy_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
):
    """Weighted-mean softmax cross-entropy and its analytic gradients.

    Weights are normalized by their sum, so all-ones weighting is exactly
    the unweighted mean (single code path for both).
    """
    n = features.shape[0]
    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    total = w.sum()
    wn = w / total if total > 0 else w
    logits = features @ weights.T + bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    eps = np.finfo(np.float64).tiny
    loss = float(-(wn * np.log(np.maximum(probs[np.arange(n), labels], eps))).sum())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta *= wn[:, None]
    grad_w = delta.T @ features
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def adamw_fit(
    features, labels, num_classes: int, config, seed: int, sample_weights=None, dtype=np.float32
):
    """One cell's AdamW fit, one epoch's mask draw at a time: float64 (weights, bias).

    With ``dtype=np.float32`` this is the loop ``train_batch`` runs for many
    cells at once, with masks drawn in blocks of epochs; the two must agree
    bit for bit. ``dtype=np.float64`` runs the same loop in float64, a
    reference for what training in float32 costs. Raises ``TrainingDiverged`` at the first epoch with a
    non-finite loss, checked in float64.
    """
    f = dtype
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, d = X.shape
    rho = config.dropout_rho
    rng = np.random.default_rng(seed)
    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    total = w.sum()
    wn = w / total if total > 0 else w
    gather = (np.arange(n), y)
    tiny = np.finfo(np.float64).tiny

    X_scaled = (X / (1.0 - rho)).astype(f)
    aug = np.ones((n, d + 1), dtype=f)
    params = np.zeros((num_classes, d + 1), dtype=f)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    lr, lr_wd = f(config.learning_rate), f(config.learning_rate * config.weight_decay)
    for epoch in range(1, config.epochs + 1):
        mask = rng.random((n, d), dtype=np.float32) >= rho
        np.multiply(X_scaled, mask, out=aug[:, :d])
        probs = aug @ params.T
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = -float(wn @ np.log(np.maximum(probs[gather].astype(np.float64), tiny)))
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)
        probs[gather] -= f(1.0)
        probs *= wn.astype(f)[:, None]
        grad = probs.T @ aug
        m *= f(ADAM_BETA1)
        m += f(1.0 - ADAM_BETA1) * grad
        v *= f(ADAM_BETA2)
        v += f(1.0 - ADAM_BETA2) * grad * grad
        step = (m / f(1.0 - ADAM_BETA1**epoch)) / (
            np.sqrt(v / f(1.0 - ADAM_BETA2**epoch)) + f(ADAM_EPS)
        )
        params -= lr * step + lr_wd * params
    params = params.astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise TrainingDiverged(config.epochs)
    return params[:, :d], params[:, d]


def alfamix_anchor_flips(clf, U, probs, anchors, eps) -> np.ndarray:
    """alfamix's per-row flip counts, with fresh n x d arrays for every anchor.

    The plain expression of the mixing rule: for each anchor, alpha =
    eps * h / ||h|| (0 where ||h|| is not > 0) with h = grad * (anchor - z),
    and the mixed point z + alpha * (anchor - z) counts when its predicted
    label differs from z's.
    """
    base = np.argmax(probs, axis=1)
    onehot_gap = probs.copy()
    onehot_gap[np.arange(len(probs)), base] -= 1.0
    grads = onehot_gap @ clf.weights
    flips = np.zeros(len(U), dtype=np.int64)
    for anchor in anchors:
        direction = anchor[None, :] - U
        h = grads * direction
        norms = np.sqrt(np.einsum("ij,ij->i", h, h))
        alpha = np.where(norms[:, None] > 0, eps * h / np.maximum(norms, 1e-300)[:, None], 0.0)
        mixed = U + alpha * direction
        flips += np.argmax(predict_proba(clf, mixed), axis=1) != base
    return flips


def aggregate_records(records):
    """Mean/std of accuracy over seeds, keyed by (strategy, iteration).

    Std uses the 1/n population normalization, matching the significance
    machinery in alcove.stats.
    """
    groups = {}
    for rec in records:
        for row in rec.rows:
            groups.setdefault((rec.strategy, row.iteration), []).append(row.accuracy)
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals, dtype=np.float64)
        out[key] = (float(arr.mean()), float(arr.std()))
    return out


def cluster_sums_add_at(points: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """Per cluster, the sum of its member rows, accumulated by np.add.at in index order."""
    points = np.asarray(points, dtype=np.float64)
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, assignments, points)
    return sums


def knn_by_argsort(points: np.ndarray, k: int, d2=None):
    """knn from the full n x n distance matrix d2 (by default
    pairwise_sq_dist(points, points)): the first k columns of each row's
    stable argsort, with the diagonal set to inf."""
    points = np.asarray(points, dtype=np.float64)
    d2 = pairwise_sq_dist(points, points) if d2 is None else d2.copy()
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(d2, order, axis=1))


def nearest_other_label_dist_dense(d2: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row of the full n x n distance matrix d2, the distance to the
    nearest point with another label: same-label entries set to inf, then the
    row minimum's square root."""
    return np.sqrt(np.where(labels[:, None] == labels[None, :], np.inf, d2).min(axis=1))


def probcover_dense(features, labeled, unlabeled, b: int, delta: float, d2=None):
    """query_probcover over a dense boolean adjacency of the train pool, every
    candidate's uncovered neighbours recounted on each pick. d2 is the pool's
    distance matrix, by default pairwise_sq_dist of the pool's features."""
    labeled = np.asarray(labeled, dtype=np.int64)
    pool = np.sort(np.concatenate([labeled, np.asarray(unlabeled, dtype=np.int64)]))
    is_labeled = np.isin(pool, labeled)
    X = np.asarray(features, dtype=np.float64)[pool]
    adj = (pairwise_sq_dist(X, X) if d2 is None else d2) <= delta * delta
    covered = adj[is_labeled].any(axis=0)
    cand = ~is_labeled
    picks = []
    for _ in range(min(b, len(unlabeled))):
        counts = np.where(cand, adj[:, ~covered].sum(axis=1), -1)
        pick = int(np.argmax(counts))
        picks.append(int(pool[pick]))
        covered |= adj[pick]
        cand[pick] = False
    return np.asarray(picks, dtype=np.int64)


def knn_graph_by_gather(features: np.ndarray, k: int = 500, d2=None):
    """build_knn_graph assembled from COO triplets and two sp.diags products,
    with every edge's similarity taken from two gathered (n*k) x d copies of
    the unit features, one row per edge endpoint, and the neighbours from
    knn_by_argsort over d2."""
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    k = min(k, n - 1)
    unit = X / np.maximum(np.sqrt(np.einsum("ij,ij->i", X, X)), 1e-12)[:, None]
    idx, _ = knn_by_argsort(X, k, d2)
    rows = np.repeat(np.arange(n), k)
    cols = idx.ravel()
    sims = np.einsum("ij,ij->i", unit[rows], unit[cols])
    w = sp.csr_matrix((np.maximum(sims, 0.0) ** 3, (rows, cols)), shape=(n, n))
    a = w.maximum(w.T)
    a.setdiag(0.0)
    a.eliminate_zeros()
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    d_half = sp.diags(inv_sqrt)
    return (d_half @ a @ d_half).tocsr()


def label_propagate_closed_form(s_matrix, labels_onehot: np.ndarray, alpha: float = 0.9):
    """label_propagate with F taken from the linear solve
    F = (1 - alpha)(I - alpha S)^{-1} Y instead of the fixpoint iteration,
    then the same clamp of labeled rows, row renormalization (all-zero rows
    become uniform) and weights 1 - H/log(C)."""
    Y = np.asarray(labels_onehot, dtype=np.float64)
    n, c = Y.shape
    system = sp.identity(n, format="csr") - alpha * sp.csr_matrix(s_matrix)
    F = (1.0 - alpha) * np.asarray(sp.linalg.spsolve(system, Y)).reshape(n, c)
    labeled = Y.sum(axis=1) > 0
    F[labeled] = Y[labeled]
    row_sums = F.sum(axis=1)
    for i in range(n):
        F[i] = F[i] / row_sums[i] if row_sums[i] > 0 else 1.0 / c
    weights = np.empty(n)
    for i in range(n):
        entropy = -sum(p * np.log(p) for p in F[i] if p > 0)
        weights[i] = min(max(1.0 - entropy / np.log(c), 0.0), 1.0)
    return PropagationResult(pseudo_probs=F, weights=weights)
