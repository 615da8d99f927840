"""Scalar reference implementations that the tests check the library against.

Each one computes, the slow and obvious way, what a library function computes
in vectorized or factorized form, so the two can be compared directly.
"""

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (registers sp.linalg)

from alcove.geometry import knn, pairwise_sq_dist
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


def knn_graph_by_gather(features: np.ndarray, k: int = 500):
    """build_knn_graph with every edge's similarity taken from two gathered
    (n*k) x d copies of the unit features, one row per edge endpoint."""
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    k = min(k, n - 1)
    unit = X / np.maximum(np.sqrt(np.einsum("ij,ij->i", X, X)), 1e-12)[:, None]
    idx, _ = knn(X, k)
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
