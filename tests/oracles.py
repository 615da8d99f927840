"""Scalar reference implementations that the tests check the library against.

Each one computes, the slow and obvious way, what a library function computes
in vectorized or factorized form, so the two can be compared directly.
"""

from typing import Optional

import numpy as np

from alcove.geometry import pairwise_sq_dist


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
