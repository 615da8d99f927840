"""Transductive label propagation over a kNN affinity graph.

Produces row-stochastic pseudo-labels plus entropy-based confidence weights
w_i = 1 - H(z_i)/log(C) for weighting samples during classifier training.
Entropies are in nats; the ratio is base-invariant anyway.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import knn
from .strategies import score_entropy

PROPAGATION_MAX_ITERS = 10000
PROPAGATION_TOL = 1e-8


@dataclass
class PropagationResult:
    """Pseudo-label distribution and per-sample confidence weights."""

    pseudo_probs: np.ndarray  # (n, C) row-stochastic
    weights: np.ndarray  # (n,) in [0, 1]


def build_knn_graph(features: np.ndarray, k: int = 500) -> sp.csr_matrix:
    """Symmetric normalized affinity S = D^{-1/2} A D^{-1/2}.

    Edge weights are max(0, cosine similarity)^3 over kNN edges, symmetrized
    by max, zero diagonal. k >= n clamps to n - 1.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    k = min(k, n - 1)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    unit = X / np.maximum(norms, 1e-12)[:, None]

    idx, _ = knn(X, k)
    # cosine similarities of each row to its neighbors, gathered a block of
    # rows at a time so no (n*k) x d copy of the features is ever built
    sims = np.empty((n, k))
    for start in range(0, n, 256):
        block = slice(start, start + 256)
        sims[block] = np.einsum("ij,ikj->ik", unit[block], unit[idx[block]])
    vals = np.maximum(sims.ravel(), 0.0) ** 3
    w = sp.csr_matrix((vals, (np.repeat(np.arange(n), k), idx.ravel())), shape=(n, n))
    a = w.maximum(w.T)
    a.setdiag(0.0)
    a.eliminate_zeros()

    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    d_half = sp.diags(inv_sqrt)
    return (d_half @ a @ d_half).tocsr()


def label_propagate(s_matrix, labels_onehot: np.ndarray, alpha: float = 0.9) -> PropagationResult:
    """Diffuse seed labels: F <- alpha S F + (1 - alpha) Y.

    Iteration stops once the contraction bound alpha/(1 - alpha) * residual
    puts F within PROPAGATION_TOL (1e-8) of the fixpoint, or after
    PROPAGATION_MAX_ITERS (10,000) steps. Labeled rows (nonzero rows of Y)
    are clamped back to their one-hot labels afterward, rows are
    renormalized (all-zero rows become uniform), and weights are 1 - H/log(C).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    Y = np.asarray(labels_onehot, dtype=np.float64)
    c = Y.shape[1]
    labeled_mask = Y.sum(axis=1) > 0
    if not labeled_mask.any():
        raise ValueError("label propagation needs at least one labeled row")

    F = Y.copy()
    gain = alpha / (1.0 - alpha)
    for _ in range(PROPAGATION_MAX_ITERS):
        F_next = alpha * (s_matrix @ F) + (1.0 - alpha) * Y
        residual = np.abs(F_next - F).max()
        F = F_next
        if residual * gain < PROPAGATION_TOL:
            break

    F[labeled_mask] = Y[labeled_mask]
    row_sums = F.sum(axis=1)
    F = np.where(row_sums[:, None] > 0, F / np.maximum(row_sums, 1e-300)[:, None], 1.0 / c)
    weights = np.clip(1.0 - score_entropy(F) / np.log(c), 0.0, 1.0)
    return PropagationResult(pseudo_probs=F, weights=weights)
