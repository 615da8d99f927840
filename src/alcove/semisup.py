"""Transductive label propagation over a kNN affinity graph.

The propagated labels are the fixpoint of F <- alpha S F + (1 - alpha) Y
(Zhou et al., 2004), found as the solution of (I - alpha S) F = (1 - alpha) Y
by conjugate gradients over all class columns at once (as Iscen et al., 2019,
solve it). Since I - alpha S has no eigenvalue below 1 - alpha, a residual
2-norm below (1 - alpha) * 1e-8 bounds the error of every column by 1e-8.

Produces row-stochastic pseudo-labels plus entropy-based confidence weights
w_i = 1 - H(z_i)/log(C) for weighting samples during classifier training.
Entropies are in nats; the ratio is base-invariant anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .classifier import check_integer
from .geometry import _knn_blocks, _sq_norms
from .strategies import score_entropy

PROPAGATION_MAX_ITERS = 10000
PROPAGATION_TOL = 1e-8


@dataclass
class PropagationResult:
    """Pseudo-label distribution and per-sample confidence weights."""

    pseudo_probs: np.ndarray  # (n, C) row-stochastic
    weights: np.ndarray  # (n,) in [0, 1]


def _knn_weights(features: np.ndarray, k: int) -> sp.csr_matrix:
    """The kNN graph W before symmetrizing, for 1 <= k < n: row i holds the
    columns of point i's k nearest neighbours in ascending order, weighted by
    max(0, cosine similarity)^3, with a self edge weighted 0.

    The neighbours are found first, over a float64 copy of the features;
    that copy is then divided into unit rows in place, and the similarities
    gathered over the same row blocks, about geometry.BLOCK_BYTES of
    neighbour features at a time. So one n x d float64 array is held, no
    (n*k) x d copy is built, and the caller's features are left unchanged.
    """
    import scipy.sparse as sp

    X = np.array(features, dtype=np.float64)
    n = X.shape[0]
    cols = np.empty((n, k), dtype=np.int32)  # 2**31 points would not fit in memory
    blocks = []
    for rows, order, _ in _knn_blocks(X, k):
        order.sort(axis=1)
        cols[rows] = order
        blocks.append(rows)
    X /= np.maximum(np.sqrt(_sq_norms(X)), 1e-12)[:, None]
    sims = np.empty((n, k))
    step = max(1, geometry.BLOCK_BYTES // max(1, 8 * k * X.shape[1]))
    for rows in blocks:
        for start in range(rows.start, rows.stop, step):
            block = slice(start, min(start + step, rows.stop))
            sims[block] = np.einsum("ij,ikj->ik", X[block], X[cols[block]])
    sims[cols == np.arange(n)[:, None]] = 0.0  # no self loops
    np.maximum(sims, 0.0, out=sims)
    np.power(sims, 3, out=sims)
    return sp.csr_matrix((sims.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))


def build_knn_graph(features: np.ndarray, k: int = 500) -> sp.csr_matrix:
    """Symmetric normalized affinity S = D^{-1/2} A D^{-1/2}.

    Edge weights are max(0, cosine similarity)^3 over kNN edges, symmetrized
    by max, zero diagonal. k >= n clamps to n - 1; with fewer than two points
    (or k < 1) the graph has no edges. A k that is not an integer raises
    ValueError.

    The neighbours come a row block at a time from geometry's blocked
    distances, so no n x n matrix is built. A = max(W, W^T) is then built a
    block of rows at a time into arrays of exactly nnz(A) entries, W is
    dropped, and A is scaled in place. So beyond one block the build holds
    the kNN graph W and the result, about 1.6-1.75 times the result's bytes.
    """
    import scipy.sparse as sp

    check_integer("k", k)
    n = np.shape(features)[0]
    k = min(k, n - 1)
    if k < 1:
        return sp.csr_matrix((n, n))
    w = _knn_weights(features, k)
    # a block of s rows holds about 4 s k entries of 12 bytes: its rows of W,
    # its columns of W made rows, and the max's buffers for up to 2 s k
    a = _max_with_transpose(w, max(1, geometry.BLOCK_BYTES // (4 * 12 * k)))
    del w

    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    a.data *= np.repeat(inv_sqrt, np.diff(a.indptr))
    a.data *= inv_sqrt[a.indices]
    return a


def _max_with_transpose(w: sp.csr_matrix, step: int) -> sp.csr_matrix:
    """w.maximum(w.T) with the same arrays, built ``step`` rows at a time.

    Rows [r, r + step) of the max are w[r:r+step].maximum(w[:, r:r+step].T):
    scipy merges each row on its own, so a block keeps the entries, their
    order and the zeros dropped (edges of non-positive similarity) of the
    whole-matrix max. A first pass counts each block's entries; a second
    recomputes the blocks and copies them into exact-size arrays, so no
    buffer sized for nnz(W) + nnz(W^T) and no copy of W^T is ever held.
    """
    import scipy.sparse as sp

    n = w.shape[0]
    blocks = [slice(r, min(r + step, n)) for r in range(0, n, step)]

    def block(rows):
        return w[rows].maximum(w[:, rows].T)

    indptr = np.zeros(n + 1, dtype=np.int64)
    for rows in blocks:
        indptr[rows.start + 1 : rows.stop + 1] = np.diff(block(rows).indptr)
    np.cumsum(indptr, out=indptr)
    # scipy keeps int32 indices wherever their values fit
    indptr = indptr.astype(np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64)
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    data = np.empty(indptr[-1], dtype=w.data.dtype)
    for rows in blocks:
        part = block(rows)
        entries = slice(indptr[rows.start], indptr[rows.stop])
        indices[entries] = part.indices
        data[entries] = part.data
    return sp.csr_matrix((data, indices, indptr), shape=w.shape)


def label_propagate(s_matrix, labels_onehot: np.ndarray, alpha: float = 0.9) -> PropagationResult:
    """Diffuse seed labels to the fixpoint of F <- alpha S F + (1 - alpha) Y.

    That fixpoint solves (I - alpha S) F = (1 - alpha) Y, which conjugate
    gradients solve for all C class columns side by side from F = (1 - alpha) Y,
    one product with S per step. Every eigenvalue of I - alpha S is at least
    1 - alpha, so the solve stops once the largest column residual 2-norm over
    1 - alpha, a bound on every column's 2-norm error and so on
    max |F - F*|, falls below PROPAGATION_TOL (1e-8), or after
    PROPAGATION_MAX_ITERS (10,000) steps. Labeled rows (nonzero rows of Y)
    are clamped back to their one-hot labels afterward, rows are
    renormalized (all-zero rows become uniform), and weights are 1 - H/log(C).
    A non-finite entry in S or Y raises ValueError before any product.
    """
    import scipy.sparse as sp

    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    Y = np.asarray(labels_onehot, dtype=np.float64)
    c = Y.shape[1]
    labeled_mask = Y.sum(axis=1) > 0
    if not labeled_mask.any():
        raise ValueError("label propagation needs at least one labeled row")
    entries = s_matrix.data if sp.issparse(s_matrix) else np.asarray(s_matrix)
    if not (np.isfinite(entries).all() and np.isfinite(Y).all()):
        raise ValueError("label propagation needs a finite graph and finite labels")

    F = (1.0 - alpha) * Y
    r = s_matrix @ F  # the residual (1 - alpha) Y - (I - alpha S) F
    r *= alpha
    p = r.copy()
    rs = np.einsum("ij,ij->j", r, r)
    for _ in range(PROPAGATION_MAX_ITERS):
        if np.sqrt(rs.max()) / (1.0 - alpha) < PROPAGATION_TOL:
            break
        ap = s_matrix @ p
        ap *= -alpha
        ap += p
        # a column whose residual is already 0, such as a class with no seed,
        # has p = 0 and takes no step
        step = np.divide(rs, np.einsum("ij,ij->j", p, ap), out=np.zeros(c), where=rs > 0)
        F += step * p
        ap *= step
        r -= ap
        rs_next = np.einsum("ij,ij->j", r, r)
        beta = np.divide(rs_next, rs, out=np.zeros(c), where=rs > 0)
        rs = rs_next
        p *= beta
        p += r

    F[labeled_mask] = Y[labeled_mask]
    row_sums = F.sum(axis=1)
    F = np.where(row_sums[:, None] > 0, F / np.maximum(row_sums, 1e-300)[:, None], 1.0 / c)
    weights = np.clip(1.0 - score_entropy(F) / np.log(c), 0.0, 1.0)
    return PropagationResult(pseudo_probs=F, weights=weights)
