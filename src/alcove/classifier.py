"""Regularized linear head on frozen features.

Training is full-batch AdamW on (optionally sample-weighted) softmax
cross-entropy with input-feature dropout. The pool sizes in the low-budget
regime are tiny, so full-batch keeps every run deterministic and cheap.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# bytes of float32 dropout draws a batched fit holds at once
MASK_BLOCK_BYTES = 4 << 20


class TrainingDiverged(RuntimeError):
    """Raised when the training loss goes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Hyperparameters for the linear head.

    Optimizer settings follow the benchmark protocol. The epoch count is
    high enough that the low-budget models actually fit their few labels;
    anything much shorter leaves the logits too flat for uncertainty
    queries to carry signal.
    """

    learning_rate: float = 1e-2
    weight_decay: float = 1e-2
    dropout_rho: float = 0.75
    epochs: int = 500

    def __post_init__(self):
        if not 0.0 <= self.dropout_rho < 1.0:
            raise ValueError(f"dropout_rho must be in [0, 1), got {self.dropout_rho}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class LinearClassifier:
    """Trained linear head g(z) = softmax(W z + b) and its training dropout ratio."""

    weights: np.ndarray  # (C, d)
    bias: np.ndarray  # (C,)
    dropout_rho: float = TrainConfig.dropout_rho

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def zero_classifier(num_classes: int, dim: int, dropout_rho: float) -> LinearClassifier:
    """Untrained placeholder: zero weights, uniform predictions everywhere."""
    return LinearClassifier(np.zeros((num_classes, dim)), np.zeros(num_classes), dropout_rho)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``logits``, which it returns."""
    # the row max, taken over a class-major copy: same values, far fewer strided reductions
    logits -= logits.swapaxes(-1, -2).copy().max(axis=-2)[..., None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def train(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    config: TrainConfig,
    seed: int,
    sample_weights=None,
) -> LinearClassifier:
    """Fit the linear head with full-batch AdamW from zero initialization.

    Each epoch draws a fresh Bernoulli(1 - rho) keep-mask over the feature
    matrix (kept entries scaled by 1/(1 - rho)), rho = ``config.dropout_rho``,
    which the classifier keeps. ``sample_weights`` (None: all equal) are
    normalized to sum to 1. Classes absent from ``labels`` simply receive no
    positive gradient. Deterministic in seed. This is ``train_batch`` over
    one cell: it fits or raises as that does.
    """
    X = np.asarray(features, dtype=np.float64)[None]
    y = np.asarray(labels, dtype=np.int64)[None]
    return train_batch(X, y, num_classes, config, [seed], [sample_weights])[0]


def _normalized_weights(sample_weights, n: int) -> np.ndarray:
    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"sample_weights must be {n} finite, non-negative values, one per row")
    total = w.sum()
    return w / total if total > 0 else w


def train_batch(
    features,
    labels,
    num_classes: int,
    config: TrainConfig,
    seeds,
    sample_weights=None,
) -> list:
    """``train`` over K cells of one shape, fit side by side; K ``LinearClassifier``s.

    ``features`` holds K (n, d) matrices, ``labels`` K label vectors,
    ``seeds`` K seeds and ``sample_weights`` (None: all equal) K weight
    vectors, each of which may be None. The whole batch is checked before
    any training: ``labels`` must be shaped (K, n) with every label in
    [0, num_classes), ``seeds`` and a given ``sample_weights`` must hold one
    entry per cell, and each weight vector must be valid, else
    ``ValueError``. ``TrainingDiverged`` is raised at the first epoch whose
    loss is non-finite in any cell, or after the last if any parameter is.
    Cells do not interact, so each head is bit-identical to its solo fit,
    and a batch holding one bad cell raises what that cell's ``train`` does.

    Cells with one seed share one mask stream. Each distinct seed's
    default_rng draws into a shared float32 buffer, ``MASK_BLOCK_BYTES``
    worth of epochs at a time, and each draw is compared against rho once
    for all of its cells; one draw of E epochs gives the same masks as E
    draws of one. The hot loop works on a parameter matrix per cell with
    the bias folded in as a constant-1 column; the math matches the
    reference loss and gradient ``cross_entropy_loss_and_grad`` in
    ``tests/oracles.py``.
    """
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.int64)
    k_cells, n, d = X.shape
    if Y.shape != (k_cells, n):
        raise ValueError(f"labels must hold one row of {n} per cell: shape {(k_cells, n)}, got {Y.shape}")
    if sample_weights is None:
        sample_weights = [None] * k_cells
    for name, given in (("seeds", seeds), ("sample_weights", sample_weights)):
        if len(given) != k_cells:
            raise ValueError(f"{name} must hold one entry per cell: {k_cells}, got {len(given)}")
    outside = Y[(Y < 0) | (Y >= num_classes)]
    if outside.size:
        raise ValueError(f"labels must lie in [0, {num_classes}), got {outside[0]}")
    wn = np.zeros((k_cells, n))
    for k, w in enumerate(sample_weights):
        wn[k] = _normalized_weights(w, n)
    rho = config.dropout_rho
    # stream[k]: the index of cell k's seed among the distinct seeds, in first-seen order
    first = {}
    stream = np.array([first.setdefault(seed, len(first)) for seed in seeds])
    rngs = [np.random.default_rng(seed) for seed in first]
    # one stream's (n, d) mask broadcasts over every cell, one stream per cell is
    # a view, and only a mix is gathered cell by cell
    at = 0 if len(rngs) == 1 else slice(None) if len(rngs) == k_cells else stream
    tiny = np.finfo(np.float64).tiny

    X_scaled = X / (1.0 - rho)
    aug = np.ones((k_cells, n, d + 1))
    params = np.zeros((k_cells, num_classes, d + 1))
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    lr, wd = config.learning_rate, config.weight_decay
    block = min(config.epochs, max(1, MASK_BLOCK_BYTES // max(1, 4 * len(rngs) * n * d)))
    buf = np.empty((len(rngs), block, n, d), dtype=np.float32)
    keep = np.empty(buf.shape, dtype=bool)
    # flat position of each row's label in the (K, n, C) probability stack
    hit = np.arange(k_cells * n).reshape(k_cells, n) * num_classes + Y

    for epoch in range(1, config.epochs + 1):
        e = (epoch - 1) % block
        if e == 0:
            for rng, out in zip(rngs, buf):
                rng.random(dtype=np.float32, out=out[: min(block, config.epochs - epoch + 1)])
            np.greater_equal(buf, rho, out=keep)
        np.multiply(X_scaled, keep[at, e], out=aug[:, :, :d])
        probs = _softmax(aug @ params.transpose(0, 2, 1))
        flat = probs.reshape(-1)
        loss = -np.einsum("kn,kn->k", wn, np.log(np.maximum(flat[hit], tiny)))
        if not np.all(np.isfinite(loss)):
            raise TrainingDiverged(epoch)

        flat[hit] -= 1.0
        probs *= wn[:, :, None]
        grad = probs.transpose(0, 2, 1) @ aug
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        step = (m / (1.0 - ADAM_BETA1**epoch)) / (
            np.sqrt(v / (1.0 - ADAM_BETA2**epoch)) + ADAM_EPS
        )
        params -= lr * step + lr * wd * params

    if not np.all(np.isfinite(params)):
        raise TrainingDiverged(config.epochs)
    return [LinearClassifier(p[:, :d].copy(), p[:, d].copy(), rho) for p in params]


def predict_proba(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, one row per input point."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.dim:
        raise ValueError(f"expected features of width {clf.dim}, got shape {X.shape}")
    return _softmax(X @ clf.weights.T + clf.bias)


def _dropout_pass(clf: LinearClassifier, X: np.ndarray, rng, buf: np.ndarray) -> np.ndarray:
    """One pass's probabilities; the mask is drawn, applied and scaled in ``buf``."""
    rng.random(out=buf)
    np.greater_equal(buf, clf.dropout_rho, out=buf)
    buf *= X
    buf /= 1.0 - clf.dropout_rho
    return _softmax(buf @ clf.weights.T + clf.bias)


def mc_dropout_passes(
    clf: LinearClassifier,
    features: np.ndarray,
    samples: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """The (n, C) probabilities of ``samples`` feature-dropout passes, yielded one at a time.

    The ratio rho is the one the classifier was trained with, ``clf.dropout_rho``.
    Pass s keeps the entries where the s-th (n, d) draw of default_rng(seed).random
    is >= rho, scaled by 1/(1 - rho); drawing per pass gives the same stream as
    one random((samples, n, d)) draw. Every pass draws into, masks and scales
    one reused n x d buffer, so iterating holds n*d floats plus the current
    pass. rho=0 keeps every entry, reproducing predict_proba exactly. Bad
    features or a bad ratio raise here, before any pass.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.dim:
        raise ValueError(f"expected features of width {clf.dim}, got shape {X.shape}")
    rho = clf.dropout_rho
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the classifier's dropout_rho must be in [0, 1), got {rho}")
    rng = np.random.default_rng(seed)
    buf = np.empty(X.shape)
    return (_dropout_pass(clf, X, rng, buf) for _ in range(samples))


def mc_dropout_proba(
    clf: LinearClassifier,
    features: np.ndarray,
    samples: int,
    seed: int,
) -> np.ndarray:
    """``mc_dropout_passes`` stacked into one (samples, n, C) array.

    Callers that only reduce over the passes iterate ``mc_dropout_passes``
    instead and never hold the stack.
    """
    X = np.asarray(features, dtype=np.float64)
    passes = mc_dropout_passes(clf, X, samples, seed)
    out = np.empty((samples, X.shape[0], clf.num_classes))
    for s, probs in enumerate(passes):
        out[s] = probs
    return out


def evaluate(clf: LinearClassifier, dataset) -> float:
    """Accuracy of argmax predictions on the dataset's test split."""
    if len(dataset.test_indices) == 0:
        raise ValueError("dataset has an empty test split")
    probs = predict_proba(clf, dataset.features[dataset.test_indices])
    preds = np.argmax(probs, axis=1)
    return float(np.mean(preds == dataset.labels[dataset.test_indices]))
