"""Regularized linear head on frozen features.

Training is full-batch AdamW on (optionally sample-weighted) softmax
cross-entropy with input-feature dropout. The pool sizes in the low-budget
regime are tiny, so full-batch keeps every run deterministic and cheap.
"""

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    positive gradient. Deterministic in seed.

    The hot loop works on a parameter matrix with the bias folded in as a
    constant-1 column; the math matches the reference loss and gradient
    ``cross_entropy_loss_and_grad`` in ``tests/oracles.py``.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, d = X.shape
    rho = config.dropout_rho
    rng = np.random.default_rng(seed)

    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"sample_weights must be {n} finite, non-negative values, one per row")
    total = w.sum()
    wn = w / total if total > 0 else w
    gather = (np.arange(n), y)
    tiny = np.finfo(np.float64).tiny

    X_scaled = X / (1.0 - rho)
    aug = np.ones((n, d + 1))
    params = np.zeros((num_classes, d + 1))
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    lr, wd = config.learning_rate, config.weight_decay

    for epoch in range(1, config.epochs + 1):
        mask = rng.random((n, d), dtype=np.float32) >= rho
        np.multiply(X_scaled, mask, out=aug[:, :d])
        probs = aug @ params.T
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = -float(wn @ np.log(np.maximum(probs[gather], tiny)))
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch)

        probs[gather] -= 1.0
        probs *= wn[:, None]
        grad = probs.T @ aug
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
    return LinearClassifier(params[:, :d].copy(), params[:, d].copy(), rho)


def predict_proba(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, one row per input point."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.dim:
        raise ValueError(f"expected features of width {clf.dim}, got shape {X.shape}")
    return _softmax(X @ clf.weights.T + clf.bias)


def mc_dropout_proba(
    clf: LinearClassifier,
    features: np.ndarray,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Stacked probabilities under ``samples`` independent feature-dropout passes.

    The ratio rho is the one the classifier was trained with, ``clf.dropout_rho``.
    Pass s keeps the entries where the s-th (n, d) draw of default_rng(seed).random
    is >= rho, scaled by 1/(1 - rho); drawing per pass gives the same stream as
    one random((samples, n, d)) draw, at n*d memory. Returns an array of shape
    (samples, n, C). rho=0 keeps every entry, reproducing predict_proba exactly.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != clf.dim:
        raise ValueError(f"expected features of width {clf.dim}, got shape {X.shape}")
    rho = clf.dropout_rho
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the classifier's dropout_rho must be in [0, 1), got {rho}")
    rng = np.random.default_rng(seed)
    out = np.empty((samples, X.shape[0], clf.num_classes))
    for s in range(samples):
        dropped = X * (rng.random(X.shape) >= rho) / (1.0 - rho)
        out[s] = _softmax(dropped @ clf.weights.T + clf.bias)
    return out


def evaluate(clf: LinearClassifier, dataset) -> float:
    """Accuracy of argmax predictions on the dataset's test split."""
    if len(dataset.test_indices) == 0:
        raise ValueError("dataset has an empty test split")
    probs = predict_proba(clf, dataset.features[dataset.test_indices])
    preds = np.argmax(probs, axis=1)
    return float(np.mean(preds == dataset.labels[dataset.test_indices]))
