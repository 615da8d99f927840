"""Cold-start selection of the initial labeled pool (no classifier yet)."""

import numpy as np

from .classifier import check_integer
from .geometry import _rows, kmeans, nearest_to_centroids


def _budget(b: int, pool) -> int:
    """min(b, len(pool)), the number of picks a budget of b allows from ``pool``;
    a b that is negative or not an integer raises ValueError."""
    check_integer("b", b)
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    return min(b, len(pool))


def random_init(train_indices, b: int, seed: int) -> np.ndarray:
    """Uniform sample of b train indices without replacement."""
    train_indices = np.asarray(train_indices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(train_indices, size=_budget(b, train_indices), replace=False)


def _pad(picked: np.ndarray, fallback: np.ndarray, b: int) -> np.ndarray:
    """``picked``, then the ``fallback`` indices not yet picked, in order, up to b in all."""
    if len(picked) >= b:
        return picked
    rest = fallback[~np.isin(fallback, picked)]
    return np.concatenate([picked, rest[: b - len(picked)]])


def centroid_init(features: np.ndarray, train_indices, b: int, seed: int) -> np.ndarray:
    """Points nearest the centroids of a min(b, |train|)-means over the train split.

    Coinciding points can leave clusters empty; the picks are then padded to
    min(b, |train|) with the train indices not yet picked, in index order.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    X = _rows(features, train_indices)
    b_eff = _budget(b, train_indices)
    picked = train_indices[nearest_to_centroids(X, kmeans(X, b_eff, seed))]
    return _pad(picked, np.sort(train_indices), b_eff)
