"""Cold-start selection of the initial labeled pool (no classifier yet)."""

import numpy as np

from .geometry import kmeans, nearest_to_centroids, pairwise_sq_dist


def random_init(train_indices, b: int, seed: int) -> np.ndarray:
    """Uniform sample of b train indices without replacement."""
    train_indices = np.asarray(train_indices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(train_indices, size=min(b, len(train_indices)), replace=False)


def centroid_init(features: np.ndarray, train_indices, b: int, seed: int) -> np.ndarray:
    """Points nearest the centroids of a b-cluster k-means over the train split.

    If an empty cluster leaves fewer than b picks, the largest clusters donate
    their next-nearest members.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    X = np.asarray(features, dtype=np.float64)[train_indices]
    b_eff = min(b, len(train_indices))
    cl = kmeans(X, b_eff, seed)
    picks = nearest_to_centroids(X, cl).tolist()

    if len(picks) < b_eff:
        sizes = np.bincount(cl.assignments, minlength=b_eff)
        order = np.lexsort((np.arange(b_eff), -sizes))
        chosen = set(picks)
        for cid in order:
            if len(picks) == b_eff:
                break
            members = np.flatnonzero(cl.assignments == cid)
            if members.size == 0:
                continue
            d2 = pairwise_sq_dist(X[members], cl.centroids[cid : cid + 1])[:, 0]
            for pos in members[np.lexsort((members, d2))]:
                if int(pos) not in chosen:
                    picks.append(int(pos))
                    chosen.add(int(pos))
                    break
    return train_indices[np.asarray(picks, dtype=np.int64)]
