"""Workload inputs: Gaussian blobs written in alcove's on-disk dataset format.

The generator and the writer are the benchmark's own code, so the program
under test receives nothing but the files, read through ``load_dataset``.
The format follows ``alcove.dataset_io``: a ``dataset.json`` manifest, ``n*d``
little-endian float32 features, ``n`` little-endian uint32 labels, and JSON
lists of train and test indices that partition ``[0, n)``.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TEST_SHARE = 0.2


@dataclass
class Blobs:
    features: np.ndarray  # (n, d) float32
    labels: np.ndarray  # (n,) int64
    num_classes: int
    train: np.ndarray  # sorted int64
    test: np.ndarray  # sorted int64


def make_blobs(num_classes: int, per_class: int, dim: int, separation: float, seed: int) -> Blobs:
    """Unit-variance Gaussian blobs around randomly oriented class means.

    The means are ``separation`` times orthonormal directions, so every two
    of them sit exactly ``separation * sqrt(2)`` apart and only their
    orientation depends on the seed: datasets of different seeds are equally
    hard. Rows are shuffled so that classes do not come in blocks, and each
    class sends ``TEST_SHARE`` of its points to the test split.
    """
    if dim < num_classes:
        raise ValueError("orthonormal class means need dim >= num_classes")
    rng = np.random.default_rng([seed, num_classes, per_class, dim])
    directions, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
    means = separation * directions.T
    labels = rng.permutation(np.repeat(np.arange(num_classes), per_class))
    features = (means[labels] + rng.standard_normal((labels.size, dim))).astype(np.float32)

    n_test = int(round(TEST_SHARE * per_class))
    test = np.concatenate(
        [rng.permutation(np.flatnonzero(labels == c))[:n_test] for c in range(num_classes)]
    )
    is_test = np.zeros(labels.size, dtype=bool)
    is_test[test] = True
    return Blobs(
        features=features,
        labels=labels.astype(np.int64),
        num_classes=num_classes,
        train=np.flatnonzero(~is_test),
        test=np.flatnonzero(is_test),
    )


def write_dataset(blobs: Blobs, out_dir: Path) -> Path:
    """Write ``blobs`` in the manifest format and return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n, d = blobs.features.shape
    (out_dir / "features.bin").write_bytes(blobs.features.astype("<f4").tobytes())
    (out_dir / "labels.bin").write_bytes(blobs.labels.astype("<u4").tobytes())
    (out_dir / "train.json").write_text(json.dumps(blobs.train.tolist()))
    (out_dir / "test.json").write_text(json.dumps(blobs.test.tolist()))
    manifest = {
        "n": n,
        "d": d,
        "num_classes": blobs.num_classes,
        "dtype": "f32le",
        "features": "features.bin",
        "labels": "labels.bin",
        "train_indices": "train.json",
        "test_indices": "test.json",
    }
    path = out_dir / "dataset.json"
    path.write_text(json.dumps(manifest))
    return path
