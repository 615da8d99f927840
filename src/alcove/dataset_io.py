"""Embedding dataset container, on-disk format, and synthetic generation.

On-disk layout is a JSON manifest next to raw binary arrays:

    dataset.json   {"n": .., "d": .., "num_classes": .., "dtype": "f32le",
                    "features": "features.bin", "labels": "labels.bin",
                    "train_indices": "train.json", "test_indices": "test.json"}
    features.bin   n*d little-endian float32, row-major
    labels.bin     n little-endian uint32
    train.json     JSON array of ints (likewise test.json)

The format is deliberately framework-free so any embedding-extraction
script can emit it.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST_NAME = "dataset.json"
MANIFEST_KEYS = ("n", "d", "num_classes", "dtype", "features", "labels", "train_indices", "test_indices")


@dataclass(eq=False)
class EmbeddingDataset:
    """An N x d feature matrix with hidden labels and a train/test split.

    Immutable after construction: ``run_al`` and ``run_bench`` cache what
    they derive from it (float64 features, kNN graph, cold starts, round-1
    heads) per object, so an in-place edit of its arrays is not seen.
    Equality and hashing are by identity.
    """

    features: np.ndarray  # (n, d) float32
    labels: np.ndarray  # (n,) int
    num_classes: int
    train_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    test_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        """Raise ValueError on any broken invariant."""
        n = self.n
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if self.labels.shape != (n,):
            raise ValueError(f"labels length {self.labels.shape} does not match n={n}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range [0, num_classes)")
        union = np.concatenate([self.train_indices, self.test_indices])
        if len(np.unique(union)) != len(union):
            raise ValueError("train/test indices overlap or contain duplicates")
        if len(union) != n or (n and (union.min() != 0 or union.max() != n - 1)):
            raise ValueError("train/test indices must cover [0, n) exactly")
        train_classes = set(self.labels[self.train_indices].tolist())
        missing = set(range(self.num_classes)) - train_classes
        if missing:
            raise ValueError(f"classes absent from the train split: {sorted(missing)}")


def load_dataset(manifest_path) -> EmbeddingDataset:
    """Load a dataset from its manifest, validating sizes and invariants."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    manifest = _read_json(manifest_path, str(manifest_path))
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: the manifest must be a JSON object")
    for key in MANIFEST_KEYS:
        if key not in manifest:
            raise ValueError(f"{manifest_path}: the manifest has no {key!r} key")
    for key in ("n", "d", "num_classes"):
        if not _is_int(manifest[key]):
            raise ValueError(f"{manifest_path}: {key!r} must be an integer, got {manifest[key]!r}")
    for key in ("n", "d"):
        if manifest[key] < 1:
            raise ValueError(f"{manifest_path}: {key!r} must be at least 1, got {manifest[key]!r}")

    n, d, num_classes = manifest["n"], manifest["d"], manifest["num_classes"]
    if manifest["dtype"] != "f32le":
        raise ValueError(f"unsupported dtype {manifest['dtype']!r}, expected 'f32le'")
    base = manifest_path.parent

    feat_path = base / manifest["features"]
    if not feat_path.exists():
        raise FileNotFoundError(f"feature file not found: {feat_path}")
    feat_bytes = feat_path.read_bytes()
    if len(feat_bytes) != n * d * 4:
        raise ValueError(
            f"feature file holds {len(feat_bytes)} bytes, expected {n * d * 4} for n={n}, d={d}"
        )
    features = np.frombuffer(feat_bytes, dtype="<f4").reshape(n, d)

    label_path = base / manifest["labels"]
    if not label_path.exists():
        raise FileNotFoundError(f"label file not found: {label_path}")
    label_bytes = label_path.read_bytes()
    if len(label_bytes) != n * 4:
        raise ValueError(f"label file holds {len(label_bytes)} bytes, expected {n * 4}")
    labels = np.frombuffer(label_bytes, dtype="<u4").astype(np.int64)

    train_indices, test_indices = (
        _index_file(base / manifest[key], key) for key in ("train_indices", "test_indices")
    )
    ds = EmbeddingDataset(features, labels, num_classes, train_indices, test_indices)
    ds.validate()
    return ds


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_json(path: Path, where: str):
    """The JSON value in ``path``; a file that does not parse raises a ValueError naming ``where``."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not valid JSON: {exc}") from exc


def _index_file(path: Path, key: str) -> np.ndarray:
    """The JSON array of integers in ``path``, the manifest's ``key`` file."""
    values = _read_json(path, f"{path} ({key})")
    if not isinstance(values, list) or not all(_is_int(v) for v in values):
        raise ValueError(f"{path} ({key}): expected a JSON array of integers")
    return np.asarray(values, dtype=np.int64)


def save_dataset(dataset: EmbeddingDataset, out_dir, force: bool = False) -> Path:
    """Write a dataset under ``out_dir`` and return the manifest path.

    Refuses to clobber an existing manifest unless ``force`` is set.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise FileExistsError(f"{manifest_path} already exists (pass force=True to overwrite)")
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / "features.bin").write_bytes(
        np.ascontiguousarray(dataset.features, dtype="<f4").tobytes()
    )
    (out_dir / "labels.bin").write_bytes(
        np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes()
    )
    with open(out_dir / "train.json", "w") as f:
        json.dump([int(i) for i in dataset.train_indices], f)
    with open(out_dir / "test.json", "w") as f:
        json.dump([int(i) for i in dataset.test_indices], f)

    manifest = {
        "n": dataset.n,
        "d": dataset.dim,
        "num_classes": dataset.num_classes,
        "dtype": "f32le",
        "features": "features.bin",
        "labels": "labels.bin",
        "train_indices": "train.json",
        "test_indices": "test.json",
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest_path


def generate_synthetic(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: int,
) -> EmbeddingDataset:
    """Sample isotropic unit-variance Gaussian blobs with a stratified split.

    Class c is centered at ``separation * e_c`` (the c-th coordinate axis),
    so any two means sit at distance separation * sqrt(2) >= separation.
    Roughly 20% of each class (rounded) goes to the test split.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if per_class < 3:
        raise ValueError("per_class must be >= 3, so that round(0.2 * per_class) >= 1 test point per class")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes to place one blob per axis")
    if separation < 0:
        raise ValueError("separation must be non-negative")

    rng = np.random.default_rng(seed)
    feats = np.empty((num_classes * per_class, dim), dtype=np.float64)
    labels = np.repeat(np.arange(num_classes), per_class)
    for c in range(num_classes):
        block = rng.standard_normal((per_class, dim))
        block[:, c] += separation
        feats[c * per_class : (c + 1) * per_class] = block

    train_idx, test_idx = [], []
    n_test = int(round(0.2 * per_class))
    for c in range(num_classes):
        members = np.arange(c * per_class, (c + 1) * per_class)
        perm = rng.permutation(per_class)
        test_idx.extend(members[perm[:n_test]].tolist())
        train_idx.extend(members[perm[n_test:]].tolist())

    ds = EmbeddingDataset(
        features=feats.astype(np.float32),
        labels=labels,
        num_classes=num_classes,
        train_indices=np.sort(train_idx),
        test_indices=np.sort(test_idx),
    )
    ds.validate()
    return ds
