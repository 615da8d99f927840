"""Active-learning simulation loop: init pool, then train / evaluate / query /
reveal for T iterations, across seeds and strategies.

Every source of randomness is a stream derived from (run seed, purpose tag),
so two runs of the same cell are bit-identical and adding a strategy never
perturbs another's draws. Labels stay hidden behind an auditing oracle until
explicitly queried.
"""

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .classifier import TrainConfig, evaluate, train, zero_classifier
from .dataset_io import EmbeddingDataset
from .initpool import centroid_init, random_init
from .rng import derive_seed
from .semisup import build_knn_graph, label_propagate
from .strategies import QuerySpec, estimate_delta, query

DEFAULT_SEEDS = (1, 10, 100, 1000, 10000)
INIT_MODES = ("random", "centroid", "own")


@dataclass
class RunConfig:
    """One benchmark cell's settings (defaults follow the 20x5 protocol, B = C)."""

    strategy: QuerySpec
    iterations: int = 20
    seeds: tuple = DEFAULT_SEEDS
    budget: Optional[int] = None  # None: one label per class per iteration
    init: str = "random"  # random | centroid | own
    train: TrainConfig = field(default_factory=TrainConfig)
    semisupervised: bool = False

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be None or >= 1, got {self.budget}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r} (expected {'|'.join(INIT_MODES)})")


@dataclass
class IterationRow:
    iteration: int
    labeled_count: int
    accuracy: float
    candidate_fraction: Optional[float] = None
    wall_time: float = 0.0
    truncated: bool = False


@dataclass
class RunRecord:
    strategy: str
    seed: int
    rows: list = field(default_factory=list)
    oracle_accesses: int = 0


@dataclass
class BenchResult:
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (strategy_id, seed, message)


class LabelOracle:
    """Reveals hidden train labels on request, auditing every access."""

    def __init__(self, labels: np.ndarray, train_indices: np.ndarray):
        self._labels = np.asarray(labels, dtype=np.int64)
        self._allowed = set(np.asarray(train_indices, dtype=np.int64).tolist())
        self._revealed = set()
        self.access_count = 0

    def reveal(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        for i in indices.tolist():
            if i not in self._allowed:
                raise KeyError(f"index {i} is not in the train pool")
            if i in self._revealed:
                raise RuntimeError(f"index {i} was already queried")
            self._revealed.add(i)
        self.access_count += len(indices)
        return self._labels[indices]


def _select_initial_pool(dataset, feats, train_sorted, config, b, seed, delta):
    init_seed = derive_seed(seed, "init")
    if config.init == "random":
        return random_init(train_sorted, b, init_seed)
    if config.init == "centroid":
        return centroid_init(feats, train_sorted, b, init_seed)
    clf = zero_classifier(dataset.num_classes, dataset.dim, config.train)
    res = query(
        config.strategy,
        feats,
        clf,
        labeled=np.empty(0, dtype=np.int64),
        labeled_labels=np.empty(0, dtype=np.int64),
        unlabeled=train_sorted,
        b=b,
        seed=init_seed,
        delta=delta,
    )
    return res.selected


def run_al(dataset: EmbeddingDataset, config: RunConfig, seed: int) -> RunRecord:
    """Simulate one (strategy, seed) active-learning trajectory.

    Row t reports the model trained on |initial| + (t-1)*B labels, evaluated
    before that iteration's query. If the pool empties before T rounds the
    final row is flagged truncated and the record stops there.
    """
    b = config.budget or dataset.num_classes
    feats = np.asarray(dataset.features, dtype=np.float64)
    train_sorted = np.sort(dataset.train_indices)
    oracle = LabelOracle(dataset.labels, train_sorted)

    delta = None
    if config.strategy.kind == "probcover":
        delta = estimate_delta(
            feats[train_sorted],
            dataset.num_classes,
            config.strategy.probcover_purity,
            derive_seed(seed, "probcover/delta"),
        )

    # the label of each sorted train point, -1 while unlabeled
    y = np.full(len(train_sorted), -1, dtype=np.int64)

    def reveal(indices):
        y[np.searchsorted(train_sorted, indices)] = oracle.reveal(indices)

    reveal(_select_initial_pool(dataset, feats, train_sorted, config, b, seed, delta))

    if config.semisupervised:
        pool_x = feats[train_sorted]
        graph = build_knn_graph(pool_x)

    record = RunRecord(strategy=config.strategy.strategy_id(), seed=seed)
    for t in range(1, config.iterations + 1):
        t0 = time.perf_counter()
        is_labeled = y >= 0
        labeled, labeled_y = train_sorted[is_labeled], y[is_labeled]
        unlabeled = train_sorted[~is_labeled]
        if config.semisupervised:
            y_onehot = (y[:, None] == np.arange(dataset.num_classes)).astype(np.float64)
            prop = label_propagate(graph, y_onehot)
            train_x = pool_x
            train_y = np.argmax(prop.pseudo_probs, axis=1)
            train_cfg = replace(config.train, sample_weights=prop.weights)
        else:
            train_x = feats[labeled]
            train_y = labeled_y
            train_cfg = replace(config.train, sample_weights=None)
        clf = train(train_x, train_y, dataset.num_classes, train_cfg, derive_seed(seed, f"train/{t}"))
        acc = evaluate(clf, dataset)

        if len(unlabeled) == 0:
            record.rows.append(
                IterationRow(t, len(labeled), acc, wall_time=time.perf_counter() - t0, truncated=True)
            )
            break

        res = query(
            config.strategy,
            feats,
            clf,
            labeled=labeled,
            labeled_labels=labeled_y,
            unlabeled=unlabeled,
            b=b,
            seed=derive_seed(seed, f"query/{t}"),
            delta=delta,
        )
        reveal(res.selected)
        record.rows.append(
            IterationRow(
                t,
                len(labeled),
                acc,
                candidate_fraction=res.candidate_fraction,
                wall_time=time.perf_counter() - t0,
            )
        )

    record.oracle_accesses = oracle.access_count
    return record


def run_bench(dataset: EmbeddingDataset, strategies, config: RunConfig) -> BenchResult:
    """Run the full strategies x seeds grid, one cell after another.

    A failing cell is reported without aborting the rest. Records come back
    sorted by (strategy, seed).
    """
    result = BenchResult()
    for spec in strategies:
        for s in config.seeds:
            try:
                result.records.append(run_al(dataset, replace(config, strategy=spec), s))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                result.failures.append((spec.strategy_id(), s, f"{type(exc).__name__}: {exc}"))
    result.records.sort(key=lambda r: (r.strategy, r.seed))
    return result
