"""Active-learning simulation loop: init pool, then train / evaluate / query /
reveal for T iterations, across seeds and strategies.

Every source of randomness is a stream derived from (run seed, purpose tag),
so two runs of the same cell are bit-identical and adding a strategy never
perturbs another's draws. Labels stay hidden behind an auditing oracle until
explicitly queried.

A cell is one (strategy, seed) trajectory. ``start`` sets it up and each
round is cut at its fit: ``training_inputs`` gives what to train on, and
``finish_round`` evaluates the fitted head, queries and reveals. ``run_al``
drives one cell; ``run_bench`` drives a grid's cells in lockstep and fits
each round's heads together with ``train_batch``, which fits or raises. A
batch that raises falls back to ``run_al``'s step, one solo fit per cell, so
only the harness isolates a failing cell: it reports its solo error and the
others keep their bits. Both read what no run changes (the sorted pool, the
kNN graph, the cold starts and the heads fit on them) from ``grid_inputs``,
built once per dataset object. No copy of the features is kept: each use
casts only the rows it gathers. A round-1 head depends on the cold start,
the seed and the fit settings but not on the strategy, so ``start`` fits it
(and, semisupervised, propagates once) next to the random or centroid cold
start it is fit on, and hands it to every cell that shares them. A cell's
strategy state comes from ``strategies.prepare`` once, in ``start``, and
goes to each of its queries; the harness never looks at a strategy's kind.
"""

import weakref
from collections import defaultdict
from dataclasses import astuple, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .classifier import (
    LinearClassifier,
    TrainConfig,
    check_integer,
    evaluate,
    train,
    train_batch,
    zero_classifier,
)
from .dataset_io import EmbeddingDataset
from .initpool import centroid_init, random_init
from .rng import derive_seed
from .semisup import build_knn_graph, label_propagate
from .strategies import QuerySpec, prepare, query

DEFAULT_SEEDS = (1, 10, 100, 1000, 10000)
INIT_MODES = ("random", "centroid", "own")


@dataclass
class RunConfig:
    """One (strategy, settings) cell; run_al takes the seed (defaults: 20 iterations, B = C)."""

    strategy: QuerySpec
    iterations: int = 20
    budget: Optional[int] = None  # None: one label per class per iteration
    init: str = "random"  # random | centroid | own
    train: TrainConfig = field(default_factory=TrainConfig)
    semisupervised: bool = False

    def __post_init__(self):
        if not isinstance(self.strategy, QuerySpec):
            raise ValueError(f"strategy must be a QuerySpec, got {self.strategy!r}")
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        if self.budget is not None:
            check_integer("budget", self.budget)
            if self.budget < 1:
                raise ValueError(f"budget must be None or >= 1, got {self.budget}")
        check_integer("iterations", self.iterations)
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r} (expected {'|'.join(INIT_MODES)})")


# the most bytes one batched fit of a grid round may hold, which bounds the
# memory of one train_batch call; a cell's share is taken as 32 bytes (four
# float64 copies) per value of its n x (d + 1 + C) inputs. The fit's loop
# holds float32 copies, so this overestimates a cell. Grouping changes no
# head: each batched head equals its solo fit bit for bit.
FIT_BATCH_BYTES = 16 << 20


@dataclass
class IterationRow:
    iteration: int
    labeled_count: int
    accuracy: float
    candidate_fraction: Optional[float] = None


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
        # 0: not in the train pool, 1: hidden, 2: revealed
        self._state = np.zeros(len(self._labels), dtype=np.int8)
        self._state[np.asarray(train_indices, dtype=np.int64)] = 1
        self.access_count = 0

    def reveal(self, indices) -> np.ndarray:
        """The labels at ``indices``; the whole request is checked before any is revealed."""
        indices = np.asarray(indices, dtype=np.int64)
        state = self._state
        seen = set()
        for i in indices.tolist():
            if not 0 <= i < len(state) or state[i] == 0:
                raise KeyError(f"index {i} is not in the train pool")
            if state[i] == 2 or i in seen:
                raise RuntimeError(f"index {i} was already queried")
            seen.add(i)
        state[indices] = 2
        self.access_count += len(indices)
        return self._labels[indices]


@dataclass
class GridInputs:
    """What the cells on one dataset share and only read, besides ``dataset.features``.

    ``start`` adds the kNN graph when the first semisupervised cell starts,
    and a random or centroid cold start when the first cell with its
    (init, B, seed) starts: neither depends on anything else. It then fits
    the round-1 head on that cold start and adds it, read-only, unless the
    fit fails: one C x (d + 1) head per (init, B, seed, ``TrainConfig``,
    semisupervised).
    """

    pool: np.ndarray  # the train indices, sorted
    graph: object = None  # kNN graph over dataset.features[pool]
    cold_starts: dict = field(default_factory=dict)  # (init, B, seed) -> initial pool
    heads: dict = field(default_factory=dict)  # (init, B, seed, fit, semisup) -> round-1 head


# one GridInputs per live dataset object; an entry goes with its dataset
_GRID_INPUTS = weakref.WeakKeyDictionary()


def grid_inputs(dataset: EmbeddingDataset) -> GridInputs:
    """The dataset's shared inputs, built on first use and kept while it lives."""
    inputs = _GRID_INPUTS.get(dataset)
    if inputs is None:
        inputs = _GRID_INPUTS[dataset] = GridInputs(_read_only(np.sort(dataset.train_indices)))
    return inputs


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, locked: every later run on the dataset reads it, so a write must fail."""
    a.flags.writeable = False
    return a


@dataclass
class Cell:
    """One (strategy, seed) trajectory between rounds."""

    dataset: EmbeddingDataset
    config: RunConfig
    inputs: GridInputs
    b: int
    oracle: LabelOracle
    labels: np.ndarray  # the label of each pool point, -1 while unlabeled
    state: object  # the strategy's per-cell state from ``prepare``, or None
    record: RunRecord
    iteration: int = 1
    done: bool = False
    head: Optional[LinearClassifier] = None  # this round's head once fit, by ``start`` or a batch

    def reveal(self, indices):
        self.labels[np.searchsorted(self.inputs.pool, indices)] = self.oracle.reveal(indices)
        self.record.oracle_accesses = self.oracle.access_count

    def fit_rows(self) -> int:
        """Rows of this round's fit: the labeled points, or the whole pool if semisupervised."""
        if self.config.semisupervised:
            return len(self.labels)
        return int(np.count_nonzero(self.labels >= 0))

    def split(self):
        """(labeled indices, their labels, unlabeled indices), all in pool order."""
        is_labeled = self.labels >= 0
        pool = self.inputs.pool
        return pool[is_labeled], self.labels[is_labeled], pool[~is_labeled]


class Fit(NamedTuple):
    """One round's training inputs for ``train``."""

    features: np.ndarray
    labels: np.ndarray
    seed: int
    weights: Optional[np.ndarray]


def start(dataset: EmbeddingDataset, config: RunConfig, seed: int) -> Cell:
    """Set up one cell on the dataset's shared ``grid_inputs`` and reveal its initial pool.

    The strategy's per-cell state is prepared here, before any query, so an
    ``own`` init query reads it too. From a random or centroid cold start
    the cell also takes the round-1 head shared under it, fit here on first
    use; a failed fit raises and is not kept.
    """
    inputs = grid_inputs(dataset)
    if config.semisupervised and inputs.graph is None:
        inputs.graph = build_knn_graph(dataset.features[inputs.pool])
    b = config.budget or dataset.num_classes
    cell = Cell(
        dataset,
        config,
        inputs,
        b,
        LabelOracle(dataset.labels, inputs.pool),
        np.full(len(inputs.pool), -1, dtype=np.int64),
        prepare(config.strategy, dataset.features, inputs.pool, dataset.num_classes, seed),
        RunRecord(strategy=config.strategy.strategy_id(), seed=seed),
    )
    if config.init == "own":
        clf = zero_classifier(dataset.num_classes, dataset.dim, config.train.dropout_rho)
        _query(cell, clf, derive_seed(seed, "init"))
        return cell
    key = (config.init, b, seed)
    if key not in inputs.cold_starts:
        init_seed = derive_seed(seed, "init")
        inputs.cold_starts[key] = _read_only(
            random_init(inputs.pool, b, init_seed)
            if config.init == "random"
            else centroid_init(dataset.features, inputs.pool, b, init_seed)
        )
    cell.reveal(inputs.cold_starts[key])
    key += (astuple(config.train), config.semisupervised)
    if key not in inputs.heads:
        head = _fit(cell)
        _read_only(head.weights)
        _read_only(head.bias)
        inputs.heads[key] = head
    cell.head = inputs.heads[key]
    return cell


def training_inputs(cell: Cell) -> Fit:
    """This round's fit: the labeled points, or the whole pool with propagated labels."""
    seed = derive_seed(cell.record.seed, f"train/{cell.iteration}")
    if cell.config.semisupervised:
        onehot = cell.labels[:, None] == np.arange(cell.dataset.num_classes)
        prop = label_propagate(cell.inputs.graph, onehot.astype(np.float64))
        pseudo = np.argmax(prop.pseudo_probs, axis=1)
        return Fit(cell.dataset.features[cell.inputs.pool], pseudo, seed, prop.weights)
    labeled, labeled_y, _ = cell.split()
    return Fit(cell.dataset.features[labeled], labeled_y, seed, None)


def _fit(cell: Cell) -> LinearClassifier:
    """This round's head, fit alone by ``train``."""
    x, y, seed, weights = training_inputs(cell)
    return train(x, y, cell.dataset.num_classes, cell.config.train, seed, weights)


def _query(cell: Cell, clf, seed: int):
    """Query the cell's strategy on its current split and reveal the picks."""
    labeled, labeled_y, unlabeled = cell.split()
    res = query(
        cell.config.strategy,
        cell.dataset.features,
        clf,
        labeled=labeled,
        labeled_labels=labeled_y,
        unlabeled=unlabeled,
        b=cell.b,
        seed=seed,
        state=cell.state,
    )
    cell.reveal(res.selected)
    return res


def finish_round(cell: Cell, clf) -> None:
    """Evaluate this round's head, then query and reveal, or stop on an empty pool.

    Row t reports the model trained on |initial| + (t-1)*B labels, evaluated
    before that iteration's query. If the pool empties before T rounds the
    cell is done after a plain row, so a truncated run has fewer rows than
    ``iterations``.
    """
    cell.head = None
    t = cell.iteration
    labeled = int(np.count_nonzero(cell.labels >= 0))
    acc = evaluate(clf, cell.dataset)
    if labeled == len(cell.labels):
        cell.record.rows.append(IterationRow(t, labeled, acc))
        cell.done = True
        return
    res = _query(cell, clf, derive_seed(cell.record.seed, f"query/{t}"))
    cell.record.rows.append(IterationRow(t, labeled, acc, res.candidate_fraction))
    cell.iteration += 1
    cell.done = cell.iteration > cell.config.iterations


def run_al(dataset: EmbeddingDataset, config: RunConfig, seed: int) -> RunRecord:
    """Simulate one (strategy, seed) active-learning trajectory, one round at a time."""
    cell = start(dataset, config, seed)
    while not cell.done:
        finish_round(cell, cell.head or _fit(cell))
    return cell.record


def run_bench(dataset: EmbeddingDataset, configs, seeds=DEFAULT_SEEDS) -> BenchResult:
    """Run the grid of ``configs`` (one per strategy id) x ``seeds`` in lockstep.

    Every cell advances one round at a time. At each round the cells whose
    fits have the same row count and ``TrainConfig`` are fit together by
    ``train_batch``, in groups cut to ``FIT_BATCH_BYTES``; only one group's
    training inputs are held at a time. The cells share the dataset's
    ``grid_inputs`` as ``run_al`` does, so round 1 from a random or centroid
    cold start is fit in ``start``, one seed at a time, and only the cells
    without a head go to ``train_batch``. If a group's batch raises, each
    of its cells fits alone, as in ``run_al``. Each cell's rows equal those
    of ``run_al`` on it, and a failing cell is reported with its solo error
    without aborting the rest. Records come back sorted by
    (strategy, seed), failures by (strategy_id, seed).
    """
    ids = [config.strategy.strategy_id() for config in configs]
    for sid in ids:
        if ids.count(sid) > 1:
            raise ValueError(f"configs repeat strategy id {sid!r}; give each strategy once")
    seeds = list(seeds)
    for s in seeds:
        if seeds.count(s) > 1:
            raise ValueError(f"seeds repeat {s!r}; give each seed once")
    result = BenchResult()
    cells = []
    for sid, config in zip(ids, configs):
        for s in seeds:
            try:
                cells.append(start(dataset, config, s))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                result.failures.append(_failure(sid, s, exc))

    while cells:
        groups = defaultdict(list)
        for cell in cells:
            groups[cell.fit_rows(), astuple(cell.config.train)].append(cell)
        cells = []
        for (n, _), group in groups.items():
            cell_bytes = 32 * n * (dataset.dim + 1 + dataset.num_classes)
            size = max(1, FIT_BATCH_BYTES // max(1, cell_bytes))
            for i in range(0, len(group), size):
                chunk = group[i : i + size]
                _fit_together(chunk, dataset.num_classes)
                for cell in chunk:
                    try:
                        finish_round(cell, cell.head or _fit(cell))
                    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                        result.failures.append(_failure(cell.record.strategy, cell.record.seed, exc))
                        continue
                    if cell.done:
                        result.records.append(cell.record)
                    else:
                        cells.append(cell)

    result.records.sort(key=lambda r: (r.strategy, r.seed))
    result.failures.sort(key=lambda f: f[:2])
    return result


def _failure(sid: str, seed: int, exc: Exception) -> tuple:
    return sid, seed, f"{type(exc).__name__}: {exc}"


def _fit_together(cells, num_classes: int) -> None:
    """Fit the heads of the cells without one by one ``train_batch``, and hand them out.

    If a cell's training inputs or the batched fit raise, no cell gets a
    head here: each then takes ``run_al``'s step, its own ``_fit``, so a
    failing cell reports its solo error and the others keep their bits.
    """
    todo = [cell for cell in cells if cell.head is None]
    if not todo:
        return
    try:
        x, y, seeds, weights = zip(*map(training_inputs, todo))
        heads = train_batch(x, y, num_classes, todo[0].config.train, seeds, weights)
    except Exception:  # noqa: BLE001 - each cell refits alone and reports its own error
        return
    for cell, head in zip(todo, heads):
        cell.head = head
