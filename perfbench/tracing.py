"""Span tracing and output capture around alcove's public functions.

Both work from outside the program. They replace module attributes with
wrappers, in every alcove module namespace that binds the function (``kmeans``
is bound in ``geometry``, ``strategies`` and ``initpool``; ``train`` in
``harness``), and a ``Patch`` puts the originals back.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from pathlib import Path

MODULE_NAMES = (
    "classifier",
    "dataset_io",
    "geometry",
    "harness",
    "initpool",
    "rng",
    "semisup",
    "stats",
    "strategies",
    "cli",
)

# n x n kernels whose peak traced allocation is recorded per call
MEMORY_SPANS = (
    "geometry.knn",
    "strategies.estimate_delta",
    "semisup.build_knn_graph",
    "classifier.mc_dropout_proba",
)


def alcove_modules():
    """The alcove package followed by every submodule, as imported objects."""
    import alcove

    return [alcove] + [sys.modules[f"alcove.{name}"] for name in MODULE_NAMES]


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


def public_functions(modules) -> dict:
    """{function: "module.name"} for every public function defined in alcove.

    ``LabelOracle.reveal`` is included as ``harness.reveal``, since the
    oracle's reveals are the count the harness layer reports.
    """
    found = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, value in vars(mod).items():
            fn = inspect.unwrap(value) if callable(value) else value
            if (
                isinstance(fn, types.FunctionType)
                and not name.startswith("_")
                and fn.__module__ == mod.__name__
            ):
                found[fn] = f"{short}.{name}"
    harness = sys.modules["alcove.harness"]
    found[inspect.unwrap(harness.LabelOracle.__dict__["reveal"])] = "harness.reveal"
    return found


def _bindings(modules, functions):
    """(owner, attr, current value, function) for every binding of ``functions``.

    A binding already wrapped (by ``Capture``) is found through ``__wrapped__``.
    """
    harness = sys.modules["alcove.harness"]
    owners = list(modules) + [harness.LabelOracle]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if not callable(value):
                continue
            fn = inspect.unwrap(value)
            if fn in functions:
                yield owner, attr, value, fn


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_train(counts, args, kwargs, result):
    counts["classifier.train_rows"] += len(_arg(args, kwargs, 0, "features"))


def _count_pairwise(counts, args, kwargs, result):
    counts["geometry.pairwise_sq_dist_cells"] += result.shape[0] * result.shape[1]


def _count_kmeans(counts, args, kwargs, result):
    counts["geometry.kmeans_lloyd_iters"] += len(result.inertia_history) - 1


def _count_graph(counts, args, kwargs, result):
    counts["semisup.graph_nnz"] += result.nnz


def _count_reveal(counts, args, kwargs, result):
    counts["harness.oracle_reveals"] += len(result)


def _count_load(counts, args, kwargs, result):
    manifest = Path(_arg(args, kwargs, 0, "manifest_path"))
    if manifest.is_dir():
        manifest = manifest / "dataset.json"
    fields = json.loads(manifest.read_text())
    names = ("features", "labels", "train_indices", "test_indices")
    counts["dataset_io.bytes_read"] += manifest.stat().st_size + sum(
        (manifest.parent / fields[k]).stat().st_size for k in names
    )


COUNTERS = {
    "classifier.train": _count_train,
    "geometry.pairwise_sq_dist": _count_pairwise,
    "geometry.kmeans": _count_kmeans,
    "semisup.build_knn_graph": _count_graph,
    "harness.reveal": _count_reveal,
    "dataset_io.load_dataset": _count_load,
}


class Tracer:
    """Records one span per call into a public alcove function.

    A span is (id, parent id, name, start, end, self seconds). Self time is
    the duration minus the time covered by child spans. Spans stay in memory
    until ``write`` is called.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self._stack = []  # [span id, child seconds]
        self._mem = []  # [baseline bytes, peak bytes seen] per open memory span
        self._next_id = 0

    def install(self, patch: Patch, modules):
        functions = public_functions(modules)
        for owner, attr, value, fn in _bindings(modules, functions):
            patch.set(owner, attr, self._wrap(functions[fn], value))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        memory = name in MEMORY_SPANS
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        query_kind = name == "strategies.query"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if memory:
                self._mem_enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if memory:
                    self.peak_mb[name] = max(self.peak_mb[name], self._mem_exit())
                if parent is not None:
                    parent[1] += t1 - t0
                label = f"{name}.{_arg(args, kwargs, 0, 'spec').kind}" if query_kind else name
                spans.append((sid, parent[0] if parent else -1, label, t0, t1, t1 - t0 - frame[1]))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def span_cost(repeats: int = 20000) -> float:
        """Seconds one traced call adds to an untraced one, from wrapping a no-op."""

        def noop():
            return None

        traced = Tracer()._wrap("calibration.noop", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem.append([0, 0])
            return
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _mem_exit(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return (max(seen, peak) - base) / 2**20

    def write(self, path):
        """Write every span as one tab-separated line: id, parent, name, start, end, self."""
        with open(path, "w") as f:
            for sid, parent, name, t0, t1, self_s in self.spans:
                f.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\n")


def _caller_name() -> str:
    """Name of the nearest calling function outside this file's wrappers."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename == __file__:
        frame = frame.f_back
    return frame.f_code.co_name


class Capture:
    """Keeps, from calls made during a run, what the correctness checks need.

    Every query and every oracle reveal is kept. Evaluations, clusterings
    and propagations are sampled, counting from the last ``clear``: every
    ``EVAL_EVERY``-th evaluation starting with the first, the first k-means
    call from each calling function, and the first ``PROPAGATIONS``
    propagations.
    """

    EVAL_EVERY = 7
    PROPAGATIONS = 3

    def __init__(self):
        self.forbidden_calls = 0
        self.clear()

    def clear(self):
        """Drop everything kept so far; ``forbidden_calls`` keeps counting."""
        self.queries = []  # (kind, labeled, unlabeled, b, selected)
        self.reveals = []  # per oracle: list of revealed index lists
        self.evaluations = []  # (weights, bias, accuracy)
        self.clusterings = {}  # caller -> (points, centroids, assignments)
        self.propagations = []  # (labels_onehot, pseudo_probs, weights)
        self.bench_results = []
        self._oracles = {}
        self._evaluate_calls = 0

    def install(self, patch: Patch, modules):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        harness, strategies, initpool, cli = (
            mods["harness"], mods["strategies"], mods["initpool"], mods["cli"]
        )
        patch.set(harness, "query", self._query(harness.query))
        patch.set(harness, "evaluate", self._evaluate(harness.evaluate))
        patch.set(harness, "label_propagate", self._propagate(harness.label_propagate))
        patch.set(harness.LabelOracle, "reveal", self._reveal(harness.LabelOracle.__dict__["reveal"]))
        patch.set(cli, "run_bench", self._bench(cli.run_bench))
        for owner in (strategies, initpool):
            patch.set(owner, "kmeans", self._kmeans(owner.kmeans))
        # the inputs must come from the benchmark's own writer, never these
        for owner in (mods["alcove"], mods["dataset_io"], cli):
            for name in ("generate_synthetic", "save_dataset"):
                patch.set(owner, name, self._forbidden(getattr(owner, name)))

    def _query(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def query(*args, **kwargs):
            result = fn(*args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            self.queries.append(
                (a["spec"].kind, a["labeled"], a["unlabeled"], a["b"], result.selected)
            )
            return result

        return query

    def _evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(clf, dataset):
            accuracy = fn(clf, dataset)
            if self._evaluate_calls % self.EVAL_EVERY == 0:
                self.evaluations.append((clf.weights, clf.bias, accuracy))
            self._evaluate_calls += 1
            return accuracy

        return evaluate

    def _propagate(self, fn):
        @functools.wraps(fn)
        def label_propagate(s_matrix, labels_onehot, *args, **kwargs):
            result = fn(s_matrix, labels_onehot, *args, **kwargs)
            if len(self.propagations) < self.PROPAGATIONS:
                self.propagations.append((labels_onehot, result.pseudo_probs, result.weights))
            return result

        return label_propagate

    def _reveal(self, fn):
        @functools.wraps(fn)
        def reveal(oracle, indices):
            labels = fn(oracle, indices)
            key = id(oracle)
            if key not in self._oracles:
                # the oracle is kept alive so that its id is not reused
                self._oracles[key] = (oracle, [])
                self.reveals.append(self._oracles[key][1])
            self._oracles[key][1].append(list(map(int, indices)))
            return labels

        return reveal

    def _bench(self, fn):
        @functools.wraps(fn)
        def run_bench(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.bench_results.append(result)
            return result

        return run_bench

    def _kmeans(self, fn):
        @functools.wraps(fn)
        def kmeans(points, k, seed, *args, **kwargs):
            result = fn(points, k, seed, *args, **kwargs)
            caller = _caller_name()
            if caller not in self.clusterings:
                self.clusterings[caller] = (points, result.centroids, result.assignments)
            return result

        return kmeans

    def _forbidden(self, fn):
        @functools.wraps(fn)
        def forbidden(*args, **kwargs):
            self.forbidden_calls += 1
            return fn(*args, **kwargs)

        return forbidden
