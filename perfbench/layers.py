"""Per-layer metrics from a traced run.

Conventions:
- ``<module>.<function>_s`` is the inclusive time spent inside that function,
  children included, per unit. ``strategies.query.<kind>_s`` splits
  ``strategies.query_s`` by strategy kind.
- ``<module>.self_s`` is the module's self time per unit: time inside its
  functions minus the time of traced calls they make. The self times of all
  modules add up to the traced time of the unit.
- ``_calls`` and the other counts are per unit; ``_peak_mb`` is the largest
  traced allocation of one call, above what was allocated when it began.
- ``dataset_io.load_dataset_s`` and ``dataset_io.bytes_read`` are per call,
  because the set-up load happens outside any unit.
- ``trace.*`` compares each traced unit with its untraced run on the same seed.
  ``trace.overhead_s`` is their measured difference, which the machine's own
  speed changes can swamp; ``trace.overhead_est_s`` is spans per unit times
  the measured cost of one traced call, without the allocation tracing of
  the ``_peak_mb`` spans.
"""

import statistics
from collections import defaultdict

from workloads import KINDS

MODULES = (
    "classifier", "geometry", "strategies", "initpool", "semisup",
    "harness", "dataset_io", "stats", "cli", "rng",
)

INCLUSIVE = (
    "classifier.train", "classifier.evaluate", "classifier.predict_proba",
    "classifier.mc_dropout_proba",
    "geometry.pairwise_sq_dist", "geometry.kmeans", "geometry.kmeanspp_seed", "geometry.knn",
    "geometry.greedy_k_center", "geometry.nearest_to_centroids",
    "strategies.query", "strategies.estimate_delta",
    "initpool.centroid_init", "initpool.random_init",
    "semisup.build_knn_graph", "semisup.label_propagate",
    "harness.run_al", "stats.win_matrix", "cli.main",
) + tuple(f"strategies.query.{kind}" for kind in KINDS)

CALLS = (
    "classifier.train", "geometry.pairwise_sq_dist", "geometry.kmeans",
    "initpool.centroid_init", "semisup.build_knn_graph", "semisup.label_propagate",
)

COUNTS = (
    "classifier.train_rows", "geometry.pairwise_sq_dist_cells", "geometry.kmeans_lloyd_iters",
    "semisup.graph_nnz", "harness.oracle_reveals",
)

PEAKS = (
    "geometry.knn", "strategies.estimate_delta", "semisup.build_knn_graph",
    "classifier.mc_dropout_proba",
)

TRACE = ("unit_s", "untraced_unit_s", "overhead_s", "overhead_est_s", "unaccounted_s")


def declared() -> list:
    """(name, unit) of every per-layer metric, in the order they are printed."""
    names = [(f"{n}_s", "s") for n in INCLUSIVE]
    names += [(f"{m}.self_s", "s") for m in MODULES]
    names += [(f"{n}_calls", "count") for n in CALLS]
    names += [(n, "count") for n in COUNTS]
    names += [(f"{n}_peak_mb", "MB") for n in PEAKS]
    names += [("dataset_io.load_dataset_s", "s"), ("dataset_io.bytes_read", "bytes")]
    names += [(f"trace.{n}", "s") for n in TRACE] + [("trace.spans", "count")]
    return names


def per_layer(tracer, load_tracer, pairs) -> dict:
    units = len(pairs)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for _, _, name, t0, t1, own in tracer.spans:
        inclusive[name] += t1 - t0
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += own
        if name.startswith("strategies.query."):
            inclusive["strategies.query"] += t1 - t0

    values = {}
    for n in INCLUSIVE:
        values[f"{n}_s"] = inclusive[n] / units
    for m in MODULES:
        values[f"{m}.self_s"] = self_s[m] / units
    for n in CALLS:
        values[f"{n}_calls"] = calls[n] / units
    for n in COUNTS:
        values[n] = tracer.counts[n] / units
    for n in PEAKS:
        values[f"{n}_peak_mb"] = tracer.peak_mb[n]

    loads = [(t1 - t0) for _, _, name, t0, t1, _ in tracer.spans + load_tracer.spans
             if name == "dataset_io.load_dataset"]
    load_bytes = tracer.counts["dataset_io.bytes_read"] + load_tracer.counts["dataset_io.bytes_read"]
    values["dataset_io.load_dataset_s"] = sum(loads) / len(loads) if loads else 0.0
    values["dataset_io.bytes_read"] = load_bytes / len(loads) if loads else 0

    traced = [t.wall for _, t in pairs]
    values["trace.unit_s"] = statistics.median(traced)
    values["trace.untraced_unit_s"] = statistics.median(p.wall for p, _ in pairs)
    values["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in pairs)
    values["trace.overhead_est_s"] = len(tracer.spans) / units * tracer.span_cost()
    values["trace.unaccounted_s"] = sum(traced) / units - sum(self_s.values()) / units
    values["trace.spans"] = len(tracer.spans) / units
    return {name: (values[name], unit) for name, unit in declared()}
