"""The three workloads: their inputs, warm-up round, timed unit and checks.

A unit is the piece of work a run repeats until its time is up. Every unit
of a workload does the same operations on the same dataset; only the run
seed changes from one unit to the next, so units are comparable and the
run reports medians over them.
"""

import contextlib
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from inputs import Blobs

KINDS = (
    "random",
    "uncertainty",
    "entropy",
    "margins",
    "bald",
    "powerbald",
    "coreset",
    "badge",
    "alfamix",
    "typiclust",
    "probcover",
    "dropquery",
)


@dataclass
class Context:
    seed: int
    work: Path
    blobs: Blobs
    manifest: Path
    alcove: object = None
    dataset: object = None
    capture: object = None
    extra: dict = field(default_factory=dict)


@dataclass
class Unit:
    """What one unit did: rounds completed, attempted and failed, plus the
    rows each cell produced, as (labeled counts, accuracies, oracle accesses)."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    cells: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0


def unit_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _plain_round(ctx):
    """One supervised round (random init, random query) at the workload's scale."""
    a = ctx.alcove
    a.run_al(ctx.dataset, a.RunConfig(strategy=a.QuerySpec("random"), iterations=1), seed=ctx.seed)


def _run_cells(ctx, configs, run_seed, iterations) -> Unit:
    """run_al over each config; a failing cell counts all its rounds as failed."""
    unit = Unit()
    for config in configs:
        unit.attempted += iterations
        try:
            record = ctx.alcove.run_al(ctx.dataset, config, seed=run_seed)
        except Exception:  # noqa: BLE001 - a failed cell is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            unit.failed += iterations
            continue
        unit.rounds += len(record.rows)
        unit.cells.append(
            ([r.labeled_count for r in record.rows], [r.accuracy for r in record.rows],
             record.oracle_accesses)
        )
    return unit


class Workload:
    """Defaults: nothing to prepare, one plain round of warm-up, no checks of
    the workload's own beyond the common ones."""

    def prepare(self, ctx):
        pass

    def warmup(self, ctx):
        _plain_round(ctx)

    def check_unit(self, ctx, unit):
        pass


class ProtocolGrid(Workload):
    """Criterion 8c's shape through the CLI: `bench` over all 12 strategies for
    one run seed with 20 iterations and random init, then `stats`.

    `stats` needs exactly five seeds per strategy, and five seeds of the grid
    take about a minute here, longer than a run. So `stats` reads five-seed
    records tables that the benchmark writes at set-up, shaped like the
    grid's output (12 strategies x 5 seeds x 20 iterations, three dataset
    settings), and the check recomputes their win fractions independently.
    """

    name = "protocol-grid"
    inputs = dict(num_classes=10, per_class=100, dim=32, separation=4.0)
    iterations = 20
    min_units = 2
    settings = 3
    stats_seeds = (1, 10, 100, 1000, 10000)

    def prepare(self, ctx):
        tables = {}
        for j in range(self.settings):
            out = ctx.work / "stats_in" / f"setting{j}"
            tables[str(out)] = self._write_records(out, np.random.default_rng([ctx.seed, j]))
        ctx.extra["stats_tables"] = tables

    def _write_records(self, out: Path, rng) -> dict:
        """A synthetic records table: a shared learning curve, a per-strategy
        offset and per-seed noise, quantized to the 200-point test split."""
        t = np.arange(1, self.iterations + 1)
        curve = 0.55 + 0.35 * (1.0 - np.exp(-t / 6.0))
        offsets = rng.permutation(np.linspace(-0.03, 0.03, len(KINDS)))
        seed_noise = rng.normal(0.0, 0.02, (len(self.stats_seeds), self.iterations))
        table = {}
        rows = []
        for kind, offset in zip(KINDS, offsets):
            acc = curve + offset + seed_noise + rng.normal(0.0, 0.01, seed_noise.shape)
            acc = np.clip(np.round(acc * 200) / 200, 0.0, 1.0)
            table[kind] = acc
            for s, seed in enumerate(self.stats_seeds):
                for it in range(self.iterations):
                    rows.append([kind, seed, it + 1, 10 * (it + 1), repr(float(acc[s, it])), ""])
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "records.csv", "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(
                ["strategy", "seed", "iteration", "labeled", "accuracy", "candidate_fraction"]
            )
            writer.writerows(rows)
        return table

    def warmup(self, ctx):
        self._cli(ctx, ["bench", "--data", str(ctx.manifest.parent), "--out",
                        str(ctx.work / "warmup"), "--strategies", "random", "--iterations", "1",
                        "--seeds", str(ctx.seed)])

    def _cli(self, ctx, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return ctx.alcove.cli.main(argv)

    def unit(self, ctx, index) -> Unit:
        out = ctx.work / f"call{ctx.extra.setdefault('calls', 0)}"
        ctx.extra["calls"] += 1
        self._cli(ctx, ["bench", "--data", str(ctx.manifest.parent), "--out", str(out / "bench"),
                        "--seeds", str(unit_seed(ctx.seed, index)), "--iterations", str(self.iterations),
                        "--init", "random"])
        stats_rc = self._cli(ctx, ["stats", *ctx.extra["stats_tables"], "--out", str(out / "stats")])
        bench = ctx.capture.bench_results.pop()
        ctx.extra["last"] = (out, bench, stats_rc)
        return Unit(
            rounds=sum(len(r.rows) for r in bench.records),
            attempted=len(KINDS) * self.iterations,
            failed=self.iterations * len(bench.failures),
        )

    def check_unit(self, ctx, unit):
        """Reads the unit's records.csv into its cells, and checks the win matrices."""
        out, bench, stats_rc = ctx.extra["last"]
        accesses = {(r.strategy, r.seed): r.oracle_accesses for r in bench.records}
        cells = {}
        with open(out / "bench" / "records.csv", newline="") as f:
            for row in csv.DictReader(f):
                cell = cells.setdefault((row["strategy"], int(row["seed"])), ([], []))
                cell[0].append(int(row["labeled"]))
                cell[1].append(float(row["accuracy"]))
        checks.require(cells.keys() == accesses.keys(), "records.csv and the run disagree")
        unit.cells = [(labeled, acc, accesses[key]) for key, (labeled, acc) in cells.items()]
        checks.require(stats_rc == 0, "`stats` failed")
        wm = json.loads((out / "stats" / "win_matrix.json").read_text())
        checks.check_win_matrix(
            wm["strategies"], wm["per_dataset"], wm["wins"], ctx.extra["stats_tables"]
        )


class PaperQuery(Workload):
    """Every strategy for two rounds from the centroid cold start at 384-d."""

    name = "paper-query"
    inputs = dict(num_classes=50, per_class=60, dim=384, separation=12.0)
    iterations = 2
    min_units = 2

    def unit(self, ctx, index) -> Unit:
        a = ctx.alcove
        configs = [
            a.RunConfig(strategy=a.QuerySpec(kind), iterations=self.iterations, init="centroid")
            for kind in KINDS
        ]
        return _run_cells(ctx, configs, unit_seed(ctx.seed, index), self.iterations)


class SemisupGrid(Workload):
    """Three strategies x successive seeds with label propagation between rounds.

    Unit i is one cell: strategy i mod 3 with run seed i div 3. Cells start
    from centroid init: from B random labels, classes that draw no label are
    never predicted, and the accuracy swings with the draw.
    """

    name = "semisup-grid"
    inputs = dict(num_classes=20, per_class=200, dim=64, separation=8.0)
    iterations = 2
    min_units = 3
    kinds = ("dropquery", "margins", "coreset")

    def unit(self, ctx, index) -> Unit:
        a = ctx.alcove
        kind = self.kinds[index % len(self.kinds)]
        config = a.RunConfig(strategy=a.QuerySpec(kind), iterations=self.iterations,
                             init="centroid", semisupervised=True)
        return _run_cells(ctx, [config], unit_seed(ctx.seed, index // len(self.kinds)),
                          self.iterations)

    def check_unit(self, ctx, unit):
        blobs = ctx.blobs
        checks.require(ctx.capture.propagations, "no label propagation was captured")
        for onehot, pseudo, weights in ctx.capture.propagations:
            checks.check_propagation(onehot, pseudo, weights, blobs.labels[blobs.train])


WORKLOADS = {w.name: w for w in (ProtocolGrid(), PaperQuery(), SemisupGrid())}


def check_unit(ctx, workload, unit, seen):
    """Checks one unit's outputs and the calls captured while it ran, then
    empties the capture, so that memory does not grow with the unit count.
    ``seen`` counts what was checked; raises CheckFailed."""
    cap = ctx.capture
    for name, items in (("queries", cap.queries), ("evaluations", cap.evaluations),
                        ("clusterings", cap.clusterings)):
        seen[name] = seen.get(name, 0) + len(items)
    try:
        _check_captured(ctx, workload, unit)
    finally:
        cap.clear()


def _check_captured(ctx, workload, unit):
    blobs = ctx.blobs
    cap = ctx.capture
    workload.check_unit(ctx, unit)
    checks.require(cap.forbidden_calls == 0, "the program generated or saved a dataset itself")
    for _, labeled, unlabeled, b, selected in cap.queries:
        checks.check_query(labeled, unlabeled, b, selected, blobs.train)
    checks.check_reveals(cap.reveals, blobs.test)
    # every workload starts from B = C labels, by random or centroid init, and adds B a round
    b = blobs.num_classes
    for labeled, acc, accesses in unit.cells:
        checks.check_labeled_counts(labeled, b, b, workload.iterations, accesses)
    checks.require(
        sum(len(r) for oracle in cap.reveals for r in oracle) == sum(c[2] for c in unit.cells),
        "the oracle accesses the run reports differ from the reveals seen",
    )
    test_x = blobs.features[blobs.test]
    test_y = blobs.labels[blobs.test]
    for weights, bias, accuracy in cap.evaluations:
        checks.check_accuracy(weights, bias, test_x, test_y, accuracy)
    for points, centroids, assignments in cap.clusterings.values():
        checks.check_kmeans(points, centroids, assignments)


def check_run(ctx, units, seen):
    """Checks on the whole run; raises CheckFailed."""
    finals = [acc[-1] for unit in units for _, acc, _ in unit.cells]
    checks.require(finals, "no cell completed")
    checks.check_final_accuracy(finals, ctx.blobs.num_classes)
    for name, count in seen.items():
        checks.require(count, f"no {name} were captured to check")
