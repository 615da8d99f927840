import ast
import gc
from contextlib import suppress
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from alcove.classifier import TrainConfig, TrainingDiverged, train_batch
from alcove.dataset_io import EmbeddingDataset, generate_synthetic
from alcove import harness, strategies
from alcove.harness import LabelOracle, RunConfig, run_al, run_bench
from alcove.semisup import label_propagate
from alcove.strategies import STRATEGY_KINDS, QuerySpec, StrategyUnavailable


def small_dataset():
    return generate_synthetic(num_classes=4, per_class=20, dim=8, separation=4.0, seed=3)


def fast_train():
    return TrainConfig(dropout_rho=0.25, epochs=40)


class TestLabelOracle:
    def test_counts_and_blocks_requery(self):
        oracle = LabelOracle(np.array([0, 1, 0, 1]), np.array([0, 1, 2, 3]))
        got = oracle.reveal([1, 2])
        assert got.tolist() == [1, 0]
        assert oracle.access_count == 2
        with pytest.raises(RuntimeError):
            oracle.reveal([2])

    def test_rejects_non_train_indices(self):
        oracle = LabelOracle(np.array([0, 1, 0, 1]), np.array([0, 1]))
        with pytest.raises(KeyError):
            oracle.reveal([3])

    @pytest.mark.parametrize(
        "request_, error, message",
        [
            ([5, 9], KeyError, "index 9 is not in the train pool"),
            ([5, -1], KeyError, "index -1 is not in the train pool"),
            ([5, 2], RuntimeError, "index 2 was already queried"),
            ([5, 6, 5], RuntimeError, "index 5 was already queried"),
        ],
    )
    def test_a_failed_request_reveals_nothing(self, request_, error, message):
        oracle = LabelOracle(np.arange(10) % 3, np.arange(8))
        oracle.reveal([2])
        with pytest.raises(error, match=message):
            oracle.reveal(request_)
        assert oracle.access_count == 1
        assert oracle.reveal([5, 6]).tolist() == [2, 0]


class TestRunAl:
    def test_single_iteration_row(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("random"), iterations=1, train=fast_train())
        rec = run_al(ds, cfg, seed=1)
        assert len(rec.rows) == 1
        assert rec.rows[0].iteration == 1
        assert rec.rows[0].labeled_count == 4  # budget defaults to num_classes
        assert 0.0 <= rec.rows[0].accuracy <= 1.0

    def test_deterministic_per_seed(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("random"), iterations=3, train=fast_train())
        a = run_al(ds, cfg, seed=10)
        b = run_al(ds, cfg, seed=10)
        assert [(r.iteration, r.labeled_count, r.accuracy) for r in a.rows] == [
            (r.iteration, r.labeled_count, r.accuracy) for r in b.rows
        ]

    def test_labeled_count_increases_by_budget(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("margins"), iterations=4, budget=3, train=fast_train())
        rec = run_al(ds, cfg, seed=1)
        assert [r.labeled_count for r in rec.rows] == [3, 6, 9, 12]

    def test_oracle_audit_full_run(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("entropy"), iterations=3, train=fast_train())
        rec = run_al(ds, cfg, seed=1)
        assert rec.oracle_accesses == 4 + 3 * 4  # initial pool + T queries

    def test_pool_exhaustion_truncates_with_flag(self):
        feats = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        labels = np.array([0, 1] * 5)
        ds = EmbeddingDataset(feats, labels, 2, train_indices=list(range(8)), test_indices=[8, 9])
        cfg = RunConfig(strategy=QuerySpec("random"), iterations=10, budget=2, train=fast_train())
        rec = run_al(ds, cfg, seed=1)
        assert len(rec.rows) == 4
        assert rec.rows[-1].labeled_count == 8
        assert rec.oracle_accesses == 8

    def test_margins_improves_on_separable_blobs(self):
        ds = generate_synthetic(num_classes=10, per_class=30, dim=16, separation=4.0, seed=1)
        cfg = RunConfig(strategy=QuerySpec("margins"), iterations=5, train=fast_train())
        improved = 0
        for seed in (1, 10, 100, 1000, 10000):
            rec = run_al(ds, cfg, seed=seed)
            improved += rec.rows[4].accuracy >= rec.rows[0].accuracy
        assert improved >= 4

    def test_centroid_init_mode(self):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("random"), iterations=1, init="centroid", train=fast_train()
        )
        rec = run_al(ds, cfg, seed=1)
        assert rec.rows[0].labeled_count == 4

    def test_centroid_init_on_coinciding_points_reveals_the_budget(self):
        # two distinct coordinates: k-means at B = 6 leaves four clusters empty
        feats = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32), 10, axis=0)
        ds = EmbeddingDataset(
            feats, np.repeat([0, 1], 10), 2, train_indices=list(range(16)), test_indices=[16, 17, 18, 19]
        )
        cfg = RunConfig(
            strategy=QuerySpec("random"), iterations=1, budget=6, init="centroid", train=fast_train()
        )
        rec = run_al(ds, cfg, seed=1)
        assert rec.rows[0].labeled_count == 6

    def test_own_init_for_self_initializing_strategies(self):
        ds = small_dataset()
        for kind in ("typiclust", "probcover", "dropquery"):
            cfg = RunConfig(strategy=QuerySpec(kind), iterations=1, init="own", train=fast_train())
            rec = run_al(ds, cfg, seed=1)
            assert rec.rows[0].labeled_count == 4

    def test_own_init_alfamix_unavailable(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("alfamix"), iterations=1, init="own", train=fast_train())
        with pytest.raises(StrategyUnavailable):
            run_al(ds, cfg, seed=1)

    def test_dropquery_records_candidate_fraction(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("dropquery"), iterations=2, train=fast_train())
        rec = run_al(ds, cfg, seed=1)
        assert all(r.candidate_fraction is not None for r in rec.rows)
        assert all(0.0 <= r.candidate_fraction <= 1.0 for r in rec.rows)

    def test_dropquery_votes_with_the_training_dropout_ratio(self):
        # rho = 0 makes every dropout pass equal the base prediction, so no
        # point can be a candidate
        ds = generate_synthetic(num_classes=4, per_class=30, dim=8, separation=4.0, seed=1)
        cfg = RunConfig(
            strategy=QuerySpec("dropquery"), iterations=3, train=TrainConfig(dropout_rho=0.0, epochs=60)
        )
        rec = run_al(ds, cfg, seed=1)
        assert [r.candidate_fraction for r in rec.rows] == [0.0, 0.0, 0.0]

    def test_semisupervised_path_runs_and_is_deterministic(self):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("margins"),
            iterations=2,
            train=fast_train(),
            semisupervised=True,
        )
        a = run_al(ds, cfg, seed=5)
        b = run_al(ds, cfg, seed=5)
        assert [r.accuracy for r in a.rows] == [r.accuracy for r in b.rows]

    def test_semisupervised_propagates_once_per_round(self, monkeypatch):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("margins"), iterations=2, train=fast_train(), semisupervised=True
        )
        labeled_counts = []

        def counting(graph, labels_onehot):
            labeled_counts.append(int(labels_onehot.sum()))
            return label_propagate(graph, labels_onehot)

        monkeypatch.setattr(harness, "label_propagate", counting)
        run_al(ds, cfg, seed=5)
        assert labeled_counts == [4, 8]  # each round's labels, none after the last reveal

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="init"):
            RunConfig(strategy=QuerySpec("random"), iterations=1, init="bogus")


class TestRunConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            {"budget": 0}, {"budget": -2}, {"iterations": 0},
            {"strategy": "margins"}, {"train": {"epochs": 5}}, {"train": None},
        ],
    )
    def test_bad_settings_rejected_at_construction(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            RunConfig(**{"strategy": QuerySpec("random"), **setting})


class TestRunBench:
    def test_single_cell_equals_run_al(self):
        ds = small_dataset()
        cfg = RunConfig(strategy=QuerySpec("margins"), iterations=2, train=fast_train())
        bench = run_bench(ds, [cfg], seeds=(7,))
        direct = run_al(ds, cfg, seed=7)
        assert len(bench.records) == 1
        assert [r.accuracy for r in bench.records[0].rows] == [r.accuracy for r in direct.rows]

    def test_grid_shape_and_order(self):
        ds = small_dataset()
        configs = [
            RunConfig(strategy=QuerySpec(kind), iterations=1, train=fast_train())
            for kind in ("random", "entropy")
        ]
        bench = run_bench(ds, configs, seeds=(2, 1))
        assert len(bench.records) == 4
        assert [(r.strategy, r.seed) for r in bench.records] == [
            ("entropy", 1),
            ("entropy", 2),
            ("random", 1),
            ("random", 2),
        ]

    def test_repeated_strategy_id_rejected(self):
        # two vote counts of dropquery share the id dropquery
        configs = [RunConfig(strategy=QuerySpec("dropquery", dq_m=m), iterations=1) for m in (3, 5)]
        with pytest.raises(ValueError, match="'dropquery'"):
            run_bench(small_dataset(), configs, seeds=(1,))

    def test_repeated_seed_rejected(self):
        config = RunConfig(strategy=QuerySpec("random"), iterations=1, train=fast_train())
        with pytest.raises(ValueError, match="seeds repeat 1;"):
            run_bench(small_dataset(), [config], seeds=(1, 10, 1))

    def test_cell_failure_does_not_abort_grid(self):
        ds = small_dataset()
        configs = [
            RunConfig(strategy=QuerySpec(kind), iterations=1, init="own", train=fast_train())
            for kind in ("alfamix", "random")
        ]
        bench = run_bench(ds, configs, seeds=(3,))
        assert len(bench.records) == 1
        assert bench.records[0].strategy == "random"
        assert len(bench.failures) == 1
        assert bench.failures[0][0] == "alfamix"


def truncating_dataset():
    # 8 train points: with B = 3 the pool runs dry during round 3
    feats = np.random.default_rng(0).normal(size=(12, 4)).astype(np.float32)
    labels = np.array([0, 1, 2] * 4)
    return EmbeddingDataset(feats, labels, 3, list(range(8)), [8, 9, 10, 11])


def rows_of(record):
    return [astuple(row) for row in record.rows], record.oracle_accesses


GRIDS = {
    "truncation": (
        truncating_dataset,
        [RunConfig(strategy=QuerySpec(k), iterations=5, budget=3, train=fast_train())
         for k in ("random", "margins", "coreset")],
    ),
    "semisupervised": (
        small_dataset,
        [RunConfig(strategy=QuerySpec(k), iterations=3, init="centroid", train=fast_train(),
                   semisupervised=True) for k in ("random", "margins", "dropquery")],
    ),
    # alfamix cannot pick its own pool; its cells fail, the others run
    "own-init": (
        small_dataset,
        [RunConfig(strategy=QuerySpec(k), iterations=3, init="own", train=fast_train())
         for k in ("alfamix", "typiclust", "probcover", "dropquery")],
    ),
    # no train points: every cell fits on zero rows and stops at once
    "empty-pool": (
        lambda: EmbeddingDataset(small_dataset().features, small_dataset().labels, 4, [], range(80)),
        [RunConfig(strategy=QuerySpec(k), iterations=2, train=fast_train())
         for k in ("random", "entropy")],
    ),
    # cells of different budgets, inits and epochs share rounds but not fits
    "mixed": (
        small_dataset,
        [RunConfig(strategy=QuerySpec("random"), iterations=3, budget=2, train=fast_train()),
         RunConfig(strategy=QuerySpec("entropy"), iterations=3, init="centroid",
                   train=fast_train()),
         RunConfig(strategy=QuerySpec("margins"), iterations=3, train=TrainConfig(epochs=30))],
    ),
}


def count_batches(monkeypatch):
    """Wrap ``harness.train_batch`` to list the cell count of each call; returns the list."""
    batches = []

    def counting(features, *args, **kwargs):
        batches.append(len(features))
        return train_batch(features, *args, **kwargs)

    monkeypatch.setattr(harness, "train_batch", counting)
    return batches


def full_grid_fits(monkeypatch, seeds):
    """Each ``train_batch``'s cell count in a 12-kind, 4-round grid, and its ``train`` calls."""
    batches = count_batches(monkeypatch)
    calls = count_calls(monkeypatch, "train")
    configs = [
        RunConfig(strategy=QuerySpec(kind), iterations=4, train=fast_train())
        for kind in STRATEGY_KINDS
    ]
    bench = run_bench(small_dataset(), configs, seeds=seeds)
    assert len(bench.records) == 12 * len(seeds) and not bench.failures
    return batches, calls["train"]


class TestLockstep:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_equal_run_al(self, name):
        make_dataset, configs = GRIDS[name]
        ds = make_dataset()
        seeds = (2, 1)
        bench = run_bench(ds, configs, seeds)
        expected, failures = {}, []
        for config in configs:
            for s in seeds:
                try:
                    expected[config.strategy.strategy_id(), s] = rows_of(run_al(ds, config, s))
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    failures.append((config.strategy.strategy_id(), s, message))
        assert {(r.strategy, r.seed): rows_of(r) for r in bench.records} == expected
        assert [(r.strategy, r.seed) for r in bench.records] == sorted(expected)
        assert bench.failures == sorted(failures)
        if name == "truncation":
            assert all(len(r.rows) == 3 and r.rows[-1].labeled_count == 8 for r in bench.records)
        if name == "own-init":
            assert [f[:2] for f in bench.failures] == [("alfamix", 1), ("alfamix", 2)]

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_records_do_not_depend_on_the_batch_size(self, monkeypatch, name):
        make_dataset, configs = GRIDS[name]
        ds = make_dataset()
        batched = run_bench(ds, configs, (1, 2))
        monkeypatch.setattr(harness, "FIT_BATCH_BYTES", 1)
        alone = run_bench(ds, configs, (1, 2))
        assert [rows_of(r) for r in alone.records] == [rows_of(r) for r in batched.records]
        assert alone.failures == batched.failures

    def test_each_round_of_a_full_grid_is_one_fit(self, monkeypatch):
        # round 1's 12 cells share one cold start, so ``start`` fits their one head alone
        assert full_grid_fits(monkeypatch, seeds=(1,)) == ([12, 12, 12], 1)

    def test_each_round_of_a_two_seed_grid_is_one_fit(self, monkeypatch):
        # one round-1 head per seed, each fit alone
        assert full_grid_fits(monkeypatch, seeds=(1, 2)) == ([24, 24, 24], 2)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_equal_run_al_on_a_fresh_dataset(self, name):
        # each solo run gets its own dataset object, so no head is shared with it
        make_dataset, configs = GRIDS[name]
        seeds = (2, 1)
        bench = run_bench(make_dataset(), configs, seeds)
        expected, failures = {}, []
        for config in configs:
            sid = config.strategy.strategy_id()
            for s in seeds:
                try:
                    expected[sid, s] = rows_of(run_al(make_dataset(), config, s))
                except Exception as exc:
                    failures.append((sid, s, f"{type(exc).__name__}: {exc}"))
        assert {(r.strategy, r.seed): rows_of(r) for r in bench.records} == expected
        assert bench.failures == sorted(failures)

    def test_shared_work_is_built_once_per_grid(self, monkeypatch):
        calls = {"graph": 0, "centroid": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "build_knn_graph", counted("graph", harness.build_knn_graph))
        monkeypatch.setattr(harness, "centroid_init", counted("centroid", harness.centroid_init))
        _, configs = GRIDS["semisupervised"]
        run_bench(small_dataset(), configs, seeds=(1, 2))
        # one graph for the grid, one cold start per seed
        assert calls == {"graph": 1, "centroid": 2}


def out_of_range_dataset():
    """small_dataset with every tenth train point labeled C: unvalidated, so a fit
    that reveals one of them raises, and a cold start that holds one fails in ``start``."""
    ds = small_dataset()
    labels = ds.labels.copy()
    labels[ds.train_indices[::10]] = ds.num_classes
    return EmbeddingDataset(ds.features, labels, ds.num_classes, ds.train_indices, ds.test_indices)


def raising_batches(monkeypatch, fail_every=False):
    """Wrap ``harness.train_batch`` to list each call's error or None; returns the list.

    With ``fail_every`` each call raises without fitting."""
    outcomes = []

    def wrapped(*args, **kwargs):
        try:
            if fail_every:
                raise RuntimeError("no batched fit")
            heads = train_batch(*args, **kwargs)
        except Exception as exc:
            outcomes.append(exc)
            raise
        outcomes.append(None)
        return heads

    monkeypatch.setattr(harness, "train_batch", wrapped)
    return outcomes


class TestFailedBatches:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_records_equal_the_batched_run_when_every_batch_raises(self, monkeypatch, name):
        make_dataset, configs = GRIDS[name]
        batched = run_bench(make_dataset(), configs, (1, 2))
        outcomes = raising_batches(monkeypatch, fail_every=True)
        alone = run_bench(make_dataset(), configs, (1, 2))
        # the empty pool stops every cell after round 1, which ``start`` fits
        assert bool(outcomes) == (name != "empty-pool")
        assert [(r.strategy, r.seed, rows_of(r)) for r in alone.records] == [
            (r.strategy, r.seed, rows_of(r)) for r in batched.records
        ]
        assert alone.failures == batched.failures

    def test_a_label_outside_the_classes_fails_its_cells_as_in_run_al(self, monkeypatch):
        ds = out_of_range_dataset()
        configs = [RunConfig(strategy=QuerySpec(k), iterations=3, train=fast_train())
                   for k in ("random", "entropy", "margins", "coreset")]
        seeds = (1, 2, 3)
        outcomes = raising_batches(monkeypatch)
        bench = run_bench(ds, configs, seeds)
        expected, failures, late = {}, [], []
        for config in configs:
            sid = config.strategy.strategy_id()
            for s in seeds:
                try:
                    expected[sid, s] = rows_of(run_al(ds, config, s))
                except ValueError as exc:
                    failures.append((sid, s, f"ValueError: {exc}"))
                    with suppress(ValueError):  # a cold start holding label C fails in ``start``
                        harness.start(ds, config, s)
                        late.append((sid, s))
        assert {(r.strategy, r.seed): rows_of(r) for r in bench.records} == expected
        assert bench.failures == sorted(failures)
        assert expected and late
        assert all(msg == "ValueError: labels must lie in [0, 4), got 4" for *_, msg in failures)
        # a batch held a failing cell next to healthy ones, and fell back to solo fits
        assert any(isinstance(exc, ValueError) for exc in outcomes)


def count_calls(monkeypatch, *names, module=harness):
    """Wrap each named function of ``module`` to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def semisup_centroid(kind):
    return RunConfig(strategy=QuerySpec(kind), iterations=2, init="centroid", train=fast_train(),
                     semisupervised=True)


class TestGridInputs:
    def test_run_al_builds_shared_work_once_per_dataset(self, monkeypatch):
        calls = count_calls(monkeypatch, "build_knn_graph", "centroid_init")
        ds = small_dataset()
        run_al(ds, semisup_centroid("margins"), seed=1)
        run_al(ds, semisup_centroid("coreset"), seed=1)
        assert calls == {"build_knn_graph": 1, "centroid_init": 1}
        run_al(ds, semisup_centroid("margins"), seed=2)
        assert calls == {"build_knn_graph": 1, "centroid_init": 2}  # one cold start per seed

    def test_cached_inputs_give_the_rows_of_a_fresh_dataset(self):
        ds = small_dataset()
        run_al(ds, semisup_centroid("margins"), seed=1)
        cached = run_al(ds, semisup_centroid("dropquery"), seed=1)
        fresh = run_al(small_dataset(), semisup_centroid("dropquery"), seed=1)
        assert rows_of(cached) == rows_of(fresh)

    def test_run_bench_and_run_al_share_one_entry(self, monkeypatch):
        calls = count_calls(monkeypatch, "build_knn_graph", "centroid_init")
        ds = small_dataset()
        run_bench(ds, [semisup_centroid("margins")], seeds=(3,))
        inputs = harness.grid_inputs(ds)
        run_al(ds, semisup_centroid("coreset"), seed=3)
        assert harness.grid_inputs(ds) is inputs
        assert calls == {"build_knn_graph": 1, "centroid_init": 1}

    def test_shared_arrays_are_read_only(self):
        ds = small_dataset()
        run_al(ds, RunConfig(strategy=QuerySpec("random"), iterations=1, train=fast_train()), seed=1)
        inputs = harness.grid_inputs(ds)
        for array in (ds.features, inputs.pool, *inputs.cold_starts.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_entry_goes_with_its_dataset(self):
        gc.collect()
        before = len(harness._GRID_INPUTS)
        ds = small_dataset()
        run_al(ds, semisup_centroid("margins"), seed=1)
        assert len(harness._GRID_INPUTS) == before + 1
        del ds
        gc.collect()
        assert len(harness._GRID_INPUTS) == before


class TestPreparedState:
    """A cell prepares its strategy's state once, in ``start``, and every query reads it."""

    def test_probcover_run_al_builds_one_graph(self, monkeypatch):
        calls = count_calls(monkeypatch, "estimate_delta", "_ball_graph", module=strategies)
        ds = generate_synthetic(num_classes=4, per_class=40, dim=8, separation=4.0, seed=3)
        cfg = RunConfig(strategy=QuerySpec("probcover"), iterations=20, train=fast_train())
        assert len(run_al(ds, cfg, seed=1).rows) == 20
        assert calls == {"estimate_delta": 1, "_ball_graph": 1}

    def test_probcover_run_bench_builds_one_graph_per_cell(self, monkeypatch):
        calls = count_calls(monkeypatch, "estimate_delta", "_ball_graph", module=strategies)
        configs = [RunConfig(strategy=QuerySpec(kind), iterations=3, train=fast_train())
                   for kind in ("probcover", "margins")]
        bench = run_bench(small_dataset(), configs, seeds=(1, 2))
        assert not bench.failures and len(bench.records) == 4
        assert calls == {"estimate_delta": 2, "_ball_graph": 2}

    def test_own_init_query_reads_the_state_from_start(self, monkeypatch):
        states = []
        query = harness.query

        def recording(*args, state=None, **kwargs):
            states.append(state)
            return query(*args, state=state, **kwargs)

        monkeypatch.setattr(harness, "query", recording)
        calls = count_calls(monkeypatch, "_ball_graph", module=strategies)
        cfg = RunConfig(strategy=QuerySpec("probcover"), iterations=1, init="own", train=fast_train())
        cell = harness.start(small_dataset(), cfg, seed=1)
        assert len(states) == 1 and states[0] is cell.state is not None
        assert calls == {"_ball_graph": 1}
        assert np.count_nonzero(cell.labels >= 0) == 4

    def test_harness_reads_no_strategy_kind(self):
        # a per-kind step belongs in the strategies module's tables; string
        # literals are not matched, since "random" is an init mode and a kind
        tree = ast.parse(Path(harness.__file__).read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "kind"]
        assert lines == [], f"harness.py reads .kind on lines {lines}"
        assert not hasattr(harness, "estimate_delta")


def diverging_train():
    # runaway decoupled weight decay overflows every fit within a few epochs
    return TrainConfig(learning_rate=1.0, weight_decay=1e200, dropout_rho=0.0, epochs=40)


class TestRoundOneHeads:
    def test_run_al_fits_round_one_once_per_seed(self, monkeypatch):
        calls = count_calls(monkeypatch, "train")
        ds = small_dataset()
        for kind in STRATEGY_KINDS:
            run_al(ds, RunConfig(strategy=QuerySpec(kind), iterations=2, train=fast_train()), seed=1)
        assert calls == {"train": 1 + 12}  # one shared round 1, then each cell's round 2
        assert len(harness.grid_inputs(ds).heads) == 1

    def test_semisupervised_round_one_propagates_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "label_propagate")
        ds = small_dataset()
        for kind in ("margins", "coreset", "dropquery"):
            run_al(ds, semisup_centroid(kind), seed=1)
        assert calls == {"label_propagate": 1 + 3}

    def test_own_init_never_shares_a_head(self, monkeypatch):
        calls = count_calls(monkeypatch, "train")
        ds = small_dataset()
        configs = [RunConfig(strategy=QuerySpec(kind), iterations=2, init="own", train=fast_train())
                   for kind in ("typiclust", "probcover", "dropquery")]
        for config in configs:
            run_al(ds, config, seed=1)
        assert calls == {"train": 2 * 3}
        bench = run_bench(ds, configs, seeds=(1,))
        assert len(bench.records) == 3 and calls == {"train": 2 * 3}
        assert harness.grid_inputs(ds).heads == {}

    def test_each_setting_of_the_fit_has_its_own_head(self, monkeypatch):
        calls = count_calls(monkeypatch, "train")
        ds = small_dataset()
        base = RunConfig(strategy=QuerySpec("random"), iterations=1, train=fast_train())
        variants = [
            base,
            replace(base, strategy=QuerySpec("margins")),  # shares base's head
            replace(base, train=TrainConfig(dropout_rho=0.25, epochs=41)),
            replace(base, budget=3),
            replace(base, semisupervised=True),
            replace(base, init="centroid"),
        ]
        for config in variants:
            run_al(ds, config, seed=1)
        run_al(ds, base, seed=2)
        assert calls == {"train": 6}
        keys = set(harness.grid_inputs(ds).heads)
        assert len(keys) == 6
        assert {key[:3] for key in keys} == {
            ("random", 4, 1), ("random", 3, 1), ("centroid", 4, 1), ("random", 4, 2)
        }

    def test_start_hands_each_cell_its_round_one_head(self):
        ds = small_dataset()
        config = RunConfig(strategy=QuerySpec("random"), iterations=2, train=fast_train())
        cell = harness.start(ds, config, seed=1)
        (head,) = harness.grid_inputs(ds).heads.values()
        assert cell.head is head
        assert harness.start(ds, replace(config, strategy=QuerySpec("margins")), 1).head is head
        harness.finish_round(cell, cell.head)
        assert cell.head is None and not cell.done  # round 2 is the cell's own fit
        assert harness.start(ds, replace(config, init="own"), seed=1).head is None

    def test_cached_heads_are_read_only(self):
        ds = small_dataset()
        run_bench(ds, [semisup_centroid("margins")], seeds=(1,))
        run_al(ds, RunConfig(strategy=QuerySpec("random"), iterations=1, train=fast_train()), seed=1)
        heads = harness.grid_inputs(ds).heads
        assert len(heads) == 2
        for clf in heads.values():
            for array in (clf.weights, clf.bias):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_diverging_round_one_is_not_cached(self, monkeypatch):
        configs = [RunConfig(strategy=QuerySpec(kind), iterations=2, train=diverging_train())
                   for kind in ("random", "entropy", "coreset")]
        solo = []
        with np.errstate(over="ignore", invalid="ignore"):
            for config in configs:
                with pytest.raises(TrainingDiverged) as err:
                    run_al(small_dataset(), config, seed=1)
                solo.append((config.strategy.strategy_id(), 1, f"TrainingDiverged: {err.value}"))
            ds = small_dataset()
            calls = count_calls(monkeypatch, "train")
            for config in configs:
                with pytest.raises(TrainingDiverged):
                    run_al(ds, config, seed=1)
            assert calls == {"train": 3}
            batches = count_batches(monkeypatch)
            bench = run_bench(ds, configs, seeds=(1,))
        # each of the grid's three cells refit round 1 in ``start`` and failed there
        assert batches == [] and calls == {"train": 6}
        assert not bench.records and bench.failures == sorted(solo)
        assert harness.grid_inputs(ds).heads == {}


@pytest.mark.parametrize("field", ["budget", "iterations"])
@pytest.mark.parametrize("value", [2.5, True])
def test_non_integral_counts_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        RunConfig(strategy=QuerySpec("random"), **{field: value})


def test_numpy_integer_counts_run_like_ints():
    ds = small_dataset()
    records = [
        run_al(ds, RunConfig(QuerySpec("margins"), iterations=it, budget=b, train=fast_train()), seed=2)
        for it, b in ((np.int64(2), np.int64(3)), (2, 3))
    ]
    assert astuple(records[0]) == astuple(records[1])
    assert [row.labeled_count for row in records[0].rows] == [3, 6]
