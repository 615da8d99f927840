import numpy as np
import pytest

from alcove.classifier import TrainConfig
from alcove.dataset_io import EmbeddingDataset, generate_synthetic
from alcove import harness
from alcove.harness import LabelOracle, RunConfig, run_al, run_bench
from alcove.semisup import label_propagate
from alcove.strategies import QuerySpec, StrategyUnavailable


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
        assert rec.rows[-1].truncated
        assert not rec.rows[0].truncated
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
    @pytest.mark.parametrize("setting", [{"budget": 0}, {"budget": -2}, {"iterations": 0}])
    def test_bad_settings_rejected_at_construction(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            RunConfig(strategy=QuerySpec("random"), **setting)


class TestRunBench:
    def test_single_cell_equals_run_al(self):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("margins"), iterations=2, seeds=(7,), train=fast_train()
        )
        bench = run_bench(ds, [QuerySpec("margins")], cfg)
        direct = run_al(ds, cfg, seed=7)
        assert len(bench.records) == 1
        assert [r.accuracy for r in bench.records[0].rows] == [r.accuracy for r in direct.rows]

    def test_grid_shape_and_order(self):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("random"), iterations=1, seeds=(2, 1), train=fast_train()
        )
        bench = run_bench(ds, [QuerySpec("random"), QuerySpec("entropy")], cfg)
        assert len(bench.records) == 4
        assert [(r.strategy, r.seed) for r in bench.records] == [
            ("entropy", 1),
            ("entropy", 2),
            ("random", 1),
            ("random", 2),
        ]

    def test_cell_failure_does_not_abort_grid(self):
        ds = small_dataset()
        cfg = RunConfig(
            strategy=QuerySpec("random"),
            iterations=1,
            seeds=(3,),
            init="own",
            train=fast_train(),
        )
        bench = run_bench(ds, [QuerySpec("alfamix"), QuerySpec("random")], cfg)
        assert len(bench.records) == 1
        assert bench.records[0].strategy == "random"
        assert len(bench.failures) == 1
        assert bench.failures[0][0] == "alfamix"
