import math

import numpy as np
import pytest
import scipy.stats

from alcove.harness import IterationRow, RunRecord
from alcove.stats import (
    T_CRITICAL,
    paired_t_stat,
    win_fraction,
    win_matrix,
    win_matrix_to_csv,
    win_matrix_to_json,
)

from oracles import aggregate_records


def make_records(strategy, accuracies_by_seed):
    """accuracies_by_seed: {seed: [acc at t=1, acc at t=2, ...]}"""
    records = []
    for seed, accs in accuracies_by_seed.items():
        rec = RunRecord(strategy=strategy, seed=seed)
        for t, acc in enumerate(accs, start=1):
            rec.rows.append(IterationRow(iteration=t, labeled_count=t, accuracy=acc))
        records.append(rec)
    return records


class TestPairedTStat:
    def test_zero_mean(self):
        assert paired_t_stat([1, -1, 0, 0, 0]) == 0.0

    def test_degenerate_all_equal_positive_wins(self):
        assert paired_t_stat([1, 1, 1, 1, 1]) == math.inf
        assert paired_t_stat([-1, -1, -1, -1, -1]) == -math.inf
        assert paired_t_stat([0, 0, 0, 0, 0]) == 0.0

    def test_printed_formula_value(self):
        # mu = 2, sigma = sqrt(4/5), c = sqrt(5)*2/sigma = 5 exactly
        assert paired_t_stat([2, 1, 3, 1, 3]) == 5.0

    def test_requires_exactly_five(self):
        with pytest.raises(ValueError):
            paired_t_stat([1, 2, 3])

    def test_threshold_matches_t_quantile(self):
        assert abs(T_CRITICAL - scipy.stats.t.ppf(0.975, df=4)) < 1e-3

    def test_antisymmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.normal(size=5)
            assert paired_t_stat(d) == pytest.approx(-paired_t_stat(-d))


class TestWinFraction:
    def test_identical_records_zero(self):
        accs = {s: [0.5, 0.6, 0.7] for s in (1, 10, 100, 1000, 10000)}
        a = make_records("a", accs)
        b = make_records("b", accs)
        assert win_fraction(a, b, 3) == 0.0

    def test_uniform_winner_fraction_one(self):
        rng = np.random.default_rng(1)
        base = {s: [0.5 + 0.001 * rng.random() for _ in range(4)] for s in (1, 2, 3, 4, 5)}
        better = {s: [v + 0.3 + 0.01 * rng.random() for v in base[s]] for s in base}
        assert win_fraction(make_records("i", better), make_records("j", base), 4) == 1.0

    def test_single_significant_iteration_gives_one_third(self):
        # iteration 2 diffs = [2,1,3,1,3] -> c = 5.0 > 2.776; others c = 0
        base = {s: [0.0, 0.0, 0.0] for s in (1, 2, 3, 4, 5)}
        boosted = {
            1: [0.0, 2.0, 0.0],
            2: [0.0, 1.0, 0.0],
            3: [0.0, 3.0, 0.0],
            4: [0.0, 1.0, 0.0],
            5: [0.0, 3.0, 0.0],
        }
        got = win_fraction(make_records("i", boosted), make_records("j", base), 3)
        assert got == pytest.approx(1 / 3)

    def test_mismatched_seeds_rejected(self):
        a = make_records("a", {s: [0.5] for s in (1, 2, 3, 4, 5)})
        b = make_records("b", {s: [0.5] for s in (1, 2, 3, 4, 6)})
        with pytest.raises(ValueError):
            win_fraction(a, b, 1)

    def test_repeated_row_in_one_record_rejected(self):
        a = make_records("a", {s: [0.5, 0.6] for s in (1, 2, 3, 4, 5)})
        b = make_records("b", {s: [0.5, 0.6] for s in (1, 2, 3, 4, 5)})
        a[0].rows.append(IterationRow(iteration=2, labeled_count=2, accuracy=0.9))
        with pytest.raises(ValueError, match="strategy 'a', seed 1, iteration 2"):
            win_fraction(a, b, 2)

    def test_repeated_seed_across_two_records_rejected(self):
        a = make_records("a", {s: [0.5, 0.6] for s in (1, 2, 3, 4, 5)})
        b = make_records("b", {s: [0.5, 0.6] for s in (1, 2, 3, 4, 5)})
        with pytest.raises(ValueError, match="strategy 'b', seed 3, iteration 1"):
            win_fraction(a, b + make_records("b", {3: [0.9, 0.9]}), 2)

    def test_never_both_positive_at_same_iteration(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            diffs = rng.normal(size=5)
            i_beats = paired_t_stat(diffs) > T_CRITICAL
            j_beats = paired_t_stat(-diffs) > T_CRITICAL
            assert not (i_beats and j_beats)


class TestWinMatrix:
    def two_strategy_dataset(self):
        rng = np.random.default_rng(3)
        base = {s: [0.4 + 0.001 * rng.random() for _ in range(5)] for s in (1, 2, 3, 4, 5)}
        better = {s: [v + 0.2 + 0.005 * rng.random() for v in base[s]] for s in base}
        return make_records("winner", better) + make_records("loser", base)

    def test_one_dataset_dominant_strategy(self):
        wm = win_matrix({"ds": self.two_strategy_dataset()})
        i = wm.strategies.index("winner")
        j = wm.strategies.index("loser")
        assert wm.wins[i, j] == 1.0
        assert wm.wins[j, i] == 0.0
        assert wm.wins[i, i] == 0.0

    def test_duplicated_dataset_doubles_entries(self):
        recs = self.two_strategy_dataset()
        single = win_matrix({"ds": recs})
        double = win_matrix({"ds1": recs, "ds2": recs})
        assert np.allclose(double.wins, 2 * single.wins)

    def test_serialization_round_trip(self):
        import csv as csv_mod
        import io
        import json

        wm = win_matrix({"ds": self.two_strategy_dataset()})
        text = win_matrix_to_csv(wm)
        rows = list(csv_mod.reader(io.StringIO(text)))
        assert rows[0] == ["strategy"] + wm.strategies
        payload = json.loads(win_matrix_to_json(wm))
        assert payload["strategies"] == wm.strategies
        assert np.allclose(payload["wins"], wm.wins)
        assert "ds" in payload["per_dataset"]

    def test_mismatched_seed_counts_rejected(self):
        recs = self.two_strategy_dataset()
        recs = [r for r in recs if not (r.strategy == "loser" and r.seed == 5)]
        recs += make_records("loser", {6: [0.4] * 5})
        with pytest.raises(ValueError):
            win_matrix({"ds": recs})


    def test_dataset_without_records_rejected(self):
        with pytest.raises(ValueError, match="dataset 'a': no records"):
            win_matrix({"a": []})
        with pytest.raises(ValueError, match="dataset 'b': no records"):
            win_matrix({"a": self.two_strategy_dataset(), "b": []})

    @pytest.mark.parametrize("iterations, first_bad", [((0, 1, 2), 0), ((1, 3), 3), ((1, 2, 2), 2)])
    def test_iterations_other_than_one_to_n_name_the_record(self, iterations, first_bad):
        recs = self.two_strategy_dataset()
        for rec in recs[5:]:
            rec.rows = [IterationRow(iteration=t, labeled_count=t, accuracy=0.5) for t in iterations]
        with pytest.raises(ValueError) as err:
            win_matrix({"ds": recs})
        assert str(err.value) == (
            f"dataset 'ds': strategy '{recs[5].strategy}', seed {recs[5].seed}, "
            f"iteration {first_bad}: expected iterations 1..{len(iterations)}, each once"
        )

    def test_record_without_rows_rejected(self):
        recs = self.two_strategy_dataset() + make_records("empty", {s: [] for s in (1, 2, 3, 4, 5)})
        with pytest.raises(ValueError, match="dataset 'ds': strategy 'empty', seed 1 has no rows"):
            win_matrix({"ds": recs})

def test_aggregate_matches_two_pass_reference():
    rng = np.random.default_rng(4)
    accs = {s: rng.random(6).tolist() for s in (1, 2, 3, 4, 5)}
    records = make_records("x", accs)
    agg = aggregate_records(records)
    for t in range(1, 7):
        vals = [accs[s][t - 1] for s in (1, 2, 3, 4, 5)]
        mean = sum(vals) / 5
        var = sum((v - mean) ** 2 for v in vals) / 5
        got_mean, got_std = agg[("x", t)]
        assert abs(got_mean - mean) < 1e-12
        assert abs(got_std - math.sqrt(var)) < 1e-12
