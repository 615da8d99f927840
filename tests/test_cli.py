import argparse
import csv
import json
from dataclasses import fields

import pytest

from alcove.classifier import TrainConfig
from alcove.cli import _build_config, _build_spec, build_parser, main
from alcove.strategies import QuerySpec


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        "synth", "--classes", "4", "--per-class", "30", "--dim", "8",
        "--sep", "4", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    return out


def read_records(path):
    with open(path / "records.csv", newline="") as f:
        return list(csv.reader(f))


class TestSynth:
    def test_manifest_written(self, dataset_dir):
        assert (dataset_dir / "dataset.json").exists()
        assert (dataset_dir / "features.bin").stat().st_size == 120 * 8 * 4

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--classes", "4", "--per-class", "20", "--dim", "8")
        assert err.value.code == 2

    def test_repeat_invocations_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli(
                "synth", "--classes", "3", "--per-class", "10", "--dim", "4",
                "--sep", "2", "--seed", "9", "--out", str(tmp_path / name),
            ) == 0
        assert (tmp_path / "a" / "features.bin").read_bytes() == (
            tmp_path / "b" / "features.bin"
        ).read_bytes()

    def test_refuses_overwrite_without_force(self, dataset_dir):
        code = run_cli(
            "synth", "--classes", "4", "--per-class", "30", "--dim", "8",
            "--sep", "4", "--seed", "1", "--out", str(dataset_dir),
        )
        assert code == 1


class TestRun:
    def test_default_iterations_yield_20_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "res"
        code = run_cli(
            "run", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "dropquery", "--seeds", "1", "--epochs", "30",
        )
        assert code == 0
        rows = read_records(out)
        assert rows[0] == ["strategy", "seed", "iteration", "labeled", "accuracy", "candidate_fraction"]
        assert len(rows) == 1 + 20

    def test_config_echo_shows_overrides(self, dataset_dir, tmp_path):
        out = tmp_path / "res"
        code = run_cli(
            "run", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "dropquery", "--seeds", "1", "--iterations", "2",
            "--m", "5", "--rho", "0.6", "--epochs", "30",
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["strategies"][0]["dq_m"] == 5
        assert echo["train"]["dropout_rho"] == 0.6
        assert echo["schema_version"] == 1

    def test_unknown_strategy_is_usage_error(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "run", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                "--strategy", "mystery",
            )
        assert err.value.code == 2

    def test_bad_dataset_path_is_runtime_error(self, tmp_path):
        code = run_cli(
            "run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "res"),
            "--strategy", "random",
        )
        assert code == 1

    def test_alfamix_own_init_surfaces_guidance(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--data", str(dataset_dir), "--out", str(tmp_path / "res"),
            "--strategy", "alfamix", "--init", "own", "--seeds", "1",
            "--iterations", "1", "--epochs", "30",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "alfamix" in err and "initial pool" in err

    def test_rerun_requires_force_then_reproduces_bytes(self, dataset_dir, tmp_path):
        out = tmp_path / "res"
        args = (
            "run", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "margins", "--seeds", "1,10", "--iterations", "2",
            "--epochs", "30",
        )
        assert run_cli(*args) == 0
        first = (out / "records.csv").read_bytes()
        assert run_cli(*args) == 1  # refuses to overwrite
        assert run_cli(*args, "--force") == 0
        assert (out / "records.csv").read_bytes() == first


class TestBench:
    def test_three_strategy_grid(self, dataset_dir, tmp_path):
        out = tmp_path / "res"
        code = run_cli(
            "bench", "--data", str(dataset_dir), "--out", str(out),
            "--strategies", "random,margins,dropquery", "--seeds", "1,10",
            "--iterations", "2", "--epochs", "30",
        )
        assert code == 0
        rows = read_records(out)[1:]
        assert len(rows) == 3 * 2 * 2
        assert {r[0] for r in rows} == {"random", "margins", "dropquery"}

    def test_iterations_flag_truncates(self, dataset_dir, tmp_path):
        out = tmp_path / "res"
        run_cli(
            "bench", "--data", str(dataset_dir), "--out", str(out),
            "--strategies", "random", "--seeds", "1", "--iterations", "5",
            "--epochs", "30",
        )
        assert len(read_records(out)) == 1 + 5

    @pytest.mark.parametrize(
        "kinds", ["random,mystery", "random,random", "margins,random,margins", ",", ""]
    )
    def test_bad_strategy_lists_are_usage_errors(self, dataset_dir, tmp_path, kinds):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as err:
            run_cli(
                "bench", "--data", str(dataset_dir), "--out", str(out),
                "--strategies", kinds, "--seeds", "1", "--iterations", "1",
            )
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,1", "1,10,1", ",", "", "1,x"])
    def test_bad_seed_lists_are_usage_errors(self, dataset_dir, tmp_path, seeds):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as err:
            run_cli(
                "bench", "--data", str(dataset_dir), "--out", str(out),
                "--strategies", "random", "--seeds", seeds, "--iterations", "1",
            )
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--epochs", "0"], ["--epochs", "-3"], ["--inference-dropout"]]
    )
    def test_rejected_settings_fail_before_writing(self, dataset_dir, tmp_path, flags):
        out = tmp_path / "res"
        code = run_cli(
            "bench", "--data", str(dataset_dir), "--out", str(out),
            "--strategies", "margins", "--seeds", "1", "--iterations", "1", *flags,
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--mc", "--beta", "--eps-scale", "--max-clusters", "--knn", "--purity"]
    )
    def test_baseline_hyperparameter_flags_are_gone(self, dataset_dir, tmp_path, flag):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as err:
            run_cli(
                "bench", "--data", str(dataset_dir), "--out", str(out),
                "--strategies", "random", "--seeds", "1", "--iterations", "1", flag, "5",
            )
        assert err.value.code == 2
        assert not out.exists()

    def test_query_flags_map_onto_spec_fields_and_defaults(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["bench"]._actions]
        for f in fields(QuerySpec):
            if f.name != "kind":
                assert dests.count(f.name) == 1, f.name
        args = parser.parse_args(["bench", "--data", "d", "--out", "o"])
        assert _build_spec("dropquery", args) == QuerySpec("dropquery")
        assert _build_config(args, QuerySpec("dropquery")).train == TrainConfig()


class TestStats:
    def make_results(self, dataset_dir, tmp_path, name, seeds="1,10,100,1000,10000"):
        out = tmp_path / name
        code = run_cli(
            "bench", "--data", str(dataset_dir), "--out", str(out),
            "--strategies", "margins,random", "--seeds", seeds,
            "--iterations", "2", "--epochs", "30",
        )
        assert code == 0
        return out

    def test_single_results_file_two_by_two(self, dataset_dir, tmp_path):
        res = self.make_results(dataset_dir, tmp_path, "res")
        out = tmp_path / "wm"
        assert run_cli("stats", str(res), "--out", str(out)) == 0
        payload = json.loads((out / "win_matrix.json").read_text())
        assert payload["strategies"] == ["margins", "random"]
        assert len(payload["wins"]) == 2

    def test_two_results_files_sum(self, dataset_dir, tmp_path):
        res = self.make_results(dataset_dir, tmp_path, "res")
        out_one = tmp_path / "wm1"
        out_two = tmp_path / "wm2"
        assert run_cli("stats", str(res), "--out", str(out_one)) == 0
        assert run_cli("stats", str(res), str(res / "records.csv"), "--out", str(out_two)) == 0
        one = json.loads((out_one / "win_matrix.json").read_text())
        two = json.loads((out_two / "win_matrix.json").read_text())
        for i in range(2):
            for j in range(2):
                assert two["wins"][i][j] == pytest.approx(2 * one["wins"][i][j])

    def test_pipeline_bench_to_stats_without_transformation(self, dataset_dir, tmp_path):
        res = self.make_results(dataset_dir, tmp_path, "res")
        assert run_cli("stats", str(res), "--out", str(tmp_path / "wm")) == 0
        assert (tmp_path / "wm" / "win_matrix.csv").exists()

    def test_mismatched_seed_counts_rejected(self, dataset_dir, tmp_path):
        res = self.make_results(dataset_dir, tmp_path, "res")
        # drop one strategy's seed rows to break pairing
        path = res / "records.csv"
        lines = path.read_text().splitlines()
        kept = [l for l in lines if not l.startswith("random,10,")]
        path.write_text("\n".join(kept) + "\n")
        assert run_cli("stats", str(res), "--out", str(tmp_path / "wm")) == 1

    def test_repeated_rows_rejected_before_writing(self, dataset_dir, tmp_path, capsys):
        res = self.make_results(dataset_dir, tmp_path, "res")
        path = res / "records.csv"
        copies = []
        for line in path.read_text().splitlines():
            if line.startswith("margins,1,"):
                fields_ = line.split(",")
                fields_[4] = "1.0"  # a changed accuracy
                copies.append(",".join(fields_))
        path.write_text(path.read_text() + "\n".join(copies) + "\n")
        out = tmp_path / "wm"
        assert run_cli("stats", str(res), "--out", str(out)) == 1
        assert "strategy 'margins', seed 1, iteration 1" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_seeds_name_the_result_set(self, dataset_dir, tmp_path, capsys):
        res = self.make_results(dataset_dir, tmp_path, "res", seeds="1,2,3")
        assert run_cli("stats", str(res), "--out", str(tmp_path / "wm")) == 1
        assert capsys.readouterr().err == (
            f"error: dataset {str(res)!r}: expected exactly 5 paired differences, got shape (3,)\n"
        )

    @pytest.mark.parametrize(
        "row, message",
        [(None, "error: {}: no records below the header\n"),
         ("margins,1,1,4,abc,", "error: {}, line 2: could not convert string to float: 'abc'\n"),
         ("margins,one,1,4,0.5,", "error: {}, line 2: invalid literal for int() with base 10: 'one'\n"),
         # the missing fields read as None; the wording of int(None)'s error varies by Python
         ("margins,1,1", "error: {}, line 2: int() argument must be ")],
        ids=["header-only", "bad-accuracy", "bad-seed", "short-row"],
    )
    def test_unreadable_records_name_the_file(self, tmp_path, capsys, row, message):
        path = tmp_path / "records.csv"
        path.write_text("strategy,seed,iteration,labeled,accuracy,candidate_fraction\n"
                        + ("" if row is None else row + "\n"))
        out = tmp_path / "wm"
        assert run_cli("stats", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(message.format(path))
        assert not out.exists()

    @pytest.mark.parametrize("iterations, first_bad", [((0, 1, 2), 0), ((1, 3), 3)], ids=["from-zero", "skipped"])
    def test_iterations_other_than_one_to_n_name_the_cell(self, tmp_path, capsys, iterations, first_bad):
        path = tmp_path / "records.csv"
        rows = [f"{kind},{seed},{t},{3 * t},0.5," for kind in ("margins", "random")
                for seed in (1, 2, 3, 4, 5) for t in iterations]
        path.write_text("\n".join(["strategy,seed,iteration,labeled,accuracy,candidate_fraction"] + rows) + "\n")
        out = tmp_path / "wm"
        assert run_cli("stats", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: strategy 'margins', seed 1, iteration {first_bad}: "
            f"expected iterations 1..{len(iterations)}, each once\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "contents, message",
        [(None, "error: results file not found: {}\n"),
         ("a,b\n1,2\n", "error: {}: unexpected header ['a', 'b']\n")],
        ids=["missing", "bad-header"],
    )
    def test_bad_results_file_rejected_before_writing(self, tmp_path, capsys, contents, message):
        path = tmp_path / "records.csv"
        if contents is not None:
            path.write_text(contents)
        out = tmp_path / "wm"
        assert run_cli("stats", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == message.format(path)
        assert not out.exists()
