"""Command-line surface: dataset synthesis, runs, benchmark grids, win matrices.

Records go to CSV (one row per iteration) with a JSON config echo beside them,
so any plotting stack can consume the output directly. Exit codes: 0 success,
2 usage error, 1 runtime failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .classifier import TrainConfig
from .dataset_io import generate_synthetic, load_dataset, save_dataset
from .harness import DEFAULT_SEEDS, INIT_MODES, RunConfig, RunRecord, IterationRow, run_bench
from .stats import win_matrix, win_matrix_to_csv, win_matrix_to_json
from .strategies import STRATEGY_KINDS, QuerySpec

SCHEMA_VERSION = 1
RECORD_HEADER = ["strategy", "seed", "iteration", "labeled", "accuracy", "candidate_fraction"]


def _parse_seeds(text: str):
    """``--seeds``: a non-empty comma-separated list of distinct integers."""
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        seeds = ()
    if not seeds or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated integers, got {text!r}")
    return seeds


def _parse_strategies(text: str):
    """``--strategies``: a non-empty comma-separated list of distinct strategy kinds."""
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    unknown = [k for k in kinds if k not in STRATEGY_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown strategy kind {unknown[0]!r}; choose from {', '.join(STRATEGY_KINDS)}"
        )
    if not kinds or len(set(kinds)) != len(kinds):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated kinds, got {text!r}")
    return kinds


def _build_spec(kind: str, args) -> QuerySpec:
    # every QuerySpec field but kind is the dest of one query flag
    return QuerySpec(
        kind, **{f.name: getattr(args, f.name) for f in fields(QuerySpec) if f.name != "kind"}
    )


def _build_train(args) -> TrainConfig:
    return TrainConfig(dropout_rho=args.dropout_rho, epochs=args.epochs)


def _build_config(args, spec: QuerySpec) -> RunConfig:
    return RunConfig(
        strategy=spec,
        iterations=args.iterations,
        budget=args.budget,
        init=args.init,
        train=_build_train(args),
        semisupervised=args.semisup,
    )


def _records_to_rows(records):
    rows = []
    for rec in records:
        for row in rec.rows:
            frac = "" if row.candidate_fraction is None else repr(row.candidate_fraction)
            rows.append(
                [rec.strategy, rec.seed, row.iteration, row.labeled_count, repr(row.accuracy), frac]
            )
    return rows


def _writable(out_dir: Path, names, force: bool):
    """Paths of ``names`` under ``out_dir`` (created); refuses existing files without --force."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    for path in paths:
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; pass --force to overwrite")
    return paths


def _write_results(out_dir: Path, records, config_echo: dict, force: bool):
    records_path, config_path = _writable(out_dir, ("records.csv", "config.json"), force)
    with open(records_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RECORD_HEADER)
        writer.writerows(_records_to_rows(records))
    with open(config_path, "w") as f:
        json.dump(config_echo, f, indent=2, default=str)
    return records_path


def _read_records(path: Path):
    """Load RunRecords back from a results file or directory."""
    path = Path(path)
    if path.is_dir():
        path = path / "records.csv"
    if not path.exists():
        raise FileNotFoundError(f"results file not found: {path}")
    by_cell = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != RECORD_HEADER:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        for row in reader:
            try:
                key = (row["strategy"], int(row["seed"]))
                frac = row["candidate_fraction"]
                parsed = IterationRow(
                    iteration=int(row["iteration"]),
                    labeled_count=int(row["labeled"]),
                    accuracy=float(row["accuracy"]),
                    candidate_fraction=None if frac == "" else float(frac),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            by_cell.setdefault(key, RunRecord(strategy=key[0], seed=key[1])).rows.append(parsed)
    if not by_cell:
        raise ValueError(f"{path}: no records below the header")
    records = list(by_cell.values())
    for rec in records:
        rec.rows.sort(key=lambda r: r.iteration)
        # win_fraction reads iterations 1..N of every cell
        for expected, row in enumerate(rec.rows, start=1):
            if row.iteration != expected:
                raise ValueError(
                    f"{path}: strategy {rec.strategy!r}, seed {rec.seed}, iteration {row.iteration}: "
                    f"expected iterations 1..{len(rec.rows)}, each once"
                )
    return records


def _config_echo(command: str, args, configs) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "data": args.data,
        "strategies": [asdict(c.strategy) for c in configs],
        "iterations": args.iterations,
        "seeds": list(args.seeds),
        "budget": args.budget,
        "init": args.init,
        "train": asdict(_build_train(args)),
        "semisup": args.semisup,
    }


def cmd_synth(args) -> int:
    ds = generate_synthetic(args.classes, args.per_class, args.dim, args.sep, args.seed)
    manifest = save_dataset(ds, args.out, force=args.force)
    print(manifest)
    return 0


def _run_grid(args, kinds, command: str) -> int:
    configs = [_build_config(args, _build_spec(kind, args)) for kind in kinds]
    dataset = load_dataset(args.data)
    bench = run_bench(dataset, configs, args.seeds)
    echo = _config_echo(command, args, configs)
    path = _write_results(Path(args.out), bench.records, echo, args.force)
    print(path)
    for sid, seed, message in bench.failures:
        print(f"FAILED {sid} seed={seed}: {message}", file=sys.stderr)
    return 1 if bench.failures else 0


def cmd_run(args) -> int:
    return _run_grid(args, [args.strategy], "run")


def cmd_bench(args) -> int:
    return _run_grid(args, args.strategies, "bench")


def cmd_stats(args) -> int:
    grouped = {str(path): _read_records(Path(path)) for path in args.results}
    wm = win_matrix(grouped)
    csv_path, json_path = _writable(Path(args.out), ("win_matrix.csv", "win_matrix.json"), args.force)
    csv_path.write_text(win_matrix_to_csv(wm))
    json_path.write_text(win_matrix_to_json(wm))
    print(csv_path)
    return 0


def _add_query_flags(p: argparse.ArgumentParser):
    p.add_argument("--seeds", type=_parse_seeds, default=DEFAULT_SEEDS,
                   help="comma-separated distinct run seeds")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--budget", type=int, default=None,
                   help="labels per iteration (default: number of classes)")
    p.add_argument("--init", choices=INIT_MODES, default="random")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--m", type=int, default=QuerySpec.dq_m, dest="dq_m",
                   help="dropout votes per point (dropquery)")
    p.add_argument("--rho", type=float, default=TrainConfig.dropout_rho, dest="dropout_rho",
                   help="feature dropout ratio of training, bald/powerbald, inference "
                        "dropout and dropquery")
    p.add_argument("--diversify", action="store_true",
                   help="cluster the top-K*B shortlist instead of plain top-B")
    p.add_argument("--inference-dropout", action="store_true", dest="inference_dropout",
                   help="score under one dropout-perturbed forward pass (with --diversify)")
    p.add_argument("--dq-literal", action="store_true", dest="dq_literal",
                   help="use the keep-consistent candidate predicate variant")
    p.add_argument("--semisup", action="store_true")
    p.add_argument("--force", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alcove",
                                     description="Active learning on precomputed embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", type=int, required=True, dest="per_class")
    p_synth.add_argument("--dim", type=int, required=True)
    p_synth.add_argument("--sep", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--force", action="store_true")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run one strategy across seeds")
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--strategy", required=True, choices=STRATEGY_KINDS)
    _add_query_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a strategy grid")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--strategies", type=_parse_strategies, default=",".join(STRATEGY_KINDS),
                         help="comma-separated distinct strategy kinds")
    _add_query_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser("stats", help="win matrices from results files")
    p_stats.add_argument("results", nargs="+", help="results dirs or records.csv paths")
    p_stats.add_argument("--out", required=True)
    p_stats.add_argument("--force", action="store_true")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
