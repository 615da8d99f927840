"""Command-line surface: dataset synthesis, runs, benchmark grids, win matrices.

Records go to CSV (one row per iteration) with a JSON config echo beside them,
so any plotting stack can consume the output directly. Exit codes: 0 success,
2 usage error, 1 runtime failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .classifier import TrainConfig
from .dataset_io import generate_synthetic, load_dataset, save_dataset
from .harness import DEFAULT_SEEDS, RunConfig, RunRecord, IterationRow, run_bench
from .stats import win_matrix, win_matrix_to_csv, win_matrix_to_json
from .strategies import STRATEGY_KINDS, QuerySpec

SCHEMA_VERSION = 1
RECORD_HEADER = ["strategy", "seed", "iteration", "labeled", "accuracy", "candidate_fraction"]


def _parse_seeds(text: str):
    return tuple(int(s) for s in text.split(",") if s.strip())


def _build_spec(kind: str, args) -> QuerySpec:
    return QuerySpec(
        kind=kind,
        diversify=args.diversify,
        inference_dropout=args.inference_dropout,
        mc_samples=args.mc,
        dq_m=args.m,
        dq_rho=args.rho,
        dq_literal=args.dq_literal,
        power_beta=args.beta,
        alfamix_eps_scale=args.eps_scale,
        typiclust_max_clusters=args.max_clusters,
        typiclust_knn=args.knn,
        probcover_purity=args.purity,
    )


def _build_config(args, spec: QuerySpec) -> RunConfig:
    train_cfg = TrainConfig(dropout_rho=args.rho, epochs=args.epochs)
    return RunConfig(
        strategy=spec,
        iterations=args.iterations,
        seeds=_parse_seeds(args.seeds),
        budget=args.budget,
        init=args.init,
        train=train_cfg,
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
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _write_results(out_dir: Path, records, config_echo: dict, force: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    config_path = out_dir / "config.json"
    for path in (records_path, config_path):
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; pass --force to overwrite")
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
            key = (row["strategy"], int(row["seed"]))
            rec = by_cell.setdefault(key, RunRecord(strategy=key[0], seed=key[1]))
            frac = row["candidate_fraction"]
            rec.rows.append(
                IterationRow(
                    iteration=int(row["iteration"]),
                    labeled_count=int(row["labeled"]),
                    accuracy=float(row["accuracy"]),
                    candidate_fraction=None if frac == "" else float(frac),
                )
            )
    records = list(by_cell.values())
    for rec in records:
        rec.rows.sort(key=lambda r: r.iteration)
    return records


def _config_echo(command: str, args, spec_list, config: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "data": args.data,
        "strategies": [asdict(s) for s in spec_list],
        "iterations": config.iterations,
        "seeds": list(config.seeds),
        "budget": config.budget,
        "init": config.init,
        "train": {
            "learning_rate": config.train.learning_rate,
            "weight_decay": config.train.weight_decay,
            "dropout_rho": config.train.dropout_rho,
            "epochs": config.train.epochs,
        },
        "semisup": config.semisupervised,
    }


def cmd_synth(args) -> int:
    ds = generate_synthetic(args.classes, args.per_class, args.dim, args.sep, args.seed)
    manifest = save_dataset(ds, args.out, force=args.force)
    print(manifest)
    return 0


def _run_grid(args, spec_list, command: str) -> int:
    dataset = load_dataset(args.data)
    config = _build_config(args, spec_list[0])
    bench = run_bench(dataset, spec_list, config)
    echo = _config_echo(command, args, spec_list, config)
    path = _write_results(Path(args.out), bench.records, echo, args.force)
    print(path)
    for sid, seed, message in bench.failures:
        print(f"FAILED {sid} seed={seed}: {message}", file=sys.stderr)
    return 1 if bench.failures else 0


def cmd_run(args) -> int:
    return _run_grid(args, [_build_spec(args.strategy, args)], "run")


def cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.strategies.split(",") if k.strip()]
    return _run_grid(args, [_build_spec(k, args) for k in kinds], "bench")


def cmd_stats(args) -> int:
    grouped = {str(path): _read_records(Path(path)) for path in args.results}
    wm = win_matrix(grouped)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "win_matrix.csv"
    json_path = out_dir / "win_matrix.json"
    for path in (csv_path, json_path):
        if path.exists() and not args.force:
            raise FileExistsError(f"{path} exists; pass --force to overwrite")
    csv_path.write_text(win_matrix_to_csv(wm))
    json_path.write_text(win_matrix_to_json(wm))
    print(csv_path)
    return 0


def _add_query_flags(p: argparse.ArgumentParser):
    p.add_argument("--seeds", default=",".join(str(s) for s in DEFAULT_SEEDS),
                   help="comma-separated run seeds")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--budget", type=int, default=None,
                   help="labels per iteration (default: number of classes)")
    p.add_argument("--init", choices=["random", "centroid", "own"], default="random")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--m", type=int, default=3, help="dropout votes per point (dropquery)")
    p.add_argument("--rho", type=float, default=0.75, help="feature dropout ratio")
    p.add_argument("--mc", type=int, default=20, help="MC dropout samples (BALD)")
    p.add_argument("--beta", type=float, default=1.0, help="powerbald exponent")
    p.add_argument("--purity", type=float, default=0.95, help="probcover purity threshold")
    p.add_argument("--eps-scale", type=float, default=0.2, dest="eps_scale")
    p.add_argument("--max-clusters", type=int, default=500, dest="max_clusters")
    p.add_argument("--knn", type=int, default=20, help="typicality neighbor count")
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
    p_bench.add_argument("--strategies", default=",".join(STRATEGY_KINDS))
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
