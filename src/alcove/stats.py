"""Paired significance tests and win matrices across strategies and datasets.

A strategy i "surpasses" strategy j at an iteration when the paired statistic
sqrt(5) * mean(diffs) / std(diffs) exceeds 2.776, with std normalized by 1/5
exactly as the protocol prints it (not the 1/4 sample variance). 2.776 is the
two-sided p=0.05 Student-t quantile at 4 degrees of freedom.
"""

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

T_CRITICAL = 2.776
NUM_SEEDS = 5


@dataclass
class WinMatrix:
    """Pairwise win fractions, summed across dataset settings."""

    strategies: list
    wins: np.ndarray  # (s, s), entry [i][j] = sum over datasets of win fraction of i over j
    per_dataset: dict = field(default_factory=dict)


def paired_t_stat(diffs) -> float:
    """The printed statistic over exactly 5 paired differences.

    sigma = 0 degenerates: +inf when the mean is positive (counted as a win),
    -inf when negative, 0 when every difference is zero.
    """
    d = np.asarray(diffs, dtype=np.float64)
    if d.shape != (NUM_SEEDS,):
        raise ValueError(f"expected exactly {NUM_SEEDS} paired differences, got shape {d.shape}")
    mu = d.mean()
    sigma = np.sqrt(((d - mu) ** 2).mean())
    if sigma == 0.0:
        if mu > 0:
            return float("inf")
        if mu < 0:
            return float("-inf")
        return 0.0
    return float(np.sqrt(NUM_SEEDS) * mu / sigma)


def _accuracy_table(records) -> dict:
    """{seed: {iteration: accuracy}} for one strategy's records; a repeated
    (seed, iteration), within one record or across two, is a ValueError."""
    table = {}
    for rec in records:
        accs = table.setdefault(rec.seed, {})
        for row in rec.rows:
            if row.iteration in accs:
                raise ValueError(
                    f"repeated row: strategy {rec.strategy!r}, seed {rec.seed}, "
                    f"iteration {row.iteration}"
                )
            accs[row.iteration] = row.accuracy
    return table


def check_iterations(record) -> None:
    """ValueError unless ``record``'s rows hold iterations 1..N, each once,
    naming its strategy, seed and first misplaced iteration; ``win_fraction``
    reads iterations 1..N of every record."""
    iterations = sorted(row.iteration for row in record.rows)
    for expected, iteration in enumerate(iterations, start=1):
        if iteration != expected:
            raise ValueError(
                f"strategy {record.strategy!r}, seed {record.seed}, iteration {iteration}: "
                f"expected iterations 1..{len(iterations)}, each once"
            )


def win_fraction(records_i, records_j, iterations: int) -> float:
    """Fraction of the first ``iterations`` rounds where i significantly beats j."""
    acc_i = _accuracy_table(records_i)
    acc_j = _accuracy_table(records_j)
    seeds = sorted(acc_i)
    if sorted(acc_j) != seeds:
        raise ValueError("records_i and records_j cover different seed sets")
    wins = 0
    for r in range(1, iterations + 1):
        diffs = [acc_i[s][r] - acc_j[s][r] for s in seeds]
        if paired_t_stat(diffs) > T_CRITICAL:
            wins += 1
    return wins / iterations


def win_matrix(records_by_dataset: dict) -> WinMatrix:
    """Per-dataset win fractions summed across datasets.

    ``records_by_dataset`` maps a dataset name to that setting's RunRecords
    (all strategies, all seeds). Strategy ids are ordered alphabetically;
    iterations per dataset truncate to the shortest record. A dataset with
    no records, or a record with no rows or with iterations other than
    1..N, is a ValueError naming it.
    """
    names = sorted(records_by_dataset)
    strategies = sorted({rec.strategy for recs in records_by_dataset.values() for rec in recs})
    s = len(strategies)
    total = np.zeros((s, s))
    per_dataset = {}
    for name in names:
        recs = records_by_dataset[name]
        if not recs:
            raise ValueError(f"dataset {name!r}: no records")
        for rec in recs:
            if not rec.rows:
                raise ValueError(
                    f"dataset {name!r}: strategy {rec.strategy!r}, seed {rec.seed} has no rows"
                )
            try:
                check_iterations(rec)
            except ValueError as exc:
                raise ValueError(f"dataset {name!r}: {exc}") from None
        grouped = {sid: [r for r in recs if r.strategy == sid] for sid in strategies}
        seed_sets = {sid: sorted(r.seed for r in g) for sid, g in grouped.items() if g}
        distinct = {tuple(v) for v in seed_sets.values()}
        if len(distinct) > 1:
            raise ValueError(f"dataset {name!r}: strategies ran with mismatched seed sets")
        iters = min(len(rec.rows) for rec in recs)
        mat = np.zeros((s, s))
        for i, sid_i in enumerate(strategies):
            for j, sid_j in enumerate(strategies):
                if i == j or not grouped[sid_i] or not grouped[sid_j]:
                    continue
                try:
                    mat[i, j] = win_fraction(grouped[sid_i], grouped[sid_j], iters)
                except ValueError as exc:  # name the result set the records came from
                    raise ValueError(f"dataset {name!r}: {exc}") from None
        per_dataset[name] = mat
        total += mat
    return WinMatrix(strategies=strategies, wins=total, per_dataset=per_dataset)


def win_matrix_to_csv(wm: WinMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy"] + wm.strategies)
    for i, sid in enumerate(wm.strategies):
        writer.writerow([sid] + [repr(float(v)) for v in wm.wins[i]])
    return buf.getvalue()


def win_matrix_to_json(wm: WinMatrix) -> str:
    payload = {
        "strategies": wm.strategies,
        "wins": wm.wins.tolist(),
        "per_dataset": {name: mat.tolist() for name, mat in wm.per_dataset.items()},
    }
    return json.dumps(payload, indent=2)
