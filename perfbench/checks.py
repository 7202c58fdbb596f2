"""Property checks on the results and exports of one Monte Carlo experiment."""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

from oracle import CheckError

OA_SLACK = 1e-12


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def check_experiment(config, result, out_dir) -> str:
    """Check a MonteCarloResult and its exports; return the sha256 of aggregate.csv."""
    k = config.synthetic.class_count
    rounds = config.round_count
    seeds = list(result.seeds)
    grid = [k * config.per_class_seed + r * config.batch_per_round for r in range(rounds + 1)]
    _require(list(result.labeled_counts) == grid,
             f"labeled_count grid {list(result.labeled_counts)} != {grid}")

    for seed, curve in zip(seeds, result.curves):
        _require([int(c) for c in curve.labeled_counts] == grid,
                 f"seed {seed}: labeled_count grid {list(curve.labeled_counts)} != {grid}")
        for record in curve.records:
            oa = record.overall_accuracy
            per_class = [float(v) for v in record.per_class_accuracy if not math.isnan(v)]
            _require(0.0 <= oa <= 1.0, f"seed {seed} round {record.round}: OA {oa} outside [0, 1]")
            _require(min(per_class) - OA_SLACK <= oa <= max(per_class) + OA_SLACK,
                     f"seed {seed} round {record.round}: OA {oa} outside per-class range "
                     f"[{min(per_class)}, {max(per_class)}]")

    out = Path(out_dir)
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(seeds) * (rounds + 1),
             f"aggregate.csv has {len(rows)} rows, expected {len(seeds) * (rounds + 1)}")
    expected = [(seed, record) for seed, curve in zip(seeds, result.curves) for record in curve.records]
    for row, (seed, record) in zip(rows, expected):
        _require(int(row["seed"]) == seed and int(row["round"]) == record.round,
                 f"aggregate.csv row order: got seed {row['seed']} round {row['round']}, "
                 f"expected seed {seed} round {record.round}")
        _require(float(row["oa"]) == record.overall_accuracy,
                 f"aggregate.csv seed {seed} round {record.round}: oa {row['oa']} != "
                 f"{record.overall_accuracy!r}")

    with open(out / "agreement.csv", newline="") as fh:
        agreement_rows = list(csv.DictReader(fh))
    if config.strategy.startswith("aedl-"):
        sums = defaultdict(int)
        for row in agreement_rows:
            size = int(row["majority_size"])
            _require(1 <= size <= config.committee_size,
                     f"agreement.csv majority size {size} outside [1, {config.committee_size}]")
            sums[(int(row["seed"]), int(row["round"]))] += int(row["count"])
        keys = {(seed, r) for seed in seeds for r in range(rounds + 1)}
        _require(set(sums) == keys, "agreement.csv does not cover every (seed, round)")
        bad = [key for key, total in sums.items() if total != config.test_size]
        _require(not bad, f"agreement.csv counts of (seed, round) {bad[:1]} do not sum to "
                          f"test_size {config.test_size}")
    else:
        _require(not agreement_rows, f"{config.strategy} wrote {len(agreement_rows)} agreement rows")

    mean_oa = [float(v) for v in result.mean_oa]
    _require(mean_oa[-1] > 1.0 / k, f"terminal mean OA {mean_oa[-1]} is not above chance 1/{k}")
    _require(mean_oa[-1] >= mean_oa[0],
             f"terminal mean OA {mean_oa[-1]} is below round 0 ({mean_oa[0]})")
    return hashlib.sha256((out / "aggregate.csv").read_bytes()).hexdigest()
