"""Command line: synthesize datasets, run experiments, sweep committee sizes,
and report sample-efficiency ratios and committee agreement from exported runs.

Set AEDL_THREADS to cap the BLAS thread count; it must take effect before
numpy is first imported, which is why the heavy imports happen inside main().
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import _BLAS_THREAD_VARS


def _apply_thread_override() -> None:
    threads = os.environ.get("AEDL_THREADS")
    if not threads:
        return
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aedl",
        description="Active-ensemble deep learning experiments on patch datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = sub.add_parser("dataset", help="dataset utilities")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    synth = dataset_sub.add_parser("synth", help="write a synthetic patch dataset")
    synth.add_argument("--spec", required=True, help="synthetic spec config file")
    synth.add_argument("--out", required=True, help="output dataset path")

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", help="output directory (overrides config output_dir)")

    sweep = sub.add_parser("sweep", help="committee-size sensitivity sweep")
    sweep.add_argument("--config", required=True, help="experiment config file")
    sweep.add_argument(
        "--committee-sizes", required=True,
        help="comma-separated sizes, e.g. 1,3,5,7,9",
    )
    sweep.add_argument("--out", help="output directory (overrides config output_dir)")

    report = sub.add_parser("report", help="summarize exported results")
    report.add_argument("--in", dest="in_dir", required=True, help="directory of exports")
    report.add_argument("--target-oa", type=float, default=0.85,
                        help="accuracy target for sample-count ratios")
    return parser


def _resolve_out_dir(cli_out, config) -> Path:
    out = cli_out or config.output_dir
    if out is None:
        raise SystemExit("no output directory: pass --out or set output_dir in the config")
    return Path(out)


def _cmd_dataset_synth(args) -> int:
    from .config import synthetic_spec_from_file
    from .data import generate_synthetic, save_dataset

    spec = synthetic_spec_from_file(args.spec)
    dataset = generate_synthetic(spec)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} patches "
          f"({dataset.patches.shape[1]}x{dataset.patches.shape[2]}x{dataset.patches.shape[3]}, "
          f"{dataset.class_count} classes) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    from .config import experiment_config_from_file
    from .experiment import export_results, run_monte_carlo

    config = experiment_config_from_file(args.config)
    out_dir = _resolve_out_dir(args.out, config)
    result = run_monte_carlo(config)
    written = export_results(result, out_dir)
    print(f"{config.strategy} on {config.network}: "
          f"{len(result.seeds)} runs, terminal OA "
          f"{result.mean_oa[-1]:.4f} +/- {result.std_oa[-1]:.4f}")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    from .config import experiment_config_from_file
    from .experiment import export_results, sensitivity_sweep

    config = experiment_config_from_file(args.config)
    out_dir = _resolve_out_dir(args.out, config)
    try:
        sizes = [int(s) for s in args.committee_sizes.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(f"bad --committee-sizes {args.committee_sizes!r}")
    results = sensitivity_sweep(config, sizes)
    for size, result in results.items():
        export_results(result, out_dir / f"n{size}")
        print(f"committee size {size}: terminal OA "
              f"{result.mean_oa[-1]:.4f} +/- {result.std_oa[-1]:.4f}")
    return 0


def _mean_curves_by_group(curves):
    """Average per-seed curves into one mean curve per (strategy, network)."""
    import numpy as np

    from .experiment import CurvePoints

    groups: dict[tuple[str, str], list] = {}
    for (strategy, network, _seed), curve in curves.items():
        groups.setdefault((strategy, network), []).append(curve)
    out = {}
    for key, members in groups.items():
        counts = members[0].labeled_counts
        if any(not np.array_equal(m.labeled_counts, counts) for m in members):
            print(f"skipped {key[0]} on {key[1]}: its seeds have different labeled-count grids")
            continue
        out[key] = CurvePoints(counts, np.mean([m.oas for m in members], axis=0))
    return out


def _cmd_report(args) -> int:
    import csv

    from .experiment import load_aggregate_csv, samples_to_target

    root = Path(args.in_dir)
    if not root.is_dir():
        raise SystemExit(f"not a directory: {root}")
    curves, owners = {}, {}
    for path in sorted(root.rglob("aggregate.csv")):
        for key, curve in load_aggregate_csv(path).items():
            # A sweep's exports repeat runs: merging would mix committee sizes.
            if key in curves:
                raise SystemExit(f"{owners[key]} and {path} both hold {key[0]} on {key[1]}, "
                                 f"seed {key[2]}; report each experiment's exports separately")
            curves[key], owners[key] = curve, path
    if not curves:
        raise SystemExit(f"no aggregate.csv files under {root}")
    means = _mean_curves_by_group(curves)

    print(f"samples to reach OA {args.target_oa:.2%} (mean curves):")
    for (strategy, network), curve in sorted(means.items()):
        crossing = samples_to_target(curve, curve, args.target_oa)
        reached = f"{crossing.samples_a:.1f}" if crossing.samples_a is not None else "unreached"
        print(f"  {strategy:8s} {network:8s} {reached}")
    keys = sorted(means)
    printed = False
    for a in keys:
        for b in keys:
            # Ratios compare strategies on one network, never across networks.
            if a >= b or a[1] != b[1]:
                continue
            crossing = samples_to_target(means[a], means[b], args.target_oa)
            if crossing.ratio is not None:
                if not printed:
                    print("pairwise sample ratios:")
                    printed = True
                print(f"  {a[0]}/{b[0]} on {a[1]}: {crossing.ratio:.3f}")

    # Final-round committee agreement, summed over seeds.
    tables: dict[tuple[str, str], dict[int, int]] = {}
    last_round: dict[tuple[str, str], int] = {}
    for path in sorted(root.rglob("agreement.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["strategy"], row["network"])
                rnd = int(row["round"])
                if rnd > last_round.get(key, -1):
                    last_round[key] = rnd
                    tables[key] = {}
                if rnd == last_round[key]:
                    m = int(row["majority_size"])
                    tables[key][m] = tables[key].get(m, 0) + int(row["count"])
    for key, counts in sorted(tables.items()):
        n = max(counts)
        total = sum(counts.values())
        print(f"agreement histogram, {key[0]} on {key[1]} (final round, all seeds):")
        for m in range(1, n + 1):
            print(f"  majority {m}/{n}: {counts.get(m, 0)}")
        if total:
            print(f"  full agreement fraction: {counts.get(n, 0) / total:.3f}")
    return 0


def main(argv=None) -> int:
    _apply_thread_override()
    args = _build_parser().parse_args(argv)
    from .experiment import ConfigError
    from .networks import FormatError

    handlers = {
        "dataset": _cmd_dataset_synth,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
