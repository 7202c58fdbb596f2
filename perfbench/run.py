"""Benchmark of the aedl active-learning pipeline on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload wcrn-aedl-bt --seed 0 --seconds 34 --trace 0

Each workload is one Monte Carlo experiment, driven the way the CLI `run`
command drives it: `config.experiment_config_from_file` ->
`experiment.run_monte_carlo` -> `experiment.export_results`. The run repeats
whole experiments until --seconds have passed and checks every one of them.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (operations are seeded runs) and `metrics`: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread, as AEDL_THREADS=1 gives the CLI; set before numpy loads.
os.environ["AEDL_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
ORACLE_MEMBERS = 3
ORACLE_PATCHES = 40  # predicted in chunks of 24, so one chunk is partial

# The synthetic speckle spec of the acceptance gate: 3 classes, 6 channels;
# classes 0 and 1 share a tight boundary on channel 0, class 2 is distant.
ACCEPTANCE_SPEC = {
    "class_count": 3,
    "patch_size": 5,
    "channels": 6,
    "instances_per_class": 2000,
    "covariance_scale": 1.0,
    "speckle_intensity": 0.5,
    "class_means": "0,0,0,0,0,0; 0.5,0,0,0,0,0; 0,2.5,0,0,0,0",
}
ACCEPTANCE_PROTOCOL = {
    "network": "wcrn",
    "per_class_seed": 5,
    "batch_per_round": 5,
    "round_count": 10,
    "candidate_size": 2000,
    "test_size": 3000,
    "initial_epochs": 40,
    "finetune_epochs": 15,
    "snapshot_interval_epochs": 2,
    "committee_size": 5,
}

# name -> (experiment fields, synthetic fields, Monte Carlo runs per experiment)
WORKLOADS = {
    # Training-bound: no candidate scoring, single-model test evaluation.
    "wcrn-rs": ({**ACCEPTANCE_PROTOCOL, "strategy": "rs"}, ACCEPTANCE_SPEC, 2),
    # Same seeds and training steps; committee prediction on top.
    "wcrn-aedl-bt": ({**ACCEPTANCE_PROTOCOL, "strategy": "aedl-bt"}, ACCEPTANCE_SPEC, 2),
    # 3x3 same-padded convs at 64 maps on 7x7 patches; one seed, smaller pools.
    "hresnet-aedl-me": (
        {
            "network": "hresnet",
            "strategy": "aedl-me",
            "per_class_seed": 5,
            "batch_per_round": 5,
            "round_count": 5,
            "candidate_size": 600,
            "test_size": 1000,
            "initial_epochs": 30,
            "finetune_epochs": 6,
            "snapshot_interval_epochs": 2,
            "committee_size": 3,
        },
        {**ACCEPTANCE_SPEC, "patch_size": 7, "instances_per_class": 600},
        1,
    ),
}


def render_config(workload: str, seed: int) -> str:
    """The workload's experiment config file; the data and run seeds derive from `seed`."""
    fields, spec, runs = WORKLOADS[workload]
    lines = [f"{key} = {value}" for key, value in fields.items()]
    lines.append("seeds = " + ", ".join(str(seed * runs + i) for i in range(runs)))
    lines += [f"synthetic.{key} = {value}" for key, value in spec.items()]
    lines.append(f"synthetic.seed = {seed}")
    return "\n".join(lines) + "\n"


def measure_setup(config_path: Path) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters from start until aedl is imported
    and the config parsed, after one untimed run that fills the bytecode cache."""
    samples = []
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)]
    for repeat in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if repeat:
            samples.append({"setup_s": ready - started, **json.loads(line)})
    return samples


def timed_experiment(experiment, config, out_dir):
    started = time.perf_counter()
    result = experiment.run_monte_carlo(config)
    experiment.export_results(result, out_dir)
    return time.perf_counter() - started, result


def reference_figures(experiment, result) -> str:
    """Paper-style figures, for the README only: full agreement and samples to 85% OA."""
    fractions = [r.agreement.full_agreement_fraction
                 for c in result.curves for r in c.records[1:] if r.agreement is not None]
    agreement = f"{statistics.fmean(fractions):.4f}" if fractions else "n/a"
    samples = experiment.samples_to_target(result.mean_curve, result.mean_curve, 0.85).samples_a
    return f"full_agreement_fraction {agreement}, samples_to_85pct_oa {samples}"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "aedl" / "__init__.py").is_file():
        print(f"perfbench: no aedl sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "experiment.cfg"
    config_path.write_text(render_config(args.workload, args.seed))
    setup = measure_setup(config_path)

    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"aedl.{name}")
               for name in ("config", "experiment", "networks", "ops", "selection")}
    if Path(modules["experiment"].__file__).resolve().parents[1] != SRC:
        print(f"perfbench: aedl was imported from outside {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import checks
    import oracle
    import spans

    experiment, networks, selection = modules["experiment"], modules["networks"], modules["selection"]
    config = modules["config"].experiment_config_from_file(config_path)
    correct = True

    rng = np.random.default_rng(args.seed)
    graph = networks.BUILDERS[config.network](config.synthetic.channels, config.synthetic.class_count)
    members = oracle.make_members(networks, graph, rng, ORACLE_MEMBERS)
    patches = rng.standard_normal((ORACLE_PATCHES, *graph.input_shape))
    try:
        oracle.check_committee(graph, members, patches, experiment.predict_probabilities,
                               selection.select, selection.agreement_histogram,
                               selection.ProbabilityMatrix.from_values)
    except oracle.CheckError as exc:
        correct = False
        print(f"oracle check failed: {exc}", file=sys.stderr)

    runs = len(config.run_seeds())
    attempted = failed = 0
    plain_times, traced_times, traced_metrics, digests = [], [], [], set()
    tracer = spans.Tracer(modules)
    export_dir = out_dir / "export"
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(traced_times) < len(plain_times)
        attempted += runs
        try:
            with tracer if traced else contextlib.nullcontext():
                seconds, result = timed_experiment(experiment, config, export_dir)
        except Exception:
            failed += runs
            traceback.print_exc()
        else:
            (traced_times if traced else plain_times).append(seconds)
            if len(plain_times) == 1 and not traced:
                # Taken after one experiment: allocator history makes later peaks
                # depend on how many experiments fit in the run.
                peak_mb = peak_rss_mb()
            if traced:
                traced_metrics.append(spans.layer_metrics(tracer.spans))
            try:
                digests.add(checks.check_experiment(config, result, export_dir))
            except oracle.CheckError as exc:
                correct = False
                print(f"output check failed: {exc}", file=sys.stderr)
        # Start another whole experiment only if it should end within --seconds.
        done = plain_times + traced_times
        expected_end = time.perf_counter() - started + (statistics.median(done) if done else 0.0)
        # Tracing alternates untraced and traced experiments; the first untraced
        # one runs cold, so the overhead compares against the later ones.
        enough = not args.trace or (len(plain_times) >= 2 and traced_times)
        if expected_end > args.seconds and (enough or failed):
            break
    if not plain_times or (args.trace and not (len(plain_times) >= 2 and traced_times)):
        print("perfbench: no experiment completed", file=sys.stderr)
        return 1

    print(f"experiment seconds: untraced {[round(t, 3) for t in plain_times]}, "
          f"traced {[round(t, 3) for t in traced_times]}", file=sys.stderr)
    if len(digests) > 1:
        correct = False
        print(f"output check failed: aggregate.csv differs between repeats: {sorted(digests)}",
              file=sys.stderr)
    reference = json.loads((HERE / "reference_digests.json").read_text())
    known = reference.get(args.workload, {}).get(str(args.seed))
    for digest in sorted(digests):
        status = "no reference" if known is None else (
            "matches reference" if digest == known else "differs from reference")
        print(f"aggregate.csv sha256 {digest} ({status})")
    print(f"reference figures: {reference_figures(experiment, result)}")

    if args.trace:
        values = {
            "aedl.import_s": statistics.median(s["import_s"] for s in setup),
            "config.experiment_config_from_file.s": statistics.median(s["config_s"] for s in setup),
            "trace.overhead_s": statistics.median(traced_times) - statistics.median(plain_times[1:]),
        }
        for entry in declared["per_layer"]:
            if entry["name"] not in values:
                values[entry["name"]] = statistics.median(m.get(entry["name"], 0) for m in traced_metrics)
        trace_path = out_dir / "trace.json"
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": values,
            "span_fields": list(spans.SPAN_FIELDS),
            "spans": [(n, round(s - origin, 7), round(e - origin, 7), p, w)
                      for n, s, e, p, w in tracer.spans],
        }))
        print(f"trace written to {trace_path}")
        declared_metrics = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "experiment_s": statistics.median(plain_times),
            "peak_rss_mb": peak_mb,
        }
        declared_metrics = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
