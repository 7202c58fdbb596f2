"""Experiment orchestration: seeded active-learning runs, Monte Carlo
averaging, committee-size sweeps, and CSV/JSON export.

A run is a pure function of (config, seed): the seed is fanned out into
independent streams for splitting, weight init, training-time shuffling and
dropout, and random selection, so switching the query strategy never perturbs
the other pipeline stages.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _BLAS_THREAD_VARS
from .data import (
    PatchDataset,
    SyntheticSpec,
    augment_mirror,
    generate_synthetic,
    load_dataset,
    move_to_labeled,
    normalize_channels,
    seed_split,
)
from .networks import BUILDERS, NetworkGraph, ParameterSet, forward_batch, init_params, train_step, trainable_names
from .optim import init_adam
from .selection import (
    STRATEGIES,
    AgreementHistogram,
    ProbabilityMatrix,
    agreement_histogram,
    select,
)

# Rows of committee inference in flight, shared by the inference threads: an
# hresnet activation is 1.6 MB at 64 rows and 12.8 MB at 512. Keep it, and so
# each thread's share, a multiple of the BLAS row block (4 on OpenBLAS Haswell)
# so that every row gets the bits of a whole-pool pass.
PREDICT_CHUNK = 64


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any training starts."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full recipe for one experiment (dataset, network, protocol, optimizer)."""

    network: str = "wcrn"
    strategy: str = "aedl-bt"
    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    per_class_seed: int = 5
    batch_per_round: int = 5
    round_count: int = 10
    candidate_size: int = 2000
    test_size: int = 3000
    initial_epochs: int = 100
    finetune_epochs: int = 30
    snapshot_interval_epochs: int = 2
    committee_size: int = 9
    monte_carlo_runs: int = 10
    seed: int = 0
    seeds: tuple[int, ...] | None = None
    learning_rate: float = 1e-3
    train_batch_size: int = 32
    output_dir: str | None = None

    def validate(self) -> None:
        if self.network not in BUILDERS:
            raise ConfigError(f"unknown network {self.network!r}, expected one of {sorted(BUILDERS)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset_path or synthetic must be set")
        positive = {
            "per_class_seed": self.per_class_seed,
            "batch_per_round": self.batch_per_round,
            "candidate_size": self.candidate_size,
            "test_size": self.test_size,
            "initial_epochs": self.initial_epochs,
            "finetune_epochs": self.finetune_epochs,
            "snapshot_interval_epochs": self.snapshot_interval_epochs,
            "committee_size": self.committee_size,
            "monte_carlo_runs": self.monte_carlo_runs,
            "train_batch_size": self.train_batch_size,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate must be a positive finite number, got {self.learning_rate}")
        if self.round_count < 0:
            raise ConfigError(f"round_count must be >= 0, got {self.round_count}")
        if self.committee_size * self.snapshot_interval_epochs > self.finetune_epochs:
            raise ConfigError(
                f"committee size {self.committee_size} x interval "
                f"{self.snapshot_interval_epochs} exceeds finetune_epochs {self.finetune_epochs}"
            )
        if self.seeds is not None and len(self.seeds) == 0:
            raise ConfigError("explicit seed list must not be empty")

    def run_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)
        return tuple(self.seed + i for i in range(self.monte_carlo_runs))

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True, default=str).encode()
        ).hexdigest()


@dataclass
class RoundRecord:
    """State of the learning curve after one active-learning round."""

    round: int
    labeled_count: int
    overall_accuracy: float
    per_class_accuracy: np.ndarray
    wall_time_s: float
    agreement: AgreementHistogram | None = None


@dataclass
class LearningCurve:
    """Per-round accuracy trajectory of one seeded run."""

    seed: int
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def labeled_counts(self) -> np.ndarray:
        return np.array([r.labeled_count for r in self.records])

    @property
    def oas(self) -> np.ndarray:
        return np.array([r.overall_accuracy for r in self.records])


@dataclass
class MonteCarloResult:
    """Per-seed curves plus their per-round mean/std overall accuracy."""

    config: ExperimentConfig
    seeds: tuple[int, ...]
    curves: list[LearningCurve]
    labeled_counts: np.ndarray
    mean_oa: np.ndarray
    std_oa: np.ndarray

    @property
    def mean_curve(self) -> "CurvePoints":
        return CurvePoints(self.labeled_counts, self.mean_oa)


@dataclass(frozen=True)
class CurvePoints:
    """Bare (labeled_count, accuracy) series; duck-compatible with LearningCurve."""

    labeled_counts: np.ndarray
    oas: np.ndarray


# ---------------------------------------------------------------------------
# Metrics


def overall_accuracy(predictions, labels) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions for {len(labels)} labels")
    return float(np.mean(predictions == labels))


def per_class_accuracy(predictions, labels, class_count: int) -> np.ndarray:
    """Accuracy per reference class; NaN where a class is absent."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    out = np.full(class_count, np.nan)
    for k in range(class_count):
        members = labels == k
        if members.any():
            out[k] = float(np.mean(predictions[members] == k))
    return out


# ---------------------------------------------------------------------------
# Prediction helpers


def _predict_rows(graph, members, patches, starts, rows, mean_probs, member_preds):
    """Committee prediction for the blocks of `rows` rows at `starts`, written
    into their slices of mean_probs and member_preds."""
    for start in starts:
        stop = min(start + rows, len(patches))
        total = None
        for j, member in enumerate(members):
            probs = forward_batch(graph, member, patches[start:stop])
            member_preds[j, start:stop] = probs.argmax(axis=1)
            total = probs if total is None else total + probs
        mean_probs[start:stop] = total / len(members)


def predict_probabilities(
    graph: NetworkGraph,
    members,
    patches: np.ndarray,
    chunk: int = PREDICT_CHUNK,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked committee prediction.

    Returns the member-averaged (N, K) probabilities and the (members, N)
    per-member argmax labels. With more than one inference thread (see
    `_threads_per_seed`), t streams share each chunk: stream i takes every
    t-th block of chunk // t rows, rounded down to a multiple of 4, so no more
    than `chunk` rows are in flight. The calling thread runs stream 0.
    """
    members = tuple(members)
    if not members:
        raise ValueError("committee needs at least one member")
    n = len(patches)
    mean_probs = np.zeros((n, graph.class_count))
    member_preds = np.zeros((len(members), n), dtype=np.int64)
    out = (mean_probs, member_preds)
    streams = min(_seed_threads or _cpu_slots(), chunk // 4)
    if streams <= 1:
        _predict_rows(graph, members, patches, range(0, n, chunk), chunk, *out)
        return out
    # Imported here, as the process pool is: only this path needs it.
    from concurrent.futures import ThreadPoolExecutor

    rows = chunk // streams // 4 * 4
    starts = range(0, n, rows)
    with ThreadPoolExecutor(streams - 1) as pool:
        helpers = [pool.submit(_predict_rows, graph, members, patches, starts[i::streams], rows, *out)
                   for i in range(1, streams)]
        _predict_rows(graph, members, patches, starts[0::streams], rows, *out)
        for helper in helpers:
            helper.result()
    return out


# ---------------------------------------------------------------------------
# Single run


def _resolve_dataset(config: ExperimentConfig) -> PatchDataset:
    if config.dataset_path is not None:
        return load_dataset(config.dataset_path)
    return generate_synthetic(config.synthetic)


def _train_phase(graph, params, adam, patches, labels, epochs, batch_size, rng,
                 capture_interval=None):
    """Train over mirror-augmented data; optionally snapshot every k epochs."""
    aug_x, aug_y = augment_mirror(patches, labels)
    snapshots: list[ParameterSet] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(aug_x))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            try:
                params, adam, _ = train_step(graph, params, aug_x[idx], aug_y[idx], adam, rng)
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        if capture_interval is not None and epoch % capture_interval == 0:
            # Sharing the arrays is safe: train_step never writes into its inputs.
            snapshots.append(replace(params, epoch_tag=epoch))
    return params, adam, snapshots


def _scoring_members(config, params, committee_members):
    """The snapshot committee for "aedl-*" strategies, else the current model alone."""
    return committee_members if config.strategy.startswith("aedl-") else (params,)


def _select_batch(config, graph, params, committee_members, dataset, rng_select):
    candidate_ids = dataset.split.candidate
    if config.strategy == "rs":
        return select("rs", candidate_ids, config.batch_per_round, rng_select)
    members = _scoring_members(config, params, committee_members)
    probs, _ = predict_probabilities(graph, members, dataset.patches[candidate_ids])
    base = config.strategy.removeprefix("aedl-")
    return select(base, ProbabilityMatrix.from_values(probs, candidate_ids), config.batch_per_round)


def run_single(config: ExperimentConfig, seed: int) -> LearningCurve:
    """One seeded end-to-end experiment.

    Seeds the split, trains from scratch on the mirror-augmented labeled pool,
    then alternates candidate selection, pool growth, and fine-tuning with
    snapshot capture; the test pool is only ever used for evaluation.
    """
    config.validate()
    streams = np.random.SeedSequence(seed).generate_state(4)
    split_seed = int(streams[0])
    rng_init = np.random.default_rng(streams[1])
    rng_train = np.random.default_rng(streams[2])
    rng_select = np.random.default_rng(streams[3])

    started = time.perf_counter()
    dataset = _resolve_dataset(config)
    dataset = seed_split(
        dataset, config.per_class_seed, config.candidate_size, config.test_size, split_seed
    )
    dataset, _ = normalize_channels(dataset)
    h, w, channels = dataset.patches.shape[1:]
    graph = BUILDERS[config.network](channels, dataset.class_count)
    if (h, w) != graph.input_shape[:2]:
        raise ConfigError(
            f"{config.network} expects {graph.input_shape[0]}x{graph.input_shape[1]} patches, "
            f"dataset has {h}x{w}"
        )

    params = init_params(graph, rng_init)
    adam = init_adam(
        {n: params.entries[n] for n in trainable_names(graph)},
        learning_rate=config.learning_rate,
    )
    labeled = dataset.split.labeled
    params, adam, _ = _train_phase(
        graph, params, adam, dataset.patches[labeled], dataset.labels[labeled],
        config.initial_epochs, config.train_batch_size, rng_train,
    )
    # Until the first fine-tune produces snapshots, the committee is the
    # freshly trained model alone.
    committee_members: tuple[ParameterSet, ...] = (params,)

    curve = LearningCurve(seed=seed)
    curve.records.append(
        _evaluate_round(config, graph, params, committee_members, dataset, 0,
                        time.perf_counter() - started)
    )
    for round_index in range(1, config.round_count + 1):
        if len(dataset.split.candidate) == 0:
            break
        round_started = time.perf_counter()
        chosen = _select_batch(config, graph, params, committee_members, dataset, rng_select)
        dataset = move_to_labeled(dataset, chosen.chosen_ids)
        labeled = dataset.split.labeled
        params, adam, snapshots = _train_phase(
            graph, params, adam, dataset.patches[labeled], dataset.labels[labeled],
            config.finetune_epochs, config.train_batch_size, rng_train,
            capture_interval=config.snapshot_interval_epochs,
        )
        committee_members = tuple(snapshots[-config.committee_size :]) or (params,)
        curve.records.append(
            _evaluate_round(config, graph, params, committee_members, dataset, round_index,
                            time.perf_counter() - round_started)
        )
    return curve


def _evaluate_round(config, graph, params, committee_members, dataset, round_index, elapsed):
    test_ids = dataset.split.test
    test_patches = dataset.patches[test_ids]
    test_labels = dataset.labels[test_ids]
    aedl = config.strategy.startswith("aedl-")
    members = _scoring_members(config, params, committee_members)
    mean_probs, member_preds = predict_probabilities(graph, members, test_patches)
    predictions = mean_probs.argmax(axis=1)
    return RoundRecord(
        round=round_index,
        labeled_count=len(dataset.split.labeled),
        overall_accuracy=overall_accuracy(predictions, test_labels),
        per_class_accuracy=per_class_accuracy(predictions, test_labels, dataset.class_count),
        wall_time_s=elapsed,
        agreement=agreement_histogram(member_preds) if aedl else None,
    )


# ---------------------------------------------------------------------------
# Monte Carlo and sweeps


def _cpu_slots() -> int:
    """CPUs // BLAS threads: how many BLAS calls the CPUs hold at once.

    The BLAS thread count is the largest of the variables AEDL_THREADS sets;
    without one, BLAS takes every CPU, so there is one slot.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    caps = [os.environ.get(var, "") for var in _BLAS_THREAD_VARS]
    blas_threads = max((int(cap) for cap in caps if cap.isdigit()), default=0) or cpus
    return max(1, cpus // blas_threads)


def _worker_count(seed_count: int) -> int:
    """Seeds to run at once: one per CPU slot."""
    return min(seed_count, _cpu_slots())


def _threads_per_seed(workers: int) -> int:
    """Inference threads of each running seed: the slots the seeds leave."""
    return max(1, _cpu_slots() // workers)


# Inference threads of this process; None outside a worker: all the slots.
_seed_threads: int | None = None


def _run_seed(job: tuple[ExperimentConfig, int, int]) -> LearningCurve:
    """A worker's task. It is submitted instead of `run_single` because a
    wrapper put in that name's place (a tracer's) is a local function, which
    does not pickle; this one pickles by name and calls whatever is there."""
    global _seed_threads
    config, seed, _seed_threads = job
    return run_single(config, seed)


def _run_seeds(config: ExperimentConfig, seeds: tuple[int, ...]) -> list[LearningCurve]:
    """run_single for each seed, in seed order; in forked workers when
    `_worker_count` allows more than one."""
    workers = _worker_count(len(seeds))
    if workers == 1:
        return [run_single(config, s) for s in seeds]
    # Imported here: they add to `import aedl` time, and only this path needs them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers start with aedl loaded and with whatever stands in
    # run_single's place. The pool runs only under a BLAS thread cap, and
    # OpenBLAS stops its own threads around a fork.
    threads = _threads_per_seed(workers)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_seed, [(config, s, threads) for s in seeds]))


def run_monte_carlo(config: ExperimentConfig) -> MonteCarloResult:
    """Independent seeded runs plus per-round mean/std overall accuracy.

    With a BLAS thread cap (e.g. AEDL_THREADS=1) the seeds run in parallel
    forked workers, as many as the CPUs hold at that cap, and each seed's
    committee inference takes the slots the seeds leave; the bits are the same.
    """
    config.validate()
    seeds = config.run_seeds()
    curves = _run_seeds(config, seeds)
    counts = curves[0].labeled_counts
    for curve in curves[1:]:
        if not np.array_equal(curve.labeled_counts, counts):
            raise RuntimeError("runs produced different labeled-count grids")
    oas = np.stack([c.oas for c in curves])
    return MonteCarloResult(
        config=config,
        seeds=seeds,
        curves=curves,
        labeled_counts=counts,
        mean_oa=oas.mean(axis=0),
        std_oa=oas.std(axis=0),
    )


def sensitivity_sweep(config: ExperimentConfig, committee_sizes) -> dict[int, MonteCarloResult]:
    """One Monte Carlo result per committee size, seeds shared across sizes."""
    configs = {size: replace(config, committee_size=size) for size in committee_sizes}
    for sized in configs.values():
        sized.validate()
    return {size: run_monte_carlo(sized) for size, sized in configs.items()}


# ---------------------------------------------------------------------------
# Curve analysis


@dataclass(frozen=True)
class TargetCrossing:
    """Labeled counts at which two curves first reach a target accuracy."""

    target_oa: float
    samples_a: float | None
    samples_b: float | None

    @property
    def ratio(self) -> float | None:
        if self.samples_a is None or self.samples_b is None:
            return None
        return self.samples_a / self.samples_b


def _curve_arrays(curve) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(curve.labeled_counts, dtype=float), np.asarray(curve.oas, dtype=float)


def _first_crossing(counts: np.ndarray, oas: np.ndarray, target: float) -> float | None:
    reached = np.nonzero(oas >= target)[0]
    if len(reached) == 0:
        return None
    i = int(reached[0])
    if i == 0:
        return float(counts[0])
    x0, x1 = counts[i - 1], counts[i]
    y0, y1 = oas[i - 1], oas[i]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def samples_to_target(curve_a, curve_b, target_oa: float) -> TargetCrossing:
    """Linearly interpolated labeled counts at the first crossing of target_oa.

    A curve that never reaches the target reports None (no extrapolation).
    """
    counts_a, oas_a = _curve_arrays(curve_a)
    counts_b, oas_b = _curve_arrays(curve_b)
    return TargetCrossing(
        target_oa,
        _first_crossing(counts_a, oas_a, target_oa),
        _first_crossing(counts_b, oas_b, target_oa),
    )


# ---------------------------------------------------------------------------
# Export

def _row_values(config, seed, record):
    return (
        [config.strategy, config.network, str(seed), str(record.round),
         str(record.labeled_count), repr(record.overall_accuracy)]
        + [repr(float(v)) for v in record.per_class_accuracy]
    )


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_results(result: MonteCarloResult, out_dir) -> list[Path]:
    """Write per-run CSVs, a deterministic aggregate CSV, the committee
    agreement table, and a JSON manifest echoing the resolved config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config, runs = result.config, list(zip(result.seeds, result.curves))
    k = len(result.curves[0].records[0].per_class_accuracy)
    header = (["strategy", "network", "seed", "round", "labeled_count", "oa"]
              + [f"per_class_oa_{i}" for i in range(k)])
    written = [_write_csv(
        out / "aggregate.csv", header,
        (_row_values(config, seed, record) for seed, curve in runs for record in curve.records),
    )]
    for seed, curve in runs:
        written.append(_write_csv(
            out / f"run_seed{seed}.csv", header + ["wall_time_s"],
            (_row_values(config, seed, record) + [repr(record.wall_time_s)]
             for record in curve.records),
        ))
    agreement_rows = (
        [config.strategy, config.network, str(seed), str(record.round), str(m), str(int(count))]
        for seed, curve in runs
        for record in curve.records
        if record.agreement is not None
        for m, count in enumerate(record.agreement.counts[1:], start=1)
    )
    written.append(_write_csv(
        out / "agreement.csv",
        ["strategy", "network", "seed", "round", "majority_size", "count"],
        agreement_rows,
    ))

    manifest = {
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "seeds": list(result.seeds),
        "class_count": k,
        "files": [p.name for p in written],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    written.append(manifest_path)
    return written


def load_aggregate_csv(path) -> dict[tuple[str, str, int], CurvePoints]:
    """Read an exported aggregate back into per-(strategy, network, seed) curves."""
    rows: dict[tuple[str, str, int], list[tuple[int, float]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["strategy"], row["network"], int(row["seed"]))
            rows.setdefault(key, []).append((int(row["labeled_count"]), float(row["oa"])))
    out = {}
    for key, points in rows.items():
        points.sort()
        counts, oas = zip(*points)
        out[key] = CurvePoints(np.array(counts), np.array(oas))
    return out
