"""Harness behavior: runs, Monte Carlo, curve analysis, and export."""

import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from aedl import _BLAS_THREAD_VARS, experiment
from aedl.data import SyntheticSpec
from aedl.experiment import (
    PREDICT_CHUNK,
    ConfigError,
    CurvePoints,
    ExperimentConfig,
    LearningCurve,
    MonteCarloResult,
    RoundRecord,
    _run_seeds,
    _threads_per_seed,
    _train_phase,
    _worker_count,
    export_results,
    load_aggregate_csv,
    overall_accuracy,
    per_class_accuracy,
    predict_probabilities,
    run_monte_carlo,
    run_single,
    samples_to_target,
    sensitivity_sweep,
)
from aedl.networks import build_dccnn, build_hresnet, build_wcrn, init_params, trainable_names
from aedl.optim import init_adam


def tiny_config(**overrides):
    spec = SyntheticSpec(
        class_count=3, patch_size=5, channels=2, instances_per_class=60,
        covariance_scale=1.0, speckle_intensity=0.3, class_separation=2.5, seed=3,
    )
    base = dict(
        network="wcrn", strategy="bt", synthetic=spec,
        per_class_seed=3, batch_per_round=4, round_count=2,
        candidate_size=60, test_size=60,
        initial_epochs=3, finetune_epochs=2, snapshot_interval_epochs=1,
        committee_size=2, monte_carlo_runs=2, seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_full_scale_protocol_is_accepted(self):
        config = tiny_config(
            per_class_seed=5, batch_per_round=5, snapshot_interval_epochs=2,
            committee_size=9, finetune_epochs=30, initial_epochs=100,
            monte_carlo_runs=10,
        )
        config.validate()

    def test_committee_must_fit_finetune(self):
        with pytest.raises(ConfigError, match="exceeds finetune_epochs"):
            tiny_config(committee_size=3, snapshot_interval_epochs=1,
                        finetune_epochs=2).validate()

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigError, match="network"):
            tiny_config(network="lenet").validate()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            tiny_config(strategy="margin").validate()

    def test_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            tiny_config(dataset_path="x.psar").validate()
        with pytest.raises(ConfigError, match="exactly one"):
            tiny_config(synthetic=None).validate()

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ConfigError, match="batch_per_round"):
            tiny_config(batch_per_round=0).validate()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-3, 0.0])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            tiny_config(learning_rate=rate).validate()

    def test_rejection_happens_before_training(self):
        with pytest.raises(ConfigError):
            run_single(tiny_config(initial_epochs=-1), seed=0)


class TestRunSingle:
    def test_zero_rounds_gives_single_point(self):
        curve = run_single(tiny_config(round_count=0), seed=1)
        assert len(curve.records) == 1
        assert curve.records[0].round == 0
        assert curve.records[0].labeled_count == 9

    def test_labeled_pool_accounting(self):
        config = tiny_config(round_count=3, batch_per_round=4)
        curve = run_single(config, seed=2)
        np.testing.assert_array_equal(curve.labeled_counts, [9, 13, 17, 21])

    def test_accuracies_in_unit_interval(self):
        curve = run_single(tiny_config(), seed=3)
        assert (curve.oas >= 0).all() and (curve.oas <= 1).all()
        for record in curve.records:
            finite = record.per_class_accuracy[np.isfinite(record.per_class_accuracy)]
            assert (finite >= 0).all() and (finite <= 1).all()

    def test_same_seed_is_bit_identical(self):
        config = tiny_config(strategy="aedl-bt")
        a = run_single(config, seed=4)
        b = run_single(config, seed=4)
        assert a.oas.tobytes() == b.oas.tobytes()
        for ra, rb in zip(a.records, b.records):
            assert ra.per_class_accuracy.tobytes() == rb.per_class_accuracy.tobytes()
            assert ra.labeled_count == rb.labeled_count

    def test_round_zero_identical_across_strategies(self):
        # Swapping the strategy must not disturb split, init, or initial training.
        records = {}
        for strategy in ("rs", "me", "bt", "aedl-me", "aedl-bt"):
            curve = run_single(tiny_config(strategy=strategy, round_count=1), seed=5)
            records[strategy] = curve.records[0]
        baseline = records["rs"]
        for strategy, record in records.items():
            assert record.overall_accuracy == baseline.overall_accuracy, strategy
            np.testing.assert_array_equal(
                record.per_class_accuracy, baseline.per_class_accuracy
            )

    def test_aedl_records_agreement_and_optional_single_oa(self):
        config = tiny_config(strategy="aedl-bt")
        curve = run_single(config, seed=6)
        final = curve.records[-1]
        assert final.agreement is not None
        assert final.agreement.member_count == config.committee_size

    def test_plain_strategy_has_no_agreement(self):
        curve = run_single(tiny_config(strategy="bt"), seed=6)
        assert all(r.agreement is None for r in curve.records)

    def test_patch_size_mismatch_rejected(self):
        config = tiny_config(network="hresnet")  # 7x7 network, 5x5 patches
        with pytest.raises(ConfigError, match="expects 7x7"):
            run_single(config, seed=0)


class TestSnapshotScheduling:
    def test_interval_two_thirty_epochs_gives_fifteen(self):
        graph = build_wcrn(2, 2)
        rng = np.random.default_rng(0)
        params = init_params(graph, rng)
        adam = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        x = rng.standard_normal((6, 5, 5, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        _, _, snapshots = _train_phase(
            graph, params, adam, x, y, epochs=30, batch_size=32, rng=rng,
            capture_interval=2,
        )
        assert len(snapshots) == 15
        assert [s.epoch_tag for s in snapshots] == list(range(2, 31, 2))
        committee = snapshots[-9:]
        assert [s.epoch_tag for s in committee] == list(range(14, 31, 2))


class TestTrainPhase:
    def test_non_finite_loss_names_the_epoch(self):
        graph = build_wcrn(2, 2)
        rng = np.random.default_rng(0)
        params = init_params(graph, rng)
        adam = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        x = np.full((2, 5, 5, 2), np.nan)
        with pytest.raises(FloatingPointError, match=r"^epoch 1: training loss is nan"):
            _train_phase(graph, params, adam, x, np.array([0, 1]), epochs=3, batch_size=32, rng=rng)


def _committee(graph, rng, size=3):
    """Members with non-default batch-norm affine and running stats."""
    members = []
    for _ in range(size):
        params = init_params(graph, rng)
        for name, arr in params.entries.items():
            if name.endswith((".run_mean", ".beta")):
                params.entries[name] = rng.normal(0.0, 0.2, arr.shape)
            elif name.endswith((".run_var", ".gamma")):
                params.entries[name] = rng.uniform(0.5, 1.5, arr.shape)
        members.append(params)
    return members


class TestPredictProbabilities:
    @pytest.mark.parametrize("build,size", [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)])
    def test_chunk_size_keeps_the_bits(self, build, size):
        """Chunks of PREDICT_CHUNK rows give the bits of one whole-pool pass.

        The dense head is one BLAS matmul per chunk, and the BLAS sums a row in
        another order when it lies in a partial block of rows (4 rows for
        OpenBLAS on Haswell). Chunks that are multiples of the block, as
        PREDICT_CHUNK is, keep every row in the same kind of block, so the
        bits stay; chunks of 1 or 7 rows can move a probability in its last
        place.
        """
        graph = build(6, 3)
        rng = np.random.default_rng(31)
        members = _committee(graph, rng)
        patches = rng.standard_normal((2 * PREDICT_CHUNK + 37, size, size, 6))
        probs, preds = predict_probabilities(graph, members, patches, chunk=len(patches))
        for chunk in (PREDICT_CHUNK, 2 * PREDICT_CHUNK):
            chunked_probs, chunked_preds = predict_probabilities(graph, members, patches, chunk=chunk)
            assert np.array_equal(chunked_probs, probs), chunk
            assert np.array_equal(chunked_preds, preds), chunk
        for chunk in (1, 7, 37):
            chunked_probs, chunked_preds = predict_probabilities(graph, members, patches, chunk=chunk)
            np.testing.assert_allclose(chunked_probs, probs, rtol=0, atol=8 * np.finfo(float).eps)
            assert np.array_equal(chunked_preds, preds), chunk


class TestMetrics:
    def test_overall_accuracy_values(self):
        assert overall_accuracy([1, 1, 1], [1, 1, 1]) == 1.0
        assert overall_accuracy([0, 0], [1, 1]) == 0.0
        assert overall_accuracy([1] * 7 + [0] * 3, [1] * 10) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            overall_accuracy([], [])

    def test_per_class_accuracy(self):
        predictions = np.array([0, 0, 1, 1, 2])
        labels = np.array([0, 1, 1, 1, 1])
        out = per_class_accuracy(predictions, labels, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.5)
        assert np.isnan(out[2])


class TestSamplesToTarget:
    def test_identical_curves_ratio_one(self):
        curve = CurvePoints(np.array([10, 20, 30]), np.array([0.5, 0.8, 0.9]))
        assert samples_to_target(curve, curve, 0.85).ratio == pytest.approx(1.0)

    def test_direct_construction(self):
        a = CurvePoints(np.array([80, 86]), np.array([0.80, 0.89]))
        b = CurvePoints(np.array([90, 100]), np.array([0.80, 0.89]))
        crossing = samples_to_target(a, b, 0.89)
        assert crossing.samples_a == 86.0
        assert crossing.samples_b == 100.0
        assert crossing.ratio == pytest.approx(0.86)

    def test_interpolation_is_linear(self):
        a = CurvePoints(np.array([10, 20]), np.array([0.0, 1.0]))
        b = CurvePoints(np.array([10, 20]), np.array([0.0, 0.5]))
        crossing = samples_to_target(a, b, 0.5)
        assert crossing.samples_a == pytest.approx(15.0)
        assert crossing.samples_b == pytest.approx(20.0)

    def test_unreached_target_not_extrapolated(self):
        a = CurvePoints(np.array([10, 20]), np.array([0.5, 0.95]))
        b = CurvePoints(np.array([10, 20]), np.array([0.5, 0.6]))
        crossing = samples_to_target(a, b, 0.9)
        assert crossing.samples_a is not None
        assert crossing.samples_b is None and crossing.ratio is None

    def test_first_point_already_at_target(self):
        a = CurvePoints(np.array([15, 20]), np.array([0.9, 0.95]))
        assert samples_to_target(a, a, 0.85).samples_a == 15.0


class TestMonteCarlo:
    def test_single_run_mean_and_zero_std(self):
        result = run_monte_carlo(tiny_config(monte_carlo_runs=1))
        np.testing.assert_array_equal(result.mean_oa, result.curves[0].oas)
        np.testing.assert_array_equal(result.std_oa, np.zeros(len(result.mean_oa)))

    def test_duplicated_seeds_zero_std(self):
        result = run_monte_carlo(tiny_config(seeds=(7, 7)))
        assert (result.std_oa == 0).all()
        np.testing.assert_array_equal(result.curves[0].oas, result.curves[1].oas)

    def test_mean_std_match_manual_computation(self):
        result = run_monte_carlo(tiny_config(monte_carlo_runs=3))
        oas = np.stack([c.oas for c in result.curves])
        np.testing.assert_allclose(result.mean_oa, oas.mean(axis=0))
        np.testing.assert_allclose(result.std_oa, oas.std(axis=0))


def _force_workers(monkeypatch, cpus, blas_cap):
    """Pretend to run on `cpus` CPUs with every BLAS variable at `blas_cap`
    (None: unset)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in _BLAS_THREAD_VARS:
        if blas_cap is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, str(blas_cap))


class TestParallelSeeds:
    def test_worker_count_rule(self, monkeypatch):
        _force_workers(monkeypatch, 2, None)
        assert _worker_count(4) == 1  # BLAS takes every CPU: stay serial
        _force_workers(monkeypatch, 1, 1)
        assert _worker_count(4) == 1
        _force_workers(monkeypatch, 2, 1)
        assert _worker_count(1) == 1
        assert _worker_count(4) == 2
        _force_workers(monkeypatch, 8, 2)
        assert _worker_count(4) == 4
        monkeypatch.setenv("MKL_NUM_THREADS", "4")  # the largest cap counts
        assert _worker_count(4) == 2

    def test_threads_per_seed_rule(self, monkeypatch):
        _force_workers(monkeypatch, 2, 1)
        assert _threads_per_seed(_worker_count(1)) == 2  # one seed takes both slots
        assert _threads_per_seed(_worker_count(2)) == 1
        _force_workers(monkeypatch, 2, None)
        assert _threads_per_seed(_worker_count(1)) == 1  # BLAS takes every CPU
        _force_workers(monkeypatch, 8, 1)
        assert _threads_per_seed(_worker_count(3)) == 2  # 8 // 3: two slots stay idle

    def test_workers_receive_their_thread_count(self, monkeypatch):
        _force_workers(monkeypatch, 4, 1)
        monkeypatch.setattr("aedl.experiment.run_single",
                            lambda config, seed: experiment._seed_threads)
        assert _run_seeds(tiny_config(), (1, 2)) == [2, 2]
        assert experiment._seed_threads is None  # the parent keeps all the slots
        assert multiprocessing.active_children() == []

    def test_workers_return_results_in_seed_order(self, monkeypatch):
        # A wrapper in run_single's place, as a tracer installs, is a local
        # function; the forked workers still call it.
        _force_workers(monkeypatch, 2, 1)
        monkeypatch.setattr("aedl.experiment.run_single",
                            lambda config, seed: (seed, os.getpid()))
        results = _run_seeds(tiny_config(), (5, 3, 9, 1))
        assert [seed for seed, _ in results] == [5, 3, 9, 1]
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_one_and_two_workers_export_the_same_bytes(self, monkeypatch, tmp_path):
        config = tiny_config(strategy="aedl-bt", monte_carlo_runs=3)
        for workers in (1, 2):
            _force_workers(monkeypatch, workers, 1)
            export_results(run_monte_carlo(config), tmp_path / str(workers))
        for name in ("aggregate.csv", "agreement.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_parent(self, monkeypatch):
        _force_workers(monkeypatch, 2, 1)
        config = tiny_config(network="hresnet", monte_carlo_runs=2)  # 7x7 network, 5x5 patches
        with pytest.raises(ConfigError, match="hresnet expects 7x7 patches, dataset has 5x5"):
            run_monte_carlo(config)
        assert multiprocessing.active_children() == []


class TestInferenceThreads:
    @pytest.mark.parametrize("build,size", [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)])
    def test_slots_keep_the_bytes(self, monkeypatch, build, size):
        # Three slots split a 64-row chunk into 20-row streams.
        graph = build(6, 3)
        rng = np.random.default_rng(32)
        members = _committee(graph, rng)
        patches = rng.standard_normal((165, size, size, 6))
        for chunk in (PREDICT_CHUNK, 24, 165):
            outputs = []
            for slots in (1, 2, 3):
                _force_workers(monkeypatch, slots, 1)
                threads = threading.active_count()
                outputs.append(predict_probabilities(graph, members, patches, chunk=chunk))
                assert threading.active_count() == threads
            for probs, preds in outputs[1:]:
                assert probs.tobytes() == outputs[0][0].tobytes(), chunk
                assert preds.tobytes() == outputs[0][1].tobytes(), chunk

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        _force_workers(monkeypatch, 2, 1)
        graph = build_wcrn(2, 3)
        members = _committee(graph, np.random.default_rng(33), size=2)
        caller = threading.current_thread()
        original = experiment.forward_batch

        def forward_batch(graph, params, batch):
            if threading.current_thread() is not caller:
                raise FloatingPointError("helper stream failed")
            return original(graph, params, batch)

        monkeypatch.setattr(experiment, "forward_batch", forward_batch)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="helper stream failed"):
            predict_probabilities(graph, members, np.zeros((100, 5, 5, 2)))
        assert threading.active_count() == threads


class TestSensitivitySweep:
    def test_invalid_size_named(self):
        with pytest.raises(ConfigError, match="committee size 5"):
            sensitivity_sweep(tiny_config(), [1, 5])

    def test_shared_grid_and_n1_reduction(self):
        config = tiny_config(strategy="aedl-bt", monte_carlo_runs=2)
        sweep = sensitivity_sweep(config, [1, 2])
        assert set(sweep) == {1, 2}
        np.testing.assert_array_equal(sweep[1].labeled_counts, sweep[2].labeled_counts)
        standard = run_monte_carlo(replace(config, strategy="bt"))
        assert sweep[1].mean_oa.tobytes() == standard.mean_oa.tobytes()


class TestExport:
    def test_files_round_trip_and_shape(self, tmp_path):
        config = tiny_config(strategy="aedl-bt", monte_carlo_runs=2, round_count=2)
        result = run_monte_carlo(config)
        written = export_results(result, tmp_path)
        names = {p.name for p in written}
        assert {"aggregate.csv", "agreement.csv", "manifest.json"} <= names
        curves = load_aggregate_csv(tmp_path / "aggregate.csv")
        for seed, curve in zip(result.seeds, result.curves):
            loaded = curves[("aedl-bt", "wcrn", seed)]
            np.testing.assert_array_equal(loaded.labeled_counts, curve.labeled_counts)
            # repr round-trips doubles exactly, beyond 12 significant digits.
            np.testing.assert_array_equal(loaded.oas, curve.oas)

    def test_aggregate_row_count(self, tmp_path):
        config = tiny_config(monte_carlo_runs=2, round_count=2)
        export_results(run_monte_carlo(config), tmp_path)
        lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(lines) - 1 == 2 * (2 + 1)

    def test_manifest_echoes_every_config_field(self, tmp_path):
        import dataclasses
        import json

        config = tiny_config()
        export_results(run_monte_carlo(config), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for field in dataclasses.fields(ExperimentConfig):
            assert field.name in manifest["config"], field.name
        assert manifest["config_hash"] == config.config_hash()

    def test_reexport_is_byte_identical(self, tmp_path):
        config = tiny_config(monte_carlo_runs=2)
        export_results(run_monte_carlo(config), tmp_path / "a")
        export_results(run_monte_carlo(config), tmp_path / "b")
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == (
            tmp_path / "b" / "aggregate.csv"
        ).read_bytes()

    def test_export_structures(self):
        # MonteCarloResult round number sanity on a hand-built curve.
        record = RoundRecord(0, 9, 0.5, np.array([0.5, 0.5]), 0.1)
        curve = LearningCurve(seed=1, records=[record])
        assert curve.labeled_counts.tolist() == [9]
