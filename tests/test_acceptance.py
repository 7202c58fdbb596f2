"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Numeric criteria use property checks and independent oracles; the
end-to-end criteria run the full protocol on a calibrated synthetic dataset
at desk scale.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from aedl import ops
from aedl.cli import main as cli_main
from aedl.data import SyntheticSpec
from aedl.experiment import (
    ExperimentConfig,
    predict_probabilities,
    run_monte_carlo,
    run_single,
    samples_to_target,
    sensitivity_sweep,
)
from aedl.networks import (
    build_dccnn,
    build_hresnet,
    build_wcrn,
    forward_batch,
    init_params,
    trace_shapes,
)
from aedl.selection import (
    ProbabilityMatrix,
    agreement_histogram,
    score_bt_margin,
    score_entropy,
    select,
)

from gradcheck import STEP, TOL, numerical_grad, rel_error, spaced_values
from tables import dccnn_expected, hresnet_expected, wcrn_expected

SHAPES_PER_KIND = 20


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite, every layer kind, 20 shapes, < 60 s


def _gradient_checks():
    """Yield (kind, analytic gradients dict, loss closure dict) per random shape."""
    rng = np.random.default_rng(2024)

    for i in range(SHAPES_PER_KIND):
        padding = "valid" if i % 2 == 0 else "same"
        h, w = (int(v) for v in rng.integers(2, 7, size=2))
        if padding == "valid":
            p, q = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        else:
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m, k = (int(v) for v in rng.integers(1, 4, size=2))
        x = rng.standard_normal((1, int(h), int(w), m))
        weights = rng.standard_normal((p, q, m, k))
        bias = rng.standard_normal(k)
        proj = rng.standard_normal(ops.conv2d_forward(x, weights, bias, padding).shape)
        grads = ops.conv2d_backward(x, weights, proj, padding)
        loss = lambda xv, wv, bv: float((ops.conv2d_forward(xv, wv, bv, padding) * proj).sum())
        yield "conv2d", {
            "input": (grads.input_grad, lambda v: loss(v, weights, bias), x),
            "weights": (grads.parameter_grads["weights"], lambda v: loss(x, v, bias), weights),
            "bias": (grads.parameter_grads["bias"], lambda v: loss(x, weights, v), bias),
        }

    for _ in range(SHAPES_PER_KIND):
        n, h, w, c = (int(v) for v in rng.integers(2, 6, size=4))
        x = rng.standard_normal((n, h, w, c)) + 0.3
        gamma = rng.standard_normal(c) + 1.5
        beta = rng.standard_normal(c)
        run_mean, run_var = np.zeros(c), np.ones(c)
        proj = rng.standard_normal(x.shape)

        def bn_loss(xv, gv, bv):
            out, _, _ = ops.batchnorm_forward(xv, gv, bv, run_mean, run_var, "train")
            return float((out * proj).sum())

        _, _, cache = ops.batchnorm_forward(x, gamma, beta, run_mean, run_var, "train")
        grads = ops.batchnorm_backward(gamma, cache, proj)
        yield "batchnorm", {
            "input": (grads.input_grad, lambda v: bn_loss(v, gamma, beta), x),
            "gamma": (grads.parameter_grads["gamma"], lambda v: bn_loss(x, v, beta), gamma),
            "beta": (grads.parameter_grads["beta"], lambda v: bn_loss(x, gamma, v), beta),
        }

    for _ in range(SHAPES_PER_KIND):
        shape = tuple(int(v) for v in rng.integers(2, 6, size=3))
        x = spaced_values(rng, shape)
        proj = rng.standard_normal(shape)
        yield "relu", {
            "input": (
                ops.relu_backward(x, proj),
                lambda v: float((ops.relu(v) * proj).sum()),
                x,
            )
        }

    for _ in range(SHAPES_PER_KIND):
        wh, ww, ho, wo, c = (int(v) for v in rng.integers(1, 4, size=5))
        x = spaced_values(rng, (1, ho * wh, wo * ww, c))
        proj = rng.standard_normal((1, ho, wo, c))
        yield "maxpool2d", {
            "input": (
                ops.maxpool2d_backward(x, (wh, ww), proj),
                lambda v: float((ops.maxpool2d(v, (wh, ww)) * proj).sum()),
                x,
            )
        }

    for _ in range(SHAPES_PER_KIND):
        n, h, w, c = (int(v) for v in rng.integers(1, 5, size=4))
        x = rng.standard_normal((n, h + 1, w + 1, c))
        proj = rng.standard_normal((n, c))
        yield "global_avg_pool", {
            "input": (
                ops.global_avg_pool_backward(x, proj),
                lambda v: float((ops.global_avg_pool(v) * proj).sum()),
                x,
            )
        }

    for _ in range(SHAPES_PER_KIND):
        n, d, k = (int(v) for v in rng.integers(1, 6, size=3))
        x = rng.standard_normal((n, d))
        weights = rng.standard_normal((d, k))
        bias = rng.standard_normal(k)
        proj = rng.standard_normal((n, k))
        grads = ops.dense_backward(x, weights, proj)
        loss = lambda xv, wv, bv: float((ops.dense(xv, wv, bv) * proj).sum())
        yield "dense", {
            "input": (grads.input_grad, lambda v: loss(v, weights, bias), x),
            "weights": (grads.parameter_grads["weights"], lambda v: loss(x, v, bias), weights),
            "bias": (grads.parameter_grads["bias"], lambda v: loss(x, weights, v), bias),
        }

    for _ in range(SHAPES_PER_KIND):
        c1, c2 = (int(v) for v in rng.integers(1, 5, size=2))
        a = rng.standard_normal((2, 2, c1))
        b = rng.standard_normal((2, 2, c2))
        proj = rng.standard_normal((2, 2, c1 + c2))
        part_a, part_b = ops.concatenate_backward(proj, [c1, c2])
        yield "concatenate", {
            "lhs": (part_a, lambda v: float((ops.concatenate([v, b]) * proj).sum()), a),
            "rhs": (part_b, lambda v: float((ops.concatenate([a, v]) * proj).sum()), b),
        }

    for _ in range(SHAPES_PER_KIND):
        shape = tuple(int(v) for v in rng.integers(1, 5, size=3))
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        proj = rng.standard_normal(shape)
        yield "residual_add", {
            "lhs": (proj, lambda v: float((ops.residual_add(v, b) * proj).sum()), a),
            "rhs": (proj, lambda v: float((ops.residual_add(a, v) * proj).sum()), b),
        }

    for _ in range(SHAPES_PER_KIND):
        shape = tuple(int(v) for v in rng.integers(2, 5, size=3))
        x = rng.standard_normal(shape)
        mask = rng.random(shape) >= 0.5
        proj = rng.standard_normal(shape)
        yield "dropout", {
            "input": (
                ops.dropout_backward(mask, 0.5, proj),
                lambda v: float((v * mask / 0.5 * proj).sum()),
                x,
            )
        }

    for _ in range(SHAPES_PER_KIND):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, k))
        labels = rng.integers(0, k, size=n)
        yield "softmax_cross_entropy", {
            "logits": (
                ops.mean_loss_logit_grad(ops.softmax(logits), labels),
                lambda v: float(np.mean(ops.cross_entropy(ops.softmax(v), labels))),
                logits,
            )
        }


def test_criterion_1_gradient_suite_under_60s():
    started = time.perf_counter()
    seen: dict[str, int] = {}
    worst: dict[str, float] = {}
    for kind, checks in _gradient_checks():
        seen[kind] = seen.get(kind, 0) + 1
        for slot, (analytic, loss, x) in checks.items():
            err = rel_error(analytic, numerical_grad(loss, x, step=STEP))
            worst[kind] = max(worst.get(kind, 0.0), err)
            assert err < TOL, f"{kind}/{slot}: rel error {err:.3e} >= {TOL}"
    elapsed = time.perf_counter() - started
    assert all(count >= 20 for count in seen.values()), seen
    assert len(seen) == 10, f"layer kinds covered: {sorted(seen)}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\ngradient suite: {sum(seen.values())} shapes over {len(seen)} kinds, "
          f"worst rel error {max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: architecture conformance for (C=6, K=11) and (C=9, K=16)


@pytest.mark.parametrize("c,k", [(6, 11), (9, 16)])
def test_criterion_2_architecture_conformance(c, k):
    assert trace_shapes(build_wcrn(c, k)) == wcrn_expected(c, k)
    assert trace_shapes(build_dccnn(c, k)) == dccnn_expected(c, k)
    assert trace_shapes(build_hresnet(c, k)) == hresnet_expected(c, k)


# ---------------------------------------------------------------------------
# Criterion 3: ME/BT selections match a brute-force full-sort oracle, < 10 s


def test_criterion_3_strategy_oracle_equivalence():
    rng = np.random.default_rng(99)
    started = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(2, 11))
        raw = rng.random((n, k)) + 1e-9
        values = raw / raw.sum(axis=1, keepdims=True)
        if trial % 3 == 0 and n >= 2:
            # Duplicate rows force score ties; the id order must break them.
            values[: n // 2] = values[0]
        ids = rng.permutation(10 * n)[:n].astype(np.int64)
        probs = ProbabilityMatrix.from_values(values, ids)
        batch = int(rng.integers(1, n + 1))
        entropy = score_entropy(probs)
        margin = score_bt_margin(probs)
        oracle_me = [i for _, i in sorted(zip(-entropy, ids), key=lambda t: (t[0], t[1]))][:batch]
        oracle_bt = [i for _, i in sorted(zip(margin, ids), key=lambda t: (t[0], t[1]))][:batch]
        np.testing.assert_array_equal(select("me", probs, batch).chosen_ids, oracle_me)
        np.testing.assert_array_equal(select("bt", probs, batch).chosen_ids, oracle_bt)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"\nstrategy oracle: 1000 matrices, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: committee-of-one selections bit-identical to the base strategy


def test_criterion_4_aedl_reduction():
    graph = build_wcrn(2, 3)
    rng = np.random.default_rng(123)
    for _ in range(100):
        member = init_params(graph, rng)
        patches = rng.standard_normal((int(rng.integers(2, 25)), 5, 5, 2))
        ids = rng.permutation(1000)[: len(patches)].astype(np.int64)
        batch = int(rng.integers(1, len(patches) + 1))
        probs = ProbabilityMatrix.from_values(forward_batch(graph, member, patches), ids)
        committee_probs, _ = predict_probabilities(graph, (member,), patches)
        committee = ProbabilityMatrix.from_values(committee_probs, ids)
        for strategy in ("me", "bt"):
            base = select(strategy, probs, batch)
            reduced = select(strategy, committee, batch)
            assert reduced.chosen_ids.tobytes() == base.chosen_ids.tobytes()
            np.testing.assert_array_equal(reduced.scores, base.scores)


# ---------------------------------------------------------------------------
# Criterion 5: ensemble rows stochastic and inside the member envelope


def test_criterion_5_committee_math():
    graph = build_wcrn(2, 3)
    rng = np.random.default_rng(456)
    pool = [init_params(graph, rng) for _ in range(12)]
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        members = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=n))
        patches = rng.standard_normal((4, 5, 5, 2))
        member_probs = np.stack([forward_batch(graph, m, patches) for m in members])
        combined, member_preds = predict_probabilities(graph, members, patches)
        np.testing.assert_array_equal(member_preds, member_probs.argmax(axis=2))
        assert np.abs(combined.sum(axis=1) - 1.0).max() < 1e-6
        assert (combined >= member_probs.min(axis=0) - 1e-12).all()
        assert (combined <= member_probs.max(axis=0) + 1e-12).all()


# ---------------------------------------------------------------------------
# Criterion 6: crafted 9-member fixtures with hand-counted histograms


def test_criterion_6_agreement_histogram_fixtures():
    # Fixture A: 20 instances, exactly 7 fully agreed -> fraction 0.35; the
    # remaining 13 instances have hand-built majority sizes.
    members, instances = 9, 20
    sizes_by_hand = [9] * 7 + [8, 8, 7, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1]
    assert len(sizes_by_hand) == instances
    preds = np.zeros((members, instances), dtype=np.int64)
    for col, majority in enumerate(sizes_by_hand):
        # `majority` members vote 0; the rest spread over distinct labels so no
        # other label reaches the majority size.
        others = [1 + (j % 8) for j in range(members - majority)]
        votes = [0] * majority + others
        if majority == 1:
            votes = list(range(9))  # all distinct, tie at multiplicity 1
        preds[:, col] = votes
    hist = agreement_histogram(preds)
    np.testing.assert_array_equal(hist.majority_sizes, sizes_by_hand)
    expected_counts = np.bincount(sizes_by_hand, minlength=10)
    np.testing.assert_array_equal(hist.counts, expected_counts)
    assert hist.full_agreement_fraction == pytest.approx(7 / 20)

    # Fixture B: unanimous table.
    unanimous = np.tile(np.arange(5), (9, 1))
    hist_b = agreement_histogram(unanimous)
    assert hist_b.counts[9] == 5 and hist_b.full_agreement_fraction == 1.0

    # Fixture C: tie at multiplicity 4 counted at 4, smaller label wins.
    tie_col = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3])
    hist_c = agreement_histogram(np.tile(tie_col[:, None], (1, 3)))
    np.testing.assert_array_equal(hist_c.majority_sizes, [4, 4, 4])
    np.testing.assert_array_equal(hist_c.majority_labels, [1, 1, 1])


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end synthetic experiment, < 15 min


def _acceptance_spec() -> SyntheticSpec:
    # Classes 0 and 1 share a tight boundary on channel 0; class 2 is distant.
    # Calibrated so the initial model sits below 85% OA and both strategies
    # cross it within ten rounds.
    means = (
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 2.5, 0.0, 0.0, 0.0, 0.0),
    )
    return SyntheticSpec(
        class_count=3, patch_size=5, channels=6, instances_per_class=2000,
        covariance_scale=1.0, speckle_intensity=0.5, class_means=means, seed=7,
    )


def _acceptance_config(strategy: str) -> ExperimentConfig:
    return ExperimentConfig(
        network="wcrn", strategy=strategy, synthetic=_acceptance_spec(),
        per_class_seed=5, batch_per_round=5, round_count=10,
        candidate_size=2000, test_size=3000,
        initial_epochs=40, finetune_epochs=15, snapshot_interval_epochs=2,
        committee_size=5, monte_carlo_runs=10, seed=0,
    )


def test_criterion_7_end_to_end_synthetic_experiment():
    started = time.perf_counter()
    aedl = run_monte_carlo(_acceptance_config("aedl-bt"))
    random_baseline = run_monte_carlo(_acceptance_config("rs"))

    # (a) every run is deterministic per seed: replay both sets of seeds.
    aedl_replay = run_monte_carlo(_acceptance_config("aedl-bt"))
    rs_replay = run_monte_carlo(_acceptance_config("rs"))
    for first, second in [(aedl, aedl_replay), (random_baseline, rs_replay)]:
        for curve_a, curve_b in zip(first.curves, second.curves):
            assert curve_a.oas.tobytes() == curve_b.oas.tobytes()
            np.testing.assert_array_equal(curve_a.labeled_counts, curve_b.labeled_counts)

    # (b) paired terminal ordering.
    terminal_aedl = np.array([c.oas[-1] for c in aedl.curves])
    terminal_rs = np.array([c.oas[-1] for c in random_baseline.curves])
    wins = int((terminal_aedl > terminal_rs).sum())
    assert aedl.mean_oa[-1] >= random_baseline.mean_oa[-1], (
        f"mean terminal {aedl.mean_oa[-1]:.4f} < {random_baseline.mean_oa[-1]:.4f}"
    )
    assert wins >= 7, f"aedl-bt won only {wins}/10 paired seeds"

    # (c) sample efficiency at the 85% OA target on the mean curves.
    crossing = samples_to_target(aedl.mean_curve, random_baseline.mean_curve, 0.85)
    assert crossing.ratio is not None, "a mean curve never reached 85% OA"
    assert crossing.ratio < 1.0, f"sample ratio {crossing.ratio:.3f} >= 1.0"

    # The committee-strategy mean curve is non-decreasing within a one-std band.
    for i in range(len(aedl.mean_oa) - 1):
        assert aedl.mean_oa[i + 1] >= aedl.mean_oa[i] - aedl.std_oa[i], (
            f"aedl-bt mean curve dips below the noise band at round {i + 1}"
        )

    # Per-seed crossing comparisons are reported only: individual desk-scale
    # curves are too noisy for a hard bound (a seed can start above the target).
    favorable = 0
    for curve_a, curve_r in zip(aedl.curves, random_baseline.curves):
        pair = samples_to_target(curve_a, curve_r, 0.85)
        if pair.samples_a is not None and (
            pair.samples_b is None or pair.samples_a < pair.samples_b
        ):
            favorable += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"end-to-end experiment took {elapsed:.0f}s"
    print(
        f"\nend-to-end: mean terminal OA aedl-bt {aedl.mean_oa[-1]:.4f} vs "
        f"rs {random_baseline.mean_oa[-1]:.4f}, wins {wins}/10, "
        f"85% crossing ratio {crossing.ratio:.3f} "
        f"(earlier per-seed crossing in {favorable}/10 pairs), {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 8: committee-size sensitivity sweep


def test_criterion_8_sensitivity_sweep():
    spec = replace(_acceptance_spec(), instances_per_class=600)
    config = ExperimentConfig(
        network="wcrn", strategy="aedl-bt", synthetic=spec,
        per_class_seed=5, batch_per_round=5, round_count=6,
        candidate_size=600, test_size=1000,
        initial_epochs=30, finetune_epochs=9, snapshot_interval_epochs=1,
        committee_size=9, monte_carlo_runs=5, seed=0,
    )
    sizes = [1, 3, 9]
    sweep = sensitivity_sweep(config, sizes)

    # Hard check: a committee of one reproduces the plain strategy bit-exactly.
    standard = run_monte_carlo(replace(config, strategy="bt", committee_size=1))
    assert sweep[1].mean_oa.tobytes() == standard.mean_oa.tobytes()
    for curve_a, curve_b in zip(sweep[1].curves, standard.curves):
        assert curve_a.oas.tobytes() == curve_b.oas.tobytes()
    grids = [sweep[n].labeled_counts for n in sizes]
    for grid in grids[1:]:
        np.testing.assert_array_equal(grid, grids[0])

    # Paired comparison of the extremes: the full committee should not lose to
    # a committee of one by more than the seed noise.
    terminal = {n: sweep[n].mean_oa[-1] for n in sizes}
    band = {n: sweep[n].std_oa[-1] for n in sizes}
    assert terminal[9] >= terminal[1] - band[1], (
        f"n=9 terminal OA {terminal[9]:.4f} below n=1 {terminal[1]:.4f} - std"
    )

    # Soft check (reported, not failed): terminal OA non-decreasing in n
    # within a one-standard-deviation band.
    soft_ok = all(
        terminal[b] >= terminal[a] - band[a]
        for a, b in zip(sizes, sizes[1:])
    )
    status = "holds" if soft_ok else "violated"
    print(
        "\nsweep terminal OA: "
        + ", ".join(f"n={n}: {terminal[n]:.4f} (std {band[n]:.4f})" for n in sizes)
        + f"; non-decreasing-within-1-std {status}"
    )


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical aggregate CSVs from repeated CLI runs


CLI_CONFIG = """\
network = wcrn
strategy = aedl-bt
synthetic.class_count = 3
synthetic.patch_size = 5
synthetic.channels = 2
synthetic.instances_per_class = 80
synthetic.class_separation = 2.0
synthetic.speckle_intensity = 0.4
synthetic.seed = 21
per_class_seed = 3
batch_per_round = 4
round_count = 3
candidate_size = 90
test_size = 90
initial_epochs = 5
finetune_epochs = 4
snapshot_interval_epochs = 2
committee_size = 2
monte_carlo_runs = 3
seed = 17
"""


def test_criterion_9_cli_determinism(tmp_path):
    from aedl.config import experiment_config_from_file

    config_path = tmp_path / "experiment.cfg"
    config_path.write_text(CLI_CONFIG)
    out_a, out_b = tmp_path / "first", tmp_path / "second"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    config = experiment_config_from_file(config_path)
    import json

    hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert hash_a == hash_b == config.config_hash()
    bytes_a = (out_a / "aggregate.csv").read_bytes()
    bytes_b = (out_b / "aggregate.csv").read_bytes()
    assert bytes_a == bytes_b and len(bytes_a) > 0
