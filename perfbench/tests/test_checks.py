"""Each correctness check of the benchmark accepts the library and fails on a perturbed input.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import csv

import numpy as np
import pytest

from aedl import experiment, networks, selection
from aedl.data import SyntheticSpec

import checks
import oracle


def _committee(network):
    rng = np.random.default_rng(3)
    graph = networks.BUILDERS[network](6, 3)
    members = oracle.make_members(networks, graph, rng, 3)
    patches = rng.standard_normal((40, *graph.input_shape))
    return graph, members, patches


def _check(graph, members, patches, predict=experiment.predict_probabilities,
           select=selection.select, agreement=selection.agreement_histogram, oracle_members=None):
    oracle.check_committee(graph, members, patches, predict, select, agreement,
                           selection.ProbabilityMatrix.from_values, oracle_members=oracle_members)


@pytest.mark.parametrize("network", ["wcrn", "hresnet"])
def test_oracle_accepts_the_library(network):
    _check(*_committee(network))


def test_members_have_non_default_bn_stats():
    _, members, _ = _committee("wcrn")
    entries = members[0].entries
    assert not np.allclose(entries["bn4.run_mean"], 0.0)
    assert not np.allclose(entries["bn4.run_var"], 1.0)


@pytest.mark.parametrize("network", ["wcrn", "hresnet"])
def test_weight_nudged_by_1e_6_fails(network):
    graph, members, patches = _committee(network)
    nudged = [m.copy() for m in members]
    first_conv = next(layer.name for layer in graph.layers if layer.kind == "conv")
    nudged[1].entries[f"{first_conv}.weights"][0, 0, 0, 0] += 1e-6
    with pytest.raises(oracle.CheckError, match="probabilities"):
        _check(graph, members, patches, oracle_members=nudged)


def test_members_swapped_between_probability_and_argmax_fails():
    graph, members, patches = _committee("wcrn")

    def swapped(graph, members, patches, chunk):
        mean, preds = experiment.predict_probabilities(graph, members, patches, chunk=chunk)
        return mean, preds[[1, 0, 2]]

    with pytest.raises(oracle.CheckError, match="argmax"):
        _check(graph, members, patches, predict=swapped)


def test_shuffled_selection_fails():
    graph, members, patches = _committee("wcrn")

    def shuffled(strategy, probs, batch):
        result = selection.select(strategy, probs, batch)
        return selection.SelectionResult(np.roll(result.chosen_ids, 1), result.scores)

    with pytest.raises(oracle.CheckError, match="ranking"):
        _check(graph, members, patches, select=shuffled)


def test_wrong_vote_tally_fails():
    graph, members, patches = _committee("wcrn")

    def off_by_one(preds):
        hist = selection.agreement_histogram(preds)
        counts = hist.counts.copy()
        counts[-1] += 1
        return selection.AgreementHistogram(counts, hist.full_agreement_fraction,
                                            hist.majority_sizes, hist.majority_labels)

    with pytest.raises(oracle.CheckError, match="agreement"):
        _check(graph, members, patches, agreement=off_by_one)


def _small_config(strategy):
    spec = SyntheticSpec(
        class_count=3, patch_size=5, channels=6, instances_per_class=300,
        covariance_scale=1.0, speckle_intensity=0.5, seed=1,
        class_means=((0, 0, 0, 0, 0, 0), (0.5, 0, 0, 0, 0, 0), (0, 2.5, 0, 0, 0, 0)),
    )
    return experiment.ExperimentConfig(
        network="wcrn", strategy=strategy, synthetic=spec, per_class_seed=5,
        batch_per_round=5, round_count=2, candidate_size=200, test_size=300,
        initial_epochs=10, finetune_epochs=4, snapshot_interval_epochs=2,
        committee_size=2, seeds=(0, 1),
    )


@pytest.fixture(scope="module", params=["aedl-bt", "rs"])
def exported(request, tmp_path_factory):
    config = _small_config(request.param)
    result = experiment.run_monte_carlo(config)
    out = tmp_path_factory.mktemp(request.param)
    experiment.export_results(result, out)
    return config, result, out


def test_output_checks_accept_the_library(exported):
    config, result, out = exported
    assert len(checks.check_experiment(config, result, out)) == 64


def test_one_digit_of_an_oa_changed_in_the_csv_fails(exported, tmp_path):
    config, result, out = exported
    path = out / "aggregate.csv"
    original = path.read_text()
    with open(path, newline="") as fh:
        oa = next(csv.DictReader(fh))["oa"]
    digit = next(i for i in range(len(oa) - 1, -1, -1) if oa[i].isdigit())
    changed = oa[:digit] + str((int(oa[digit]) + 1) % 10) + oa[digit + 1:]
    path.write_text(original.replace(f",{oa},", f",{changed},", 1))
    try:
        with pytest.raises(oracle.CheckError, match="oa"):
            checks.check_experiment(config, result, out)
    finally:
        path.write_text(original)


def test_agreement_rows_are_checked(exported):
    config, result, out = exported
    path = out / "agreement.csv"
    original = path.read_text()
    if config.strategy == "rs":
        path.write_text(original + "rs,wcrn,0,1,1,300\n")
        expected = "agreement rows"
    else:
        lines = original.splitlines()
        fields = lines[1].split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        path.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        expected = "test_size"
    try:
        with pytest.raises(oracle.CheckError, match=expected):
            checks.check_experiment(config, result, out)
    finally:
        path.write_text(original)


def test_labeled_count_grid_is_checked(exported):
    config, result, out = exported
    with pytest.raises(oracle.CheckError, match="labeled_count"):
        checks.check_experiment(experiment.replace(config, batch_per_round=4), result, out)
