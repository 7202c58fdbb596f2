"""Scoring, selection, committee math, and disagreement analysis."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aedl.experiment import predict_probabilities
from aedl.networks import build_wcrn, forward_batch, init_params
from aedl.selection import (
    ProbabilityMatrix,
    SelectionResult,
    agreement_histogram,
    score_bt_margin,
    score_entropy,
    select,
)


def brute_force_rank(scores, ids, descending):
    """Full python sort with ascending-id tie-break; independent of numpy paths."""
    keyed = sorted(zip(scores, ids), key=lambda t: ((-t[0] if descending else t[0]), t[1]))
    return [i for _, i in keyed]


def random_probability_matrix(rng, n, k, ids=None):
    raw = rng.random((n, k)) + 1e-9
    values = raw / raw.sum(axis=1, keepdims=True)
    return ProbabilityMatrix.from_values(values, ids)


class TestScores:
    def test_entropy_of_uniform_row_is_log_k(self):
        probs = ProbabilityMatrix.from_values([[0.25] * 4])
        assert score_entropy(probs)[0] == pytest.approx(math.log(4))

    def test_entropy_of_one_hot_is_zero(self):
        probs = ProbabilityMatrix.from_values([[0.0, 1.0, 0.0]])
        assert score_entropy(probs)[0] == 0.0

    def test_entropy_against_direct_summation(self):
        row = [0.5, 0.3, 0.2]
        expected = -sum(p * math.log(p) for p in row)
        probs = ProbabilityMatrix.from_values([row])
        assert score_entropy(probs)[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.0297, abs=5e-5)

    def test_margin_one_hot(self):
        assert score_bt_margin(ProbabilityMatrix.from_values([[1.0, 0.0]]))[0] == 1.0

    def test_margin_uniform_is_zero(self):
        assert score_bt_margin(ProbabilityMatrix.from_values([[0.25] * 4]))[0] == 0.0

    def test_margin_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        probs = random_probability_matrix(rng, 50, 6)
        expected = [sorted(row, reverse=True) for row in probs.values]
        got = score_bt_margin(probs)
        for row, value in zip(expected, got):
            assert value == pytest.approx(row[0] - row[1], rel=1e-12)
        assert score_bt_margin(ProbabilityMatrix.from_values([[0.5, 0.3, 0.2]]))[
            0
        ] == pytest.approx(0.2)

    def test_entropy_max_attained_only_at_uniform(self):
        rng = np.random.default_rng(1)
        probs = random_probability_matrix(rng, 200, 5)
        assert score_entropy(probs).max() < math.log(5)

    def test_margin_range(self):
        rng = np.random.default_rng(2)
        scores = score_bt_margin(random_probability_matrix(rng, 200, 7))
        assert scores.min() >= 0.0 and scores.max() <= 1.0


class TestSelect:
    def test_batch_covering_pool_selects_everything(self):
        rng = np.random.default_rng(3)
        ids = np.array([4, 9, 17, 23])
        probs = random_probability_matrix(rng, 4, 3, ids)
        for strategy, arg in [("rs", ids), ("me", probs), ("bt", probs)]:
            result = select(strategy, arg, batch=4, seed=0)
            assert sorted(result.chosen_ids) == sorted(ids)

    def test_uncertain_row_wins_both_criteria(self):
        values = [[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2]]
        probs = ProbabilityMatrix.from_values(values, [10, 20, 30])
        assert select("me", probs, 1).chosen_ids[0] == 10
        assert select("bt", probs, 1).chosen_ids[0] == 10

    @pytest.mark.parametrize("strategy", ["me", "bt"])
    def test_matches_brute_force_oracle(self, strategy):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(2, 10))
            ids = rng.permutation(1000)[:n]
            probs = random_probability_matrix(rng, n, k, ids)
            scores = score_entropy(probs) if strategy == "me" else score_bt_margin(probs)
            expected = brute_force_rank(scores, ids, descending=strategy == "me")[:10]
            got = select(strategy, probs, batch=10)
            np.testing.assert_array_equal(got.chosen_ids, expected)

    @pytest.mark.parametrize("strategy", ["me", "bt"])
    def test_tie_break_is_ascending_id(self, strategy):
        values = np.tile([0.6, 0.3, 0.1], (5, 1))
        probs = ProbabilityMatrix.from_values(values, [42, 7, 19, 3, 28])
        got = select(strategy, probs, batch=3)
        np.testing.assert_array_equal(got.chosen_ids, [3, 7, 19])

    @pytest.mark.parametrize("strategy", ["me", "bt"])
    def test_permutation_invariance(self, strategy):
        rng = np.random.default_rng(5)
        probs = random_probability_matrix(rng, 40, 4, rng.permutation(500)[:40])
        base = select(strategy, probs, batch=8).chosen_ids
        for _ in range(5):
            perm = rng.permutation(40)
            shuffled = ProbabilityMatrix(probs.values[perm], probs.instance_ids[perm])
            np.testing.assert_array_equal(select(strategy, shuffled, batch=8).chosen_ids, base)

    def test_rs_is_seed_deterministic_without_replacement(self):
        ids = np.arange(50)
        a = select("rs", ids, batch=10, seed=123)
        b = select("rs", ids, batch=10, seed=123)
        np.testing.assert_array_equal(a.chosen_ids, b.chosen_ids)
        assert len(np.unique(a.chosen_ids)) == 10

    def test_rs_frequency_is_uniform(self):
        # Chi-square over 10^4 draws of 1 from 20 ids; 99% critical value for
        # 19 degrees of freedom is 36.19.
        ids = np.arange(20)
        counts = Counter()
        for seed in range(10_000):
            counts.update(select("rs", ids, batch=1, seed=seed).chosen_ids.tolist())
        observed = np.array([counts[i] for i in ids], dtype=float)
        expected = 10_000 / 20
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 36.19, f"chi-square {chi2:.2f} exceeds the 99% bound"

    def test_empty_pool_gives_empty_result(self):
        empty = ProbabilityMatrix.from_values(np.zeros((0, 3)))
        assert len(select("me", empty, batch=5).chosen_ids) == 0
        assert len(select("rs", np.array([], dtype=np.int64), batch=5, seed=0).chosen_ids) == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            select("qbc", np.arange(3), batch=1)


class TestProbabilityMatrix:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="sums to"):
            ProbabilityMatrix.from_values([[0.7, 0.7]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMatrix.from_values([[1.5, -0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows_by_index(self, bad):
        with pytest.raises(ValueError, match="row 0 has a non-finite"):
            ProbabilityMatrix.from_values([[bad] * 3, [0.2, 0.3, 0.5], [0.9, 0.05, 0.05]])
        with pytest.raises(ValueError, match="row 1 has a non-finite"):
            ProbabilityMatrix.from_values([[0.2, 0.3, 0.5], [bad, 0.5, 0.5], [bad] * 3])

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 30), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_random_rows_validate(self, n, k, seed):
        rng = np.random.default_rng(seed)
        random_probability_matrix(rng, n, k)  # construction is the assertion


class TestEnsemble:
    @staticmethod
    def _graph_and_members(seed, count):
        graph = build_wcrn(2, 3)
        rng = np.random.default_rng(seed)
        return graph, [init_params(graph, rng) for _ in range(count)]

    def test_committee_of_one_is_bit_exact(self):
        graph, members = self._graph_and_members(6, 1)
        batch = np.random.default_rng(7).standard_normal((5, 5, 5, 2))
        single = forward_batch(graph, members[0], batch)
        combined, _ = predict_probabilities(graph, members, batch)
        assert combined.tobytes() == single.tobytes()

    def test_two_member_mean(self):
        graph, members = self._graph_and_members(8, 2)
        batch = np.random.default_rng(9).standard_normal((4, 5, 5, 2))
        a = forward_batch(graph, members[0], batch)
        b = forward_batch(graph, members[1], batch)
        combined, _ = predict_probabilities(graph, members, batch)
        np.testing.assert_allclose(combined, (a + b) / 2, atol=1e-15)

    def test_identical_members_collapse(self):
        graph, members = self._graph_and_members(10, 1)
        batch = np.random.default_rng(11).standard_normal((3, 5, 5, 2))
        single = forward_batch(graph, members[0], batch)
        combined, _ = predict_probabilities(graph, members * 3, batch)
        np.testing.assert_allclose(combined, single, atol=1e-15)

    def test_rows_within_member_envelope(self):
        graph, members = self._graph_and_members(12, 5)
        batch = np.random.default_rng(13).standard_normal((6, 5, 5, 2))
        member_probs = np.stack([forward_batch(graph, m, batch) for m in members])
        combined, _ = predict_probabilities(graph, members, batch)
        assert (combined >= member_probs.min(axis=0) - 1e-12).all()
        assert (combined <= member_probs.max(axis=0) + 1e-12).all()
        np.testing.assert_allclose(combined.sum(axis=1), 1.0, atol=1e-6)

    def test_empty_committee_rejected(self):
        graph = build_wcrn(2, 3)
        with pytest.raises(ValueError, match="at least one"):
            predict_probabilities(graph, (), np.zeros((1, 5, 5, 2)))


class TestSelectAedl:
    def test_committee_of_one_reduces_to_standard(self):
        graph = build_wcrn(2, 3)
        rng = np.random.default_rng(14)
        member = init_params(graph, rng)
        batch = rng.standard_normal((20, 5, 5, 2))
        ids = np.arange(100, 120)
        committee_probs, _ = predict_probabilities(graph, (member,), batch)
        for strategy in ("me", "bt"):
            base = select(
                strategy,
                ProbabilityMatrix.from_values(forward_batch(graph, member, batch), ids),
                batch=5,
            )
            combined = select(strategy, ProbabilityMatrix.from_values(committee_probs, ids), 5)
            np.testing.assert_array_equal(combined.chosen_ids, base.chosen_ids)

    def test_disagreement_can_flip_the_margin_ranking(self):
        # Member 1 alone ranks candidate 0 as most uncertain, but averaging with
        # member 2 makes candidate 2 the tightest margin.
        member1 = np.array([[0.50, 0.50], [0.90, 0.10], [0.75, 0.25]])
        member2 = np.array([[0.95, 0.05], [0.90, 0.10], [0.65, 0.35]])
        mean = (member1 + member2) / 2
        ids = np.array([0, 1, 2])
        single_pick = select("bt", ProbabilityMatrix.from_values(member1, ids), 1)
        committee_pick = select("bt", ProbabilityMatrix.from_values(mean, ids), 1)
        assert single_pick.chosen_ids[0] == 0
        assert committee_pick.chosen_ids[0] == 2
        margins = score_bt_margin(ProbabilityMatrix.from_values(mean, ids))
        assert brute_force_rank(margins, ids, descending=False)[0] == 2


class TestAgreementHistogram:
    def test_full_agreement(self):
        preds = np.tile(np.array([2, 0, 1, 1, 2]), (9, 1))
        hist = agreement_histogram(preds)
        assert hist.counts[9] == 5 and hist.counts[:9].sum() == 0
        assert hist.full_agreement_fraction == 1.0

    def test_total_disagreement_two_members(self):
        hist = agreement_histogram(np.array([[0, 1, 2], [1, 2, 0]]))
        assert hist.counts[1] == 3
        assert hist.full_agreement_fraction == 0.0

    def test_crafted_table_matches_hand_count(self):
        # 9 members x 5 instances; majority sizes by hand: 9, 5, 4, 3, 6.
        preds = np.array(
            [
                [0, 1, 2, 0, 1],
                [0, 1, 2, 1, 1],
                [0, 1, 2, 2, 1],
                [0, 1, 0, 3, 1],
                [0, 1, 0, 0, 1],
                [0, 0, 0, 1, 1],
                [0, 0, 1, 2, 0],
                [0, 0, 1, 3, 0],
                [0, 0, 2, 0, 0],
            ]
        )
        hist = agreement_histogram(preds)
        counter = Counter(
            Counter(preds[:, i]).most_common(1)[0][1] for i in range(preds.shape[1])
        )
        for m in range(1, 10):
            assert hist.counts[m] == counter.get(m, 0)
        np.testing.assert_array_equal(hist.majority_sizes, [9, 5, 4, 3, 6])
        assert hist.full_agreement_fraction == pytest.approx(0.2)

    def test_tie_goes_to_smaller_label_at_tied_multiplicity(self):
        hist = agreement_histogram(np.array([[2, 1], [1, 2], [2, 1], [1, 2]]))
        np.testing.assert_array_equal(hist.majority_sizes, [2, 2])
        np.testing.assert_array_equal(hist.majority_labels, [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            agreement_histogram([np.array([0, 1]), np.array([0, 1, 2])])


def test_selection_result_has_no_duplicates():
    rng = np.random.default_rng(16)
    probs = random_probability_matrix(rng, 30, 4, rng.permutation(200)[:30])
    result = select("bt", probs, batch=12)
    assert isinstance(result, SelectionResult)
    assert len(np.unique(result.chosen_ids)) == len(result.chosen_ids) == 12
