"""Candidate scoring and selection: random, entropy and margin, plus committee
disagreement analysis.

Scoring is embarrassingly parallel over instances; selection itself is a
single sort with a deterministic ascending-id tie-break so results are
invariant under any permutation of the candidate order. The committee
variants ("aedl-me", "aedl-bt") score committee-averaged probabilities from
`aedl.experiment.predict_probabilities` with the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRATEGIES = ("rs", "me", "bt", "aedl-me", "aedl-bt")

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Row-stochastic (N, K) class probabilities keyed by candidate instance id."""

    values: np.ndarray
    instance_ids: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"values must be (N, K), got ndim={v.ndim}")
        if len(self.instance_ids) != v.shape[0]:
            raise ValueError(
                f"{len(self.instance_ids)} ids for {v.shape[0]} rows"
            )
        if v.size:
            nonfinite = ~np.isfinite(v).all(axis=1)
            if nonfinite.any():
                raise ValueError(f"row {int(np.argmax(nonfinite))} has a non-finite probability")
            if v.min() < -ROW_SUM_TOL or v.max() > 1.0 + ROW_SUM_TOL:
                raise ValueError("probabilities must lie in [0, 1]")
            bad = np.abs(v.sum(axis=1) - 1.0) > ROW_SUM_TOL
            if bad.any():
                row = int(np.nonzero(bad)[0][0])
                raise ValueError(f"row {row} sums to {v[row].sum():.9f}, expected 1")

    @staticmethod
    def from_values(values, instance_ids=None) -> "ProbabilityMatrix":
        values = np.asarray(values, dtype=np.float64)
        if instance_ids is None:
            instance_ids = np.arange(values.shape[0], dtype=np.int64)
        return ProbabilityMatrix(values, np.asarray(instance_ids, dtype=np.int64))


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate ids plus the per-candidate scores that ranked them."""

    chosen_ids: np.ndarray
    scores: np.ndarray | None


def score_entropy(probs: ProbabilityMatrix) -> np.ndarray:
    """Shannon entropy per row (natural log, 0 log 0 = 0); larger = less certain."""
    v = probs.values
    terms = np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    return -terms.sum(axis=1)


def score_bt_margin(probs: ProbabilityMatrix) -> np.ndarray:
    """Gap between the two largest class probabilities; smaller = less certain."""
    v = probs.values
    if v.shape[1] < 2:
        raise ValueError(f"margin needs at least 2 classes, got {v.shape[1]}")
    top_two = np.partition(v, (v.shape[1] - 2, v.shape[1] - 1), axis=1)
    return top_two[:, -1] - top_two[:, -2]


def _rank(scores: np.ndarray, ids: np.ndarray, descending: bool) -> np.ndarray:
    key = -scores if descending else scores
    return np.lexsort((ids, key))


def select(strategy: str, probs_or_ids, batch: int, seed=None) -> SelectionResult:
    """Pick up to `batch` candidates.

    "rs" draws uniformly without replacement from candidate ids (pass ids and a
    seed or Generator). "me" takes the top-`batch` by entropy, "bt" the
    bottom-`batch` by margin (pass a ProbabilityMatrix); score ties break
    toward the smaller instance id.
    """
    strategy = strategy.lower()
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if strategy == "rs":
        ids = np.asarray(probs_or_ids, dtype=np.int64)
        if len(ids) == 0:
            return SelectionResult(ids, None)
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        chosen = rng.choice(ids, size=min(batch, len(ids)), replace=False)
        return SelectionResult(chosen.astype(np.int64), None)
    if strategy not in ("me", "bt"):
        raise ValueError(f"unknown strategy {strategy!r}")
    probs: ProbabilityMatrix = probs_or_ids
    ids = probs.instance_ids
    if len(ids) == 0:
        return SelectionResult(ids.astype(np.int64), np.zeros(0))
    if strategy == "me":
        scores = score_entropy(probs)
        order = _rank(scores, ids, descending=True)
    else:
        scores = score_bt_margin(probs)
        order = _rank(scores, ids, descending=False)
    return SelectionResult(ids[order[: min(batch, len(ids))]], scores)


@dataclass(frozen=True)
class AgreementHistogram:
    """Distribution of the modal predicted label's multiplicity across members.

    counts[m] is the number of instances whose majority label was predicted by
    exactly m of the n members (counts[0] is always 0); full_agreement_fraction
    is the mass at m == n.
    """

    counts: np.ndarray
    full_agreement_fraction: float
    majority_sizes: np.ndarray
    majority_labels: np.ndarray

    @property
    def member_count(self) -> int:
        return len(self.counts) - 1


def agreement_histogram(member_predictions) -> AgreementHistogram:
    """Tally per-instance majority sizes over n members' label predictions.

    A tied majority is counted at the tied multiplicity and the smaller label
    wins the tie.
    """
    lengths = {len(p) for p in member_predictions}
    if len(lengths) > 1:
        raise ValueError(f"member prediction lengths differ: {sorted(lengths)}")
    preds = np.asarray(member_predictions, dtype=np.int64)
    if preds.ndim != 2:
        raise ValueError(f"predictions must be n x N labels, got ndim={preds.ndim}")
    n, total = preds.shape
    label_count = int(preds.max()) + 1 if preds.size else 1
    votes = np.zeros((total, label_count), dtype=np.int64)
    rows = np.arange(total)
    for member in preds:
        votes[rows, member] += 1
    sizes = votes.max(axis=1)
    majority = votes.argmax(axis=1)  # argmax returns the smallest tied label
    counts = np.bincount(sizes, minlength=n + 1)
    fraction = float(np.mean(sizes == n)) if total else 0.0
    return AgreementHistogram(counts, fraction, sizes, majority)
