"""Independent reference for committee prediction, vote tallies and ranking.

Nothing here calls `aedl.ops`: the forward pass walks the graph's layer list
with plain numpy loops and einsum, so a fault in the library's kernels or in
its graph execution shows as a mismatch. The library functions under test are
passed in, which lets the self-tests feed perturbed versions.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

PROB_ATOL = 1e-11  # float64 round-off is ~1e-15 here; a 1e-6 weight nudge moves probabilities by ~1e-8
ARGMAX_GAP = 1e-9  # per-member argmax is compared only where the top two differ by more
BN_EPS = 1e-5


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


def _conv(x, weights, bias, padding):
    p_ext, q_ext, _, k_out = weights.shape
    if padding == "same":
        top, left = (p_ext - 1) // 2, (q_ext - 1) // 2
        x = np.pad(x, ((0, 0), (top, p_ext - 1 - top), (left, q_ext - 1 - left), (0, 0)))
    n, h, w, _ = x.shape
    out = np.empty((n, h - p_ext + 1, w - q_ext + 1, k_out))
    for i in range(out.shape[1]):
        for j in range(out.shape[2]):
            window = x[:, i : i + p_ext, j : j + q_ext, :]
            out[:, i, j, :] = np.einsum("npqm,pqmk->nk", window, weights) + bias
    return out


def _maxpool(x, window):
    wh, ww = window
    n, h, w, c = x.shape
    out = np.empty((n, h // wh, w // ww, c))
    for i in range(h // wh):
        for j in range(w // ww):
            out[:, i, j, :] = x[:, i * wh : (i + 1) * wh, j * ww : (j + 1) * ww, :].max(axis=(1, 2))
    return out


def reference_forward(graph, entries, patches) -> np.ndarray:
    """Infer-mode class probabilities (N, K) of one parameter set."""
    acts = {"input": np.asarray(patches, dtype=np.float64)}
    for layer in graph.layers:
        name, kind = layer.name, layer.kind
        x = acts[layer.inputs[0]]
        if kind == "conv":
            out = _conv(x, entries[f"{name}.weights"], entries[f"{name}.bias"], layer.padding)
        elif kind == "bn":
            scale = entries[f"{name}.gamma"] / np.sqrt(entries[f"{name}.run_var"] + BN_EPS)
            out = (x - entries[f"{name}.run_mean"]) * scale + entries[f"{name}.beta"]
        elif kind == "relu":
            out = np.where(x > 0.0, x, 0.0)
        elif kind == "maxpool":
            out = _maxpool(x, layer.window)
        elif kind == "gap":
            out = x.mean(axis=(1, 2))
        elif kind == "concat":
            out = np.concatenate([acts[src] for src in layer.inputs], axis=-1)
        elif kind == "add":
            out = acts[layer.inputs[0]] + acts[layer.inputs[1]]
        elif kind == "dropout":
            out = x
        elif kind == "flatten":
            out = x.reshape(len(x), -1)
        elif kind == "dense":
            out = np.einsum("nd,dk->nk", x, entries[f"{name}.weights"]) + entries[f"{name}.bias"]
        elif kind == "softmax":
            e = np.exp(x - x.max(axis=1, keepdims=True))
            out = e / e.sum(axis=1, keepdims=True)
        else:
            raise CheckError(f"reference forward has no rule for layer kind {kind!r}")
        acts[name] = out
    return acts[graph.layers[-1].name]


def make_members(networks, graph, rng, count):
    """Seeded init_params members with non-default BN affine and running stats."""
    members = []
    for _ in range(count):
        params = networks.init_params(graph, rng)
        for name, arr in params.entries.items():
            if name.endswith(".run_mean") or name.endswith(".beta"):
                params.entries[name] = rng.normal(0.0, 0.2, arr.shape)
            elif name.endswith(".run_var") or name.endswith(".gamma"):
                params.entries[name] = rng.uniform(0.5, 1.5, arr.shape)
        members.append(params)
    return members


def tally(member_preds):
    """Brute-force vote count: (histogram, full fraction, majority sizes, majority labels)."""
    n, total = len(member_preds), len(member_preds[0])
    sizes, labels = [], []
    for i in range(total):
        votes = Counter(int(member_preds[j][i]) for j in range(n))
        top = max(votes.values())
        sizes.append(top)
        labels.append(min(label for label, count in votes.items() if count == top))
    histogram = [0] * (n + 1)
    for size in sizes:
        histogram[size] += 1
    return histogram, sizes.count(n) / total, sizes, labels


def brute_force_rank(strategy, probs, ids):
    """All ids, most informative first: bt by smallest top-two margin, me by
    largest entropy; ties go to the smaller id."""
    keyed = []
    for row, instance_id in zip(probs, ids):
        values = sorted(float(v) for v in row)
        if strategy == "bt":
            score = values[-1] - values[-2]
        else:
            score = -sum(-v * math.log(v) for v in row if v > 0.0)
        keyed.append((score, int(instance_id)))
    return [instance_id for _, instance_id in sorted(keyed)]


def check_committee(graph, members, patches, predict, select, agreement, matrix_from_values,
                    oracle_members=None, chunk=24):
    """Compare predict/agreement/select with the references; raise CheckError on a mismatch.

    `oracle_members` defaults to `members`; the self-tests pass a perturbed copy.
    """
    oracle_members = members if oracle_members is None else oracle_members
    reference = [reference_forward(graph, m.entries, patches) for m in oracle_members]
    mean_ref = sum(reference) / len(reference)
    mean_probs, member_preds = predict(graph, tuple(members), patches, chunk=chunk)

    worst = float(np.max(np.abs(mean_probs - mean_ref)))
    if not worst <= PROB_ATOL:
        raise CheckError(f"committee probabilities differ from the reference by {worst:.3e}")
    for j, probs in enumerate(reference):
        top_two = np.sort(probs, axis=1)[:, -2:]
        decided = top_two[:, 1] - top_two[:, 0] > ARGMAX_GAP
        expected = probs.argmax(axis=1)
        wrong = np.nonzero(decided & (np.asarray(member_preds[j]) != expected))[0]
        if len(wrong):
            raise CheckError(f"member {j} argmax differs from the reference at row {wrong[0]}")

    histogram, full, sizes, labels = tally(member_preds)
    got = agreement(member_preds)
    if (list(got.counts) != histogram or got.full_agreement_fraction != full
            or list(got.majority_sizes) != sizes or list(got.majority_labels) != labels):
        raise CheckError("agreement histogram differs from the brute-force vote tally")

    # Duplicated rows give exact score ties, so the smaller-id tie-break is exercised.
    rng = np.random.default_rng(len(patches))
    dup = rng.choice(len(mean_ref), size=max(2, len(mean_ref) // 4), replace=False)
    probs = np.concatenate([mean_ref, mean_ref[dup]])
    ids = rng.permutation(10 * len(probs))[: len(probs)]
    for strategy in ("bt", "me"):
        expected = brute_force_rank(strategy, probs, ids)
        chosen = [int(i) for i in select(strategy, matrix_from_values(probs, ids), len(ids)).chosen_ids]
        if chosen != expected:
            raise CheckError(f"select({strategy!r}) ranking differs from the brute-force ranking")
