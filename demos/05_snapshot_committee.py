#!/usr/bin/env python3
"""Near-convergence snapshots disagree enough to form a useful committee.

Trains one network, keeps a snapshot every two epochs of a fine-tuning phase,
then compares per-snapshot test accuracy with the committee ensemble and
shows how often the snapshots actually predict the same label.
"""

import dataclasses

import numpy as np

from aedl import (
    SyntheticSpec,
    agreement_histogram,
    augment_mirror,
    build_wcrn,
    generate_synthetic,
    init_adam,
    init_params,
    normalize_channels,
    overall_accuracy,
    predict_probabilities,
    seed_split,
    train_step,
)
from aedl.networks import trainable_names

# Three mutually close classes: most of the feature space is contested, so
# the snapshots have plenty of room to disagree.
spec = SyntheticSpec(
    class_count=3, patch_size=5, channels=6, instances_per_class=700,
    covariance_scale=1.0, speckle_intensity=0.5,
    class_means=((0.0,) * 6, (0.45, 0, 0, 0, 0, 0), (0, 0.45, 0, 0, 0, 0)),
    seed=5,
)
ds = generate_synthetic(spec)
ds = seed_split(ds, per_class=5, candidate_size=800, test_size=1000, seed=1)
ds, _ = normalize_channels(ds)

graph = build_wcrn(6, 3)
rng = np.random.default_rng(2)
params = init_params(graph, rng)
# A brisk learning rate keeps the optimizer hopping between nearby minima,
# which is exactly the disagreement the committee feeds on.
adam = init_adam(
    {n: params.entries[n] for n in trainable_names(graph)}, learning_rate=1e-2
)

x, y = augment_mirror(ds.patches[ds.split.labeled], ds.labels[ds.split.labeled])
snapshots = []
for epoch in range(1, 27):
    order = rng.permutation(len(x))
    for start in range(0, len(order), 32):
        batch = order[start : start + 32]
        params, adam, loss = train_step(graph, params, x[batch], y[batch], adam, rng)
    if epoch >= 10 and epoch % 2 == 0:  # capture while still settling
        snapshots.append(dataclasses.replace(params, epoch_tag=epoch))

test_x = ds.patches[ds.split.test]
test_y = ds.labels[ds.split.test]

print(f"captured {len(snapshots)} snapshots (epochs "
      f"{[s.epoch_tag for s in snapshots]})")
combined, member_preds = predict_probabilities(graph, snapshots, test_x)
for snap, preds in zip(snapshots, member_preds):
    print(f"  epoch {snap.epoch_tag:>2} snapshot OA: "
          f"{overall_accuracy(preds, test_y):.4f}")
ensemble_oa = overall_accuracy(combined.argmax(axis=1), test_y)
print(f"committee ensemble OA: {ensemble_oa:.4f}")

hist = agreement_histogram(member_preds)
n = hist.member_count
print("\nhow many snapshots back the majority label?")
for m in range(1, n + 1):
    share = hist.counts[m] / len(test_y)
    print(f"  {m}/{n}: {'#' * int(round(40 * share)):<40} {share:.1%}")
print(f"all {n} snapshots agree on only "
      f"{hist.full_agreement_fraction:.1%} of the test set")
