#!/usr/bin/env python3
"""Tour of the layer primitives and a finite-difference gradient spot check.

Every op is a pure function on float64 arrays with an explicit backward pass,
which is what makes the gradient checks below possible without any framework.
Ops take batches only: spatial tensors are (N, H, W, C), logits are (N, K).
"""

import numpy as np

from aedl import ops

rng = np.random.default_rng(0)

print("== convolution ==")
x = rng.standard_normal((1, 5, 5, 3))  # a batch of one patch
w = rng.standard_normal((3, 3, 3, 8))
b = np.zeros(8)
y = ops.conv2d_forward(x, w, b, padding="valid")
print(f"valid 3x3 conv: {x.shape} -> {y.shape}")
y_same = ops.conv2d_forward(x, w, b, padding="same")
print(f"same  3x3 conv: {x.shape} -> {y_same.shape}")

ident = np.eye(3).reshape(1, 1, 3, 3)
print("identity 1x1 kernel passes input through:",
      np.array_equal(ops.conv2d_forward(x, ident, np.zeros(3)), x))

print("\n== pooling and merges ==")
pooled = ops.maxpool2d(x, (5, 5))
print(f"5x5 max pool: {x.shape} -> {pooled.shape}")
print(f"global average pool: {x.shape} -> {ops.global_avg_pool(x).shape}")
cat = ops.concatenate([pooled, pooled])
print(f"concatenate two {pooled.shape} -> {cat.shape}")
print("residual add with zeros is identity:",
      np.array_equal(ops.residual_add(x, np.zeros_like(x)), x))

print("\n== classifier head ==")
logits = np.array([[2.0, -1.0, 0.5]])
probs = ops.softmax(logits)
print(f"softmax({logits[0]}) = {np.round(probs[0], 4)}  (sum = {probs.sum():.6f})")
print(f"cross entropy against class 0: {ops.cross_entropy(probs, np.array([0]))[0]:.4f}")

print("\n== gradient spot check (central finite differences) ==")
proj = rng.standard_normal(y.shape)  # random projection makes the loss scalar
analytic = ops.conv2d_backward(x, w, proj).input_grad

step = 1e-5
numeric = np.zeros_like(x)
flat, nflat = x.reshape(-1), numeric.reshape(-1)
for i in range(flat.size):
    orig = flat[i]
    flat[i] = orig + step
    hi = float((ops.conv2d_forward(x, w, b) * proj).sum())
    flat[i] = orig - step
    lo = float((ops.conv2d_forward(x, w, b) * proj).sum())
    flat[i] = orig
    nflat[i] = (hi - lo) / (2 * step)

err = np.abs(analytic - numeric).max() / np.abs(numeric).max()
print(f"max relative error vs finite differences: {err:.2e}")
