"""Layer forward/backward primitives on float64 numpy arrays.

Everything here is a pure function: outputs depend only on explicit inputs,
so the ops are safe to call from multiple threads on disjoint data. Every
tensor carries a leading batch axis: spatial tensors are channels-last
(N, H, W, C), feature and probability tensors are (N, D). Callers convert
their inputs to float64 once; the ops do not convert again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operands do not conform; the message names the offending dimension."""


@dataclass
class LayerGradients:
    """Result of one backward pass: named parameter grads plus the input grad."""

    parameter_grads: dict[str, np.ndarray]
    input_grad: np.ndarray


def _check_batch(x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"expected an (N, H, W, C) spatial tensor, got ndim={x.ndim}")


def _pad_amounts(kernel: int, size: int, padding: str) -> tuple[int, int]:
    if padding == "valid":
        if kernel > size:
            raise ShapeError(
                f"kernel extent {kernel} exceeds spatial extent {size} under valid padding"
            )
        return 0, 0
    if padding == "same":
        before = (kernel - 1) // 2
        return before, kernel - 1 - before
    raise ShapeError(f"unknown padding {padding!r}, expected 'valid' or 'same'")


def _pad_input(x: np.ndarray, kp: int, kq: int, padding: str) -> np.ndarray:
    ph = _pad_amounts(kp, x.shape[1], padding)
    pw = _pad_amounts(kq, x.shape[2], padding)
    if ph == (0, 0) and pw == (0, 0):
        return x
    return np.pad(x, ((0, 0), ph, pw, (0, 0)))


def _check_conv_shapes(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None) -> None:
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be (P, Q, M, K), got ndim={weights.ndim}")
    if x.shape[3] != weights.shape[2]:
        raise ShapeError(
            f"input channel count M={x.shape[3]} does not match weight M={weights.shape[2]}"
        )
    if bias is not None and bias.shape != (weights.shape[3],):
        raise ShapeError(
            f"bias shape {bias.shape} does not match output channel count K={weights.shape[3]}"
        )


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    padding: str = "valid",
) -> np.ndarray:
    """Cross-correlate x with a (P, Q, M, K) filter bank and add the per-map bias.

    Each output element is ``bias[k] + sum_{m,p,q} weights[p,q,m,k] * x[i+p, j+q, m]``.
    Valid padding shrinks the output to (H-P+1, W-Q+1); same padding zero-fills
    so the spatial extent is preserved.
    """
    _check_batch(x)
    _check_conv_shapes(x, weights, bias)
    p_ext, q_ext, _, k_out = weights.shape
    xp = _pad_input(x, p_ext, q_ext, padding)
    h_out = xp.shape[1] - p_ext + 1
    w_out = xp.shape[2] - q_ext + 1
    # Small kernels: a shifted matmul per tap beats im2col on these patch sizes.
    # The first tap's product is the output buffer; IEEE addition commutes, so
    # adding the bias to it gives the same bits as adding it to the bias.
    out = np.matmul(xp[:, :h_out, :w_out, :], weights[0, 0])
    out += bias
    for p in range(p_ext):
        for q in range(q_ext):
            if p or q:
                out += xp[:, p : p + h_out, q : q + w_out, :] @ weights[p, q]
    return out


def conv2d_param_grads(
    x: np.ndarray,
    weights: np.ndarray,
    output_grad: np.ndarray,
    padding: str = "valid",
) -> dict[str, np.ndarray]:
    """Chain-rule gradients of conv2d_forward for weights and bias only.

    For a layer whose input gradient nobody reads, such as one fed by the patches.
    """
    _check_batch(x)
    _check_conv_shapes(x, weights, None)
    g = output_grad
    p_ext, q_ext, _, k_out = weights.shape
    xp = _pad_input(x, p_ext, q_ext, padding)
    h_out = xp.shape[1] - p_ext + 1
    w_out = xp.shape[2] - q_ext + 1
    if g.shape != (x.shape[0], h_out, w_out, k_out):
        raise ShapeError(
            f"output_grad shape {g.shape} does not match forward output "
            f"{(x.shape[0], h_out, w_out, k_out)}"
        )
    grad_w = np.empty_like(weights)
    for p in range(p_ext):
        for q in range(q_ext):
            window = xp[:, p : p + h_out, q : q + w_out, :]
            grad_w[p, q] = np.tensordot(window, g, axes=([0, 1, 2], [0, 1, 2]))
    return {"weights": grad_w, "bias": g.sum(axis=(0, 1, 2))}


def conv2d_backward(
    x: np.ndarray,
    weights: np.ndarray,
    output_grad: np.ndarray,
    padding: str = "valid",
) -> LayerGradients:
    """Chain-rule gradients of conv2d_forward for weights, bias, and input."""
    grads = conv2d_param_grads(x, weights, output_grad, padding)
    g = output_grad
    p_ext, q_ext = weights.shape[:2]
    h_out, w_out = g.shape[1:3]
    ph = _pad_amounts(p_ext, x.shape[1], padding)
    pw = _pad_amounts(q_ext, x.shape[2], padding)
    grad_x_pad = np.zeros((x.shape[0], x.shape[1] + sum(ph), x.shape[2] + sum(pw), x.shape[3]))
    for p in range(p_ext):
        for q in range(q_ext):
            grad_x_pad[:, p : p + h_out, q : q + w_out, :] += g @ weights[p, q].T
    grad_x = grad_x_pad[:, ph[0] : ph[0] + x.shape[1], pw[0] : pw[0] + x.shape[2], :]
    return LayerGradients(grads, grad_x)


# Batch norm's running-stat momentum, and the variance offset that keeps a
# zero-variance batch finite.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    run_mean: np.ndarray,
    run_var: np.ndarray,
    mode: str,
):
    """Normalize per channel; returns (output, (run_mean, run_var), backward cache).

    Train mode normalizes with batch statistics over every non-channel axis and
    folds them into the running mean and variance; infer mode applies the
    running stats and returns them unchanged (cache is None).
    """
    channels = x.shape[-1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError(
            f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match channel count {channels}"
        )
    if mode == "train":
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv_std
        new_stats = (
            BN_MOMENTUM * run_mean + (1.0 - BN_MOMENTUM) * mean,
            BN_MOMENTUM * run_var + (1.0 - BN_MOMENTUM) * var,
        )
        return gamma * xhat + beta, new_stats, (xhat, inv_std)
    if mode == "infer":
        # The same arithmetic as gamma * ((x - run_mean) / std) + beta, in one fresh array.
        out = x - run_mean
        out /= np.sqrt(run_var + BN_EPS)
        out *= gamma
        out += beta
        return out, (run_mean, run_var), None
    raise ValueError(f"unknown mode {mode!r}, expected 'train' or 'infer'")


def batchnorm_backward(
    gamma: np.ndarray, cache: tuple, output_grad: np.ndarray
) -> LayerGradients:
    """Backward pass through train-mode batch normalization."""
    xhat, inv_std = cache
    g = output_grad
    axes = tuple(range(g.ndim - 1))
    count = xhat.size // xhat.shape[-1]
    grad_gamma = (g * xhat).sum(axis=axes)
    grad_beta = g.sum(axis=axes)
    grad_xhat = g * gamma
    grad_x = (
        inv_std
        / count
        * (count * grad_xhat - grad_xhat.sum(axis=axes) - xhat * (grad_xhat * xhat).sum(axis=axes))
    )
    return LayerGradients({"gamma": grad_gamma, "beta": grad_beta}, grad_x)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, output_grad: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, output_grad, 0.0)


def _pool_geometry(x: np.ndarray, window: tuple[int, int]) -> tuple[int, int]:
    _check_batch(x)
    wh, ww = window
    if x.shape[1] % wh != 0:
        raise ShapeError(f"height {x.shape[1]} is not divisible by pool window {wh}")
    if x.shape[2] % ww != 0:
        raise ShapeError(f"width {x.shape[2]} is not divisible by pool window {ww}")
    return wh, ww


def maxpool2d(x: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Non-overlapping window maximum; stride equals the window extent."""
    wh, ww = _pool_geometry(x, window)
    n, h, w, c = x.shape
    return x.reshape(n, h // wh, wh, w // ww, ww, c).max(axis=(2, 4))


def maxpool2d_backward(
    x: np.ndarray, window: tuple[int, int], output_grad: np.ndarray
) -> np.ndarray:
    """Route each window's gradient to the first maximal element of that window."""
    wh, ww = _pool_geometry(x, window)
    n, h, w, c = x.shape
    ho, wo = h // wh, w // ww
    windows = x.reshape(n, ho, wh, wo, ww, c).transpose(0, 1, 3, 5, 2, 4).reshape(
        n, ho, wo, c, wh * ww
    )
    winners = windows.argmax(axis=-1)
    routed = np.zeros_like(windows)
    np.put_along_axis(routed, winners[..., None], output_grad[..., None], axis=-1)
    return (
        routed.reshape(n, ho, wo, c, wh, ww).transpose(0, 1, 4, 2, 5, 3).reshape(n, h, w, c)
    )


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel: (N, H, W, C) -> (N, C)."""
    _check_batch(x)
    return x.mean(axis=(1, 2))


def global_avg_pool_backward(x: np.ndarray, output_grad: np.ndarray) -> np.ndarray:
    _check_batch(x)
    return np.broadcast_to(
        output_grad[:, None, None, :] / (x.shape[1] * x.shape[2]), x.shape
    ).copy()


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map x @ weights + bias on (N, D)."""
    if x.shape[-1] != weights.shape[0]:
        raise ShapeError(
            f"input feature count {x.shape[-1]} does not match weight rows {weights.shape[0]}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"bias shape {bias.shape} does not match output count {weights.shape[1]}"
        )
    return x @ weights + bias


def dense_backward(x: np.ndarray, weights: np.ndarray, output_grad: np.ndarray) -> LayerGradients:
    g = output_grad
    return LayerGradients({"weights": x.T @ g, "bias": g.sum(axis=0)}, g @ weights.T)


def concatenate(parts) -> np.ndarray:
    """Join tensors along the channel (last) axis; every other axis must agree."""
    first = parts[0]
    for i, p in enumerate(parts[1:], start=1):
        if p.ndim != first.ndim:
            raise ShapeError(f"part {i} has ndim={p.ndim}, expected {first.ndim}")
        for d in range(first.ndim - 1):
            if p.shape[d] != first.shape[d]:
                raise ShapeError(
                    f"part {i} disagrees on axis {d}: {p.shape[d]} vs {first.shape[d]}"
                )
    return np.concatenate(parts, axis=-1)


def concatenate_backward(output_grad: np.ndarray, sizes):
    """Split the incoming gradient back into the concatenated parts."""
    cuts = np.cumsum(sizes)[:-1]
    return np.split(output_grad, cuts, axis=-1)


def residual_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of two equally shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} vs {b.shape}")
    return a + b


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: zero a `rate` fraction and rescale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(mask: np.ndarray, rate: float, output_grad: np.ndarray) -> np.ndarray:
    return output_grad * mask / (1.0 - rate)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over the last axis, max-subtracted for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


PROB_FLOOR = 1e-12


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log(probs[i, labels[i]]) with a floor clamp."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def mean_loss_logit_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean cross entropy wrt the softmax logits."""
    grad = probs.copy()
    grad[np.arange(probs.shape[0]), labels] -= 1.0
    return grad / probs.shape[0]
