"""Analytic backward passes against the central finite-difference oracle.

Every layer kind is checked on many random small shapes, for inputs and for
parameters, in double precision.
"""

import numpy as np
import pytest

from aedl import networks, ops
from aedl.networks import (
    LayerSpec,
    NetworkGraph,
    ParameterSet,
    build_dccnn,
    build_hresnet,
    build_wcrn,
    init_params,
    trainable_names,
)

from gradcheck import assert_grad_close, numerical_grad, spaced_values

N_SHAPES = 20


def _shapes(seed):
    """Deterministic stream of random small spatial geometries."""
    rng = np.random.default_rng(seed)
    for _ in range(N_SHAPES):
        yield rng, rng.integers(2, 6), rng.integers(2, 6), rng.integers(1, 4)


class TestConvGradients:
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_random_shapes(self, padding):
        rng = np.random.default_rng(100)
        for i in range(N_SHAPES):
            h, w = rng.integers(2, 7, size=2)
            p = int(rng.integers(1, h + 1)) if padding == "valid" else int(rng.integers(1, 4))
            q = int(rng.integers(1, w + 1)) if padding == "valid" else int(rng.integers(1, 4))
            m, k = rng.integers(1, 4, size=2)
            x = rng.standard_normal((1, h, w, m))
            weights = rng.standard_normal((p, q, m, k))
            bias = rng.standard_normal(k)
            proj = rng.standard_normal(
                ops.conv2d_forward(x, weights, bias, padding).shape
            )

            def loss(x=x, weights=weights, bias=bias):
                return float(
                    (ops.conv2d_forward(x, weights, bias, padding) * proj).sum()
                )

            grads = ops.conv2d_backward(x, weights, proj, padding)
            assert_grad_close(
                grads.input_grad,
                numerical_grad(lambda v: loss(x=v), x),
                f"conv input #{i} {padding}",
            )
            assert_grad_close(
                grads.parameter_grads["weights"],
                numerical_grad(lambda v: loss(weights=v), weights),
                f"conv weights #{i} {padding}",
            )
            assert_grad_close(
                grads.parameter_grads["bias"],
                numerical_grad(lambda v: loss(bias=v), bias),
                f"conv bias #{i} {padding}",
            )
            alone = ops.conv2d_param_grads(x, weights, proj, padding)
            assert sorted(alone) == ["bias", "weights"]
            for part, value in alone.items():
                np.testing.assert_array_equal(value, grads.parameter_grads[part])

    def test_spec_example_shape(self):
        # 5x5x2 input with a 3x3x2x4 bank, the documented reference case.
        rng = np.random.default_rng(101)
        x = rng.standard_normal((1, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 4))
        proj = rng.standard_normal((1, 3, 3, 4))
        grads = ops.conv2d_backward(x, w, proj)
        loss = lambda v: float((ops.conv2d_forward(v, w, np.zeros(4)) * proj).sum())
        assert_grad_close(grads.input_grad, numerical_grad(loss, x), "conv 5x5x2")


class TestBatchNormGradients:
    def test_random_shapes(self):
        for i, (rng, h, w, c) in enumerate(_shapes(102)):
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, h, w, c)) * 2.0 + 0.5
            gamma = rng.standard_normal(c) + 1.5
            beta = rng.standard_normal(c)
            run_mean, run_var = np.zeros(c), np.ones(c)
            proj = rng.standard_normal(x.shape)

            def loss(x=x, gamma=gamma, beta=beta):
                out, _, _ = ops.batchnorm_forward(x, gamma, beta, run_mean, run_var, "train")
                return float((out * proj).sum())

            _, _, cache = ops.batchnorm_forward(x, gamma, beta, run_mean, run_var, "train")
            grads = ops.batchnorm_backward(gamma, cache, proj)
            assert_grad_close(
                grads.input_grad, numerical_grad(lambda v: loss(x=v), x), f"bn input #{i}"
            )
            assert_grad_close(
                grads.parameter_grads["gamma"],
                numerical_grad(lambda v: loss(gamma=v), gamma),
                f"bn gamma #{i}",
            )
            assert_grad_close(
                grads.parameter_grads["beta"],
                numerical_grad(lambda v: loss(beta=v), beta),
                f"bn beta #{i}",
            )


class TestActivationPoolGradients:
    def test_relu(self):
        for i, (rng, h, w, c) in enumerate(_shapes(103)):
            x = spaced_values(rng, (h, w, c))
            proj = rng.standard_normal(x.shape)
            analytic = ops.relu_backward(x, proj)
            numeric = numerical_grad(lambda v: float((ops.relu(v) * proj).sum()), x)
            assert_grad_close(analytic, numeric, f"relu #{i}")

    def test_maxpool(self):
        rng = np.random.default_rng(104)
        for i in range(N_SHAPES):
            wh, ww = rng.integers(1, 4, size=2)
            ho, wo = rng.integers(1, 4, size=2)
            c = int(rng.integers(1, 4))
            x = spaced_values(rng, (1, int(ho * wh), int(wo * ww), c))
            proj = rng.standard_normal((1, int(ho), int(wo), c))
            analytic = ops.maxpool2d_backward(x, (int(wh), int(ww)), proj)
            numeric = numerical_grad(
                lambda v: float((ops.maxpool2d(v, (int(wh), int(ww))) * proj).sum()), x
            )
            assert_grad_close(analytic, numeric, f"maxpool #{i}")

    def test_global_avg_pool(self):
        for i, (rng, h, w, c) in enumerate(_shapes(105)):
            n = int(rng.integers(1, 4))
            x = rng.standard_normal((n, h, w, c))
            proj = rng.standard_normal((n, c))
            analytic = ops.global_avg_pool_backward(x, proj)
            numeric = numerical_grad(
                lambda v: float((ops.global_avg_pool(v) * proj).sum()), x
            )
            assert_grad_close(analytic, numeric, f"gap #{i}")


class TestAffineGradients:
    def test_dense(self):
        rng = np.random.default_rng(106)
        for i in range(N_SHAPES):
            n, d, k = rng.integers(1, 6, size=3)
            x = rng.standard_normal((n, d))
            w = rng.standard_normal((d, k))
            b = rng.standard_normal(k)
            proj = rng.standard_normal((n, k))

            def loss(x=x, w=w, b=b):
                return float((ops.dense(x, w, b) * proj).sum())

            grads = ops.dense_backward(x, w, proj)
            assert_grad_close(grads.input_grad, numerical_grad(lambda v: loss(x=v), x), f"dense x #{i}")
            assert_grad_close(
                grads.parameter_grads["weights"],
                numerical_grad(lambda v: loss(w=v), w),
                f"dense w #{i}",
            )
            assert_grad_close(
                grads.parameter_grads["bias"],
                numerical_grad(lambda v: loss(b=v), b),
                f"dense b #{i}",
            )


class TestRoutingGradients:
    def test_concat_split_is_exact(self):
        rng = np.random.default_rng(107)
        for i in range(N_SHAPES):
            sizes = rng.integers(1, 5, size=int(rng.integers(2, 4)))
            parts = [rng.standard_normal((2, 2, int(s))) for s in sizes]
            g = rng.standard_normal((2, 2, int(sizes.sum())))
            routed = ops.concatenate_backward(g, [int(s) for s in sizes])
            # Routed gradients reassemble to exactly the incoming gradient.
            np.testing.assert_array_equal(np.concatenate(routed, axis=-1), g)
            for j, (part, x) in enumerate(zip(routed, parts)):
                numeric = numerical_grad(
                    lambda v, j=j: float(
                        (ops.concatenate([*parts[:j], v, *parts[j + 1 :]]) * g).sum()
                    ),
                    x,
                )
                assert_grad_close(part, numeric, f"concat part {j} #{i}")

    def test_residual_add_routes_identity(self):
        rng = np.random.default_rng(108)
        for i in range(N_SHAPES):
            a = rng.standard_normal((3, 2, 2))
            b = rng.standard_normal((3, 2, 2))
            g = rng.standard_normal((3, 2, 2))
            numeric_a = numerical_grad(lambda v: float((ops.residual_add(v, b) * g).sum()), a)
            numeric_b = numerical_grad(lambda v: float((ops.residual_add(a, v) * g).sum()), b)
            assert_grad_close(g, numeric_a, f"add lhs #{i}")
            assert_grad_close(g, numeric_b, f"add rhs #{i}")


class TestDropoutGradients:
    def test_fixed_mask_is_linear(self):
        rng = np.random.default_rng(109)
        for i in range(N_SHAPES):
            x = rng.standard_normal((3, 3, 2))
            mask = rng.random(x.shape) >= 0.5
            g = rng.standard_normal(x.shape)
            analytic = ops.dropout_backward(mask, 0.5, g)
            numeric = numerical_grad(
                lambda v: float((v * mask / 0.5 * g).sum()), x
            )
            assert_grad_close(analytic, numeric, f"dropout #{i}")


class TestLossGradients:
    def test_mean_cross_entropy_through_softmax(self):
        rng = np.random.default_rng(110)
        for i in range(N_SHAPES):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            logits = rng.standard_normal((n, k))
            labels = rng.integers(0, k, size=n)

            def loss(z):
                return float(np.mean(ops.cross_entropy(ops.softmax(z), labels)))

            analytic = ops.mean_loss_logit_grad(ops.softmax(logits), labels)
            assert_grad_close(analytic, numerical_grad(loss, logits), f"loss #{i}")


def _toy_graph():
    """Every layer kind on the loss path, with fan-out at the input and at cat."""
    layers = (
        LayerSpec("c1", "conv", ("input",), "1", out_channels=3, kernel=(3, 3)),
        LayerSpec("c2", "conv", ("input",), "1", out_channels=2, kernel=(3, 3), padding="same"),
        LayerSpec("p2", "maxpool", ("c2",), "2", window=(2, 2)),
        LayerSpec("cat", "concat", ("c1", "p2"), "3"),
        LayerSpec("bn", "bn", ("cat",), "4"),
        LayerSpec("r", "relu", ("bn",), "4"),
        LayerSpec("c3", "conv", ("r",), "4", out_channels=5, kernel=(1, 1)),
        LayerSpec("add", "add", ("cat", "c3"), "5"),
        LayerSpec("drop", "dropout", ("add",), "5", rate=0.5),
        LayerSpec("gap", "gap", ("drop",), "6"),
        LayerSpec("fc", "dense", ("gap",), "7", out_channels=3),
        LayerSpec("prob", "softmax", ("fc",), "7"),
    )
    return NetworkGraph("toy", layers, (4, 4, 2), 3)


def _train_loss(graph, params, x, labels, seed):
    """Train-mode mean cross entropy; the dropout rng is reseeded every call."""
    acts, _, _ = networks._forward(graph, params, x, "train", np.random.default_rng(seed))
    return float(np.mean(ops.cross_entropy(acts[graph.layers[-1].name], labels)))


def _analytic_grads(graph, params, x, labels, seed):
    acts, caches, _ = networks._forward(graph, params, x, "train", np.random.default_rng(seed))
    return networks._backward(graph, params, acts, caches, labels)


def _with_entry(params, name, value):
    return ParameterSet({**params.entries, name: value})


class TestWholeGraphGradients:
    def test_toy_graph_every_entry_and_input(self):
        graph = _toy_graph()
        assert {layer.kind for layer in graph.layers} >= {
            "conv", "maxpool", "concat", "bn", "relu", "add", "dropout", "gap", "dense", "softmax"
        }
        rng = np.random.default_rng(111)
        params = init_params(graph, rng)
        x = rng.standard_normal((6, 4, 4, 2))
        labels = rng.integers(0, 3, size=6)
        param_grads = _analytic_grads(graph, params, x, labels, seed=7)
        # The walk returns the parameter gradients alone: c1 and c2 are fed by the
        # patches, so no layer computes the input gradient.
        assert sorted(param_grads) == sorted(trainable_names(graph))
        assert graph.input_grad_layers.isdisjoint({"c1", "c2"})
        for name in trainable_names(graph):
            numeric = numerical_grad(
                lambda v: _train_loss(graph, _with_entry(params, name, v), x, labels, 7),
                params.entries[name].copy(),
            )
            assert_grad_close(param_grads[name], numeric, f"toy {name}")

    @pytest.mark.parametrize("build,size", [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)])
    def test_builders_at_sampled_entries(self, build, size):
        graph = build(2, 3)
        rng = np.random.default_rng(112)
        params = init_params(graph, rng)
        x = rng.standard_normal((6, size, size, 2))
        labels = rng.integers(0, 3, size=6)
        param_grads = _analytic_grads(graph, params, x, labels, seed=8)
        for name in trainable_names(graph):
            shape = params.entries[name].shape
            flat = params.entries[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)

            def loss_at(i, v):
                entry = flat.copy()
                entry[i] = v[0]
                return _train_loss(graph, _with_entry(params, name, entry.reshape(shape)), x,
                                   labels, 8)

            numeric = [numerical_grad(lambda v: loss_at(i, v), flat[i : i + 1].copy())[0]
                       for i in picks]
            assert_grad_close(
                param_grads[name].reshape(-1)[picks], numeric, f"{graph.name} {name}"
            )
