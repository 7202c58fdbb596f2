"""Forward semantics of the layer primitives against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aedl import ops
from aedl.ops import ShapeError


def conv_reference(x, w, b, padding="valid"):
    """Direct summation over every filter tap; independent of the library path."""
    p_ext, q_ext, m_in, k_out = w.shape
    if padding == "same":
        ph, pw = (p_ext - 1) // 2, (q_ext - 1) // 2
        xp = np.zeros((x.shape[0] + p_ext - 1, x.shape[1] + q_ext - 1, m_in))
        xp[ph : ph + x.shape[0], pw : pw + x.shape[1]] = x
    else:
        xp = x
    h_out = xp.shape[0] - p_ext + 1
    w_out = xp.shape[1] - q_ext + 1
    out = np.zeros((h_out, w_out, k_out))
    for i in range(h_out):
        for j in range(w_out):
            for k in range(k_out):
                acc = b[k]
                for p in range(p_ext):
                    for q in range(q_ext):
                        for m in range(m_in):
                            acc += w[p, q, m, k] * xp[i + p, j + q, m]
                out[i, j, k] = acc
    return out


@pytest.mark.parametrize(
    "call",
    [
        lambda x: ops.conv2d_forward(x, np.zeros((1, 1, 2, 3)), np.zeros(3)),
        lambda x: ops.conv2d_backward(x, np.zeros((1, 1, 2, 3)), np.zeros((1, 4, 4, 3))),
        lambda x: ops.maxpool2d(x, (2, 2)),
        lambda x: ops.maxpool2d_backward(x, (2, 2), np.zeros((1, 2, 2, 2))),
        lambda x: ops.global_avg_pool(x),
        lambda x: ops.global_avg_pool_backward(x, np.zeros((1, 2))),
    ],
    ids=["conv", "conv_backward", "maxpool", "maxpool_backward", "gap", "gap_backward"],
)
def test_spatial_ops_reject_unbatched_input(call):
    with pytest.raises(ShapeError, match="ndim=3"):
        call(np.zeros((4, 4, 2)))


class TestConv2d:
    def test_single_multiply_add(self):
        out = ops.conv2d_forward(
            np.full((1, 1, 1, 1), 3.0), np.full((1, 1, 1, 1), 2.0), np.array([1.0])
        )
        np.testing.assert_array_equal(out, np.full((1, 1, 1, 1), 7.0))

    def test_all_ones_three_by_three(self):
        out = ops.conv2d_forward(
            np.ones((1, 3, 3, 1)), np.ones((3, 3, 1, 1)), np.zeros(1)
        )
        assert out.shape == (1, 1, 1, 1)
        np.testing.assert_allclose(out, [[[[9.0]]]])

    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 5, 3))
        b = np.array([2.5, -1.0])
        out = ops.conv2d_forward(x, np.zeros((3, 3, 3, 2)), b)
        np.testing.assert_array_equal(out, np.broadcast_to(b, (1, 2, 3, 2)))

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_matches_reference(self, padding):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h, w = rng.integers(3, 7, size=2)
            p, q = rng.integers(1, 4, size=2)
            m, k = rng.integers(1, 4, size=2)
            x = rng.standard_normal((h, w, m))
            weights = rng.standard_normal((p, q, m, k))
            bias = rng.standard_normal(k)
            got = ops.conv2d_forward(x[None], weights, bias, padding)[0]
            np.testing.assert_allclose(
                got, conv_reference(x, weights, bias, padding), atol=1e-12
            )

    def test_identity_kernel_passthrough(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 5, 3))
        ident = np.eye(3).reshape(1, 1, 3, 3)
        np.testing.assert_array_equal(
            ops.conv2d_forward(x, ident, np.zeros(3)), x
        )

    def test_batched_equals_stacked_single(self):
        # Each row run alone, as a batch of one, matches its row of the batched result.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 6))
        b = rng.standard_normal(6)
        batched = ops.conv2d_forward(x, w, b)
        for i in range(4):
            np.testing.assert_allclose(
                batched[i], ops.conv2d_forward(x[i : i + 1], w, b)[0], atol=1e-12
            )

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ShapeError, match="M=3"):
            ops.conv2d_forward(
                np.zeros((1, 4, 4, 3)), np.zeros((2, 2, 4, 5)), np.zeros(5)
            )

    def test_kernel_too_large_for_valid(self):
        with pytest.raises(ShapeError, match="exceeds"):
            ops.conv2d_forward(np.zeros((1, 2, 2, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 6, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        a = ops.conv2d_forward(x, w, b)
        np.testing.assert_array_equal(a, ops.conv2d_forward(x, w, b))


class TestConv2dBackward:
    def test_scalar_chain_rule(self):
        grads = ops.conv2d_backward(
            np.full((1, 1, 1, 1), 3.0),
            np.full((1, 1, 1, 1), 2.0),
            np.full((1, 1, 1, 1), 1.0),
        )
        np.testing.assert_array_equal(grads.parameter_grads["weights"], [[[[3.0]]]])
        np.testing.assert_array_equal(grads.parameter_grads["bias"], [1.0])
        np.testing.assert_array_equal(grads.input_grad, [[[[2.0]]]])

    def test_zero_output_grad(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((2, 2, 2, 3))
        grads = ops.conv2d_backward(x, w, np.zeros((1, 3, 3, 3)))
        assert not grads.parameter_grads["weights"].any()
        assert not grads.parameter_grads["bias"].any()
        assert not grads.input_grad.any()

    def test_output_grad_shape_rejected(self):
        with pytest.raises(ShapeError, match="output_grad"):
            ops.conv2d_backward(
                np.zeros((1, 4, 4, 2)), np.zeros((2, 2, 2, 3)), np.zeros((1, 4, 4, 3))
            )


def _initial_stats(channels):
    return np.zeros(channels), np.ones(channels)


class TestBatchNorm:
    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 3, 3, 4))
        x -= x.mean(axis=(0, 1, 2))
        x /= x.std(axis=(0, 1, 2))
        out, _, _ = ops.batchnorm_forward(x, np.ones(4), np.zeros(4), *_initial_stats(4), "train")
        np.testing.assert_allclose(out, x / np.sqrt(1 + ops.BN_EPS), atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2, 2, 3))
        beta = np.array([1.0, -2.0, 0.5])
        out, _, _ = ops.batchnorm_forward(x, np.zeros(3), beta, *_initial_stats(3), "train")
        np.testing.assert_array_equal(out, np.broadcast_to(beta, out.shape))

    def test_train_output_statistics(self):
        rng = np.random.default_rng(7)
        x = 3.0 * rng.standard_normal((128, 2, 2, 5)) + 1.5
        out, _, _ = ops.batchnorm_forward(x, np.ones(5), np.zeros(5), *_initial_stats(5), "train")
        assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-6
        var = out.var(axis=(0, 1, 2))
        assert var.min() > 1.0 - 1e-3 and var.max() < 1.0 + 1e-3

    def test_single_instance_zero_variance_is_finite(self):
        x = np.full((1, 2, 2, 3), 4.0)
        out, _, _ = ops.batchnorm_forward(x, np.ones(3), np.zeros(3), *_initial_stats(3), "train")
        assert np.isfinite(out).all()

    def test_running_stats_ema(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((32, 2, 2, 2)) + 5.0
        assert ops.BN_MOMENTUM == 0.9
        _, (mean, var), _ = ops.batchnorm_forward(
            x, np.ones(2), np.zeros(2), *_initial_stats(2), "train"
        )
        np.testing.assert_allclose(mean, 0.1 * x.mean(axis=(0, 1, 2)))
        np.testing.assert_allclose(var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1, 2)))

    def test_infer_uses_running_stats(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 2, 2, 2))
        run_mean, run_var = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        gamma, beta = np.array([2.0, 1.0]), np.array([0.0, 3.0])
        out, (mean, var), cache = ops.batchnorm_forward(x, gamma, beta, run_mean, run_var, "infer")
        expected = gamma * (x - run_mean) / np.sqrt(run_var + 1e-5) + beta
        np.testing.assert_allclose(out, expected)
        assert mean is run_mean and var is run_var and cache is None

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel count 4"):
            ops.batchnorm_forward(
                np.zeros((2, 2, 2, 4)), np.ones(3), np.zeros(3),
                *_initial_stats(3), "train",
            )


class TestSimpleOps:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_maxpool_table_branch_shape(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 5, 5, 64))
        out = ops.maxpool2d(x, (5, 5))
        assert out.shape == (1, 1, 1, 64)
        np.testing.assert_array_equal(out[0, 0, 0], x[0].max(axis=(0, 1)))

    def test_maxpool_indivisible_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            ops.maxpool2d(np.zeros((1, 5, 5, 2)), (2, 2))

    def test_residual_add_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3, 2))
        np.testing.assert_array_equal(ops.residual_add(x, np.zeros_like(x)), x)

    def test_residual_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match="equal shapes"):
            ops.residual_add(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_global_avg_pool_constant_channels(self):
        x = np.stack([np.full((7, 7), v) for v in (1.0, -2.0, 0.5)], axis=-1)[None]
        np.testing.assert_allclose(ops.global_avg_pool(x), [[1.0, -2.0, 0.5]])

    def test_concatenate_joins_channels(self):
        a = np.ones((1, 1, 2))
        b = np.zeros((1, 1, 3))
        assert ops.concatenate([a, b]).shape == (1, 1, 5)

    def test_concatenate_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="axis 0"):
            ops.concatenate([np.zeros((2, 1, 2)), np.zeros((3, 1, 2))])

    def test_concatenate_backward_routes_exactly(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((1, 1, 5))
        parts = ops.concatenate_backward(g, [2, 3])
        np.testing.assert_array_equal(np.concatenate(parts, axis=-1), g)

    def test_dense_affine(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ops.dense(x, w, np.array([0.5, -0.5])), [[1.5, 1.5]])

    def test_dropout_train_zeroes_about_half(self):
        rng = np.random.default_rng(13)
        x = np.ones((100, 100))
        out, mask = ops.dropout_forward(x, 0.5, rng)
        zeroed = int((out == 0).sum())
        # Binomial(10^4, 0.5): 3 sigma is 150.
        assert abs(zeroed - 5000) < 150
        np.testing.assert_array_equal(out, np.where(mask, 2.0, 0.0))


class TestSoftmaxCrossEntropy:
    def test_symmetry(self):
        np.testing.assert_allclose(ops.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_large_logits_stable(self):
        out = ops.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_cross_entropy_half(self):
        value = ops.cross_entropy(np.array([[0.5, 0.5]]), np.array([0]))
        assert value.shape == (1,) and value[0] == pytest.approx(math.log(2))

    def test_cross_entropy_floor(self):
        value = ops.cross_entropy(np.array([[0.0, 1.0]]), np.array([0]))[0]
        assert np.isfinite(value) and value == pytest.approx(-math.log(1e-12))

    def test_batched_cross_entropy(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        got = ops.cross_entropy(probs, np.array([0, 1]))
        np.testing.assert_allclose(got, [math.log(2), -math.log(0.1)])

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50), min_size=2, max_size=10
        )
    )
    def test_rows_stochastic(self, logits):
        out = ops.softmax(np.array([logits]))
        assert out.sum() == pytest.approx(1.0, abs=1e-6)
        assert out.min() >= 0.0 and out.max() <= 1.0
