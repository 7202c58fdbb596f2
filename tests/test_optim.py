"""Adam update semantics."""

import numpy as np
import pytest

from aedl.ops import ShapeError
from aedl.optim import BETA1, BETA2, EPSILON, adam_step, init_adam


def test_zero_gradient_leaves_params_and_moments():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = init_adam(params)
    new_params, new_state = adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(new_params["w"], params["w"])
    assert not new_state.first_moment["w"].any()
    assert not new_state.second_moment["w"].any()
    assert new_state.step_count == 1


def test_first_step_moves_by_learning_rate():
    # Bias correction makes the first update -lr * g / (|g| + eps) ~ -lr * sign(g).
    params = {"w": np.array([0.0, 0.0])}
    g = np.array([2.0, -0.5])
    state = init_adam(params, learning_rate=1e-3)
    new_params, _ = adam_step(params, {"w": g}, state)
    np.testing.assert_allclose(new_params["w"], -1e-3 * np.sign(g), rtol=1e-6)


def test_constant_gradient_moves_monotonically():
    params = {"w": np.array([1.0])}
    g = {"w": np.array([0.7])}
    state = init_adam(params)
    positions = [params["w"][0]]
    for _ in range(2):
        params, state = adam_step(params, g, state)
        positions.append(params["w"][0])
    assert positions[0] > positions[1] > positions[2]


def test_recurrence_matches_direct_evaluation():
    # Two steps replayed against a hand-rolled evaluation of the recurrences.
    lr, b1, b2, eps = 1e-2, BETA1, BETA2, EPSILON
    p = np.array([0.5])
    grads = [np.array([1.2]), np.array([-0.3])]
    state = init_adam({"w": p}, learning_rate=lr)
    params = {"w": p}
    m = np.zeros(1)
    v = np.zeros(1)
    expected = p.copy()
    for t, g in enumerate(grads, start=1):
        params, state = adam_step(params, {"w": g}, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        expected = expected - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(params["w"], expected, rtol=1e-12)
    assert state.step_count == 2


def test_shape_mismatch_rejected():
    params = {"w": np.zeros((2, 2))}
    with pytest.raises(ShapeError, match="'w'"):
        adam_step(params, {"w": np.zeros(3)}, init_adam(params))


def test_missing_gradient_rejected():
    params = {"w": np.zeros(2)}
    with pytest.raises(ShapeError):
        adam_step(params, {}, init_adam(params))
