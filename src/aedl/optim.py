"""Adam update rule over named parameter collections."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import ShapeError

# Moment decay rates and denominator floor (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the learning rate."""

    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    learning_rate: float = 1e-3


def init_adam(params: dict[str, np.ndarray], learning_rate: float = 1e-3) -> AdamState:
    """Zero-moment state matching the shapes of the given named parameters."""
    return AdamState(
        first_moment={name: np.zeros_like(p) for name, p in params.items()},
        second_moment={name: np.zeros_like(p) for name, p in params.items()},
        learning_rate=learning_rate,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None or g.shape != p.shape:
            got = None if g is None else g.shape
            raise ShapeError(f"gradient for {name!r} has shape {got}, expected {p.shape}")
    t = state.step_count + 1
    b1, b2 = BETA1, BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        m = b1 * state.first_moment[name] + (1.0 - b1) * g
        v = b2 * state.second_moment[name] + (1.0 - b2) * g * g
        new_m[name] = m
        new_v[name] = v
        new_params[name] = p - state.learning_rate * (m / corr1) / (
            np.sqrt(v / corr2) + EPSILON
        )
    return new_params, AdamState(
        step_count=t,
        first_moment=new_m,
        second_moment=new_v,
        learning_rate=state.learning_rate,
    )
