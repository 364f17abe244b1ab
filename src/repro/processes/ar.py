"""Auto-regressive AR(m) processes (Section 2.1, model example 1).

The simulation procedure draws the value at time ``t`` as

    v_t = phi_1 * v_{t-1} + ... + phi_m * v_{t-m} + eps_t,

with ``eps_t ~ N(0, sigma)``.  The state is the tuple of the last ``m``
values (most recent first), so the process fits the generic step-wise
interface without the sampler knowing the order ``m``.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess, register_batch_z,
                   require_finite)


class ARProcess(ImmutableStateProcess, VectorizedProcess):
    """AR(m) model with Gaussian innovations.

    Batched simulation supports in-place stepping (``supports_out``)
    and fusion: AR processes of the *same order* stack into one
    :class:`~repro.processes.base.FusedBatch` with per-row coefficient
    and noise parameters.

    Parameters
    ----------
    coefficients:
        ``[phi_1, ..., phi_m]``; ``phi_1`` multiplies the most recent
        value.
    sigma:
        Standard deviation of the innovation noise.
    initial_values:
        Seed window ``[v_0, v_{-1}, ...]`` (most recent first).  Defaults
        to all zeros.
    """

    supports_out = True

    def __init__(self, coefficients: Sequence[float], sigma: float = 1.0,
                 initial_values: Sequence[float] | None = None):
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ValueError("AR process needs at least one coefficient")
        if initial_values is None:
            initial_values = (0.0,) * len(coeffs)
        init = tuple(float(v) for v in initial_values)
        require_finite(sigma=sigma,
                       **{f"coefficients[{i}]": c
                          for i, c in enumerate(coeffs)},
                       **{f"initial_values[{i}]": v
                          for i, v in enumerate(init)})
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if len(init) != len(coeffs):
            raise ValueError(
                f"initial_values must have length {len(coeffs)}, "
                f"got {len(init)}"
            )
        self.coefficients = coeffs
        self.sigma = sigma
        self._initial = init
        self._coeff_array = np.asarray(coeffs, dtype=np.float64)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def initial_state(self) -> tuple:
        return self._initial

    def step(self, state: tuple, t: int, rng: random.Random) -> tuple:
        value = rng.gauss(0.0, self.sigma)
        for phi, past in zip(self.coefficients, state):
            value += phi * past
        # Shift the window: newest value first.
        return (value,) + state[:-1]

    def initial_states(self, n: int) -> np.ndarray:
        """State array of shape ``(n, m)``: one lag window per row."""
        return np.tile(np.asarray(self._initial, dtype=np.float64), (n, 1))

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        values = states @ self._coeff_array
        values += rng.normal(0.0, self.sigma, len(states))
        if out is None:
            # Shift each window: newest value first.
            return np.concatenate([values[:, None], states[:, :-1]], axis=1)
        # NumPy buffers overlapping assignments, so out may be states.
        out[:, 1:] = states[:, :-1]
        out[:, 0] = values
        return out

    def apply_impulse(self, state: tuple, magnitude: float) -> tuple:
        return (state[0] + magnitude,) + state[1:]

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        states[rows, 0] += magnitudes

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        # Windows must be column-aligned, so the order is structural.
        return ("ar", self.order)

    def fusion_params(self) -> dict:
        return {"coefficients": self.coefficients, "sigma": self.sigma}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        values = np.einsum("ij,ij->i", states, row_params["coefficients"])
        values += row_params["sigma"] * rng.standard_normal(len(states))
        if out is None:
            return np.concatenate([values[:, None], states[:, :-1]], axis=1)
        out[:, 1:] = states[:, :-1]
        out[:, 0] = values
        return out

    @staticmethod
    def current_value(state: tuple) -> float:
        """Real-valued evaluation ``z`` of a state: the latest value."""
        return float(state[0])


def _current_values(states: np.ndarray) -> np.ndarray:
    # Object arrays (ScalarFallback wrapping, e.g. an impulse-decorated
    # AR process) hold tuple states; unpack before the column read.
    rows = np.asarray([tuple(s) for s in states]) \
        if states.dtype == object else states
    return rows[:, 0].astype(np.float64)


register_batch_z(ARProcess.current_value, _current_values)
