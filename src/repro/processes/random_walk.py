"""Simple random walks — the paper's canonical analytically-solvable model.

Random walks appear in Section 2.2 as an example of a process whose
first-hitting probabilities admit analytical solutions.  We use them as
*test oracles*: :mod:`repro.core.analytic` computes their hitting
probabilities exactly by dynamic programming, giving ground truth for
estimator validation.
"""

from __future__ import annotations

import random

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess,
                   accumulate_steps, register_batch_z, require_finite,
                   scalar_state_column)


class RandomWalkProcess(ImmutableStateProcess, VectorizedProcess):
    """A lazy simple random walk on the integers.

    At each step the walk moves up by 1 with probability ``p_up``, down
    by 1 with probability ``p_down``, and stays put otherwise.  The state
    is the current position (an ``int``).
    """

    supports_out = True

    def __init__(self, p_up: float = 0.5, p_down: float | None = None,
                 start: int = 0):
        if p_down is None:
            p_down = 1.0 - p_up
        require_finite(p_up=p_up, p_down=p_down, start=start)
        if p_up < 0 or p_down < 0 or p_up + p_down > 1.0 + 1e-12:
            raise ValueError(
                f"invalid move probabilities p_up={p_up}, p_down={p_down}"
            )
        self.p_up = p_up
        self.p_down = p_down
        self.start = start

    def initial_state(self) -> int:
        return self.start

    def step(self, state: int, t: int, rng: random.Random) -> int:
        u = rng.random()
        if u < self.p_up:
            return state + 1
        if u < self.p_up + self.p_down:
            return state - 1
        return state

    def initial_states(self, n: int) -> np.ndarray:
        return np.full(n, self.start, dtype=np.int64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        return np.add(states, self._moves(rng.random(len(states))), out=out)

    def step_block(self, states: np.ndarray, t: int, width: int,
                   rng: np.random.Generator) -> np.ndarray:
        return accumulate_steps(
            states, self._moves(rng.random((width, len(states)))))

    def _moves(self, u: np.ndarray) -> np.ndarray:
        # +1 below p_up, -1 below p_up + p_down, else 0: the same int64
        # moves as a nested np.where, at a fraction of its cost.
        return 2 * (u < self.p_up) - (u < self.p_up + self.p_down)

    def apply_impulse(self, state: int, magnitude: float) -> int:
        return state + int(magnitude)

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        shift = np.trunc(np.asarray(magnitudes, dtype=np.float64))
        column = states if states.ndim == 1 else states[:, 0]
        column[rows] += shift.astype(column.dtype)

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        return ("random_walk",)

    def fusion_params(self) -> dict:
        return {"p_up": self.p_up, "p_down": self.p_down}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        moves = RandomWalkProcess._fused_moves(row_params,
                                               rng.random(len(states)))
        return np.add(states, moves[:, None], out=out)

    @staticmethod
    def fused_step_block(row_params, states, t, width, rng):
        moves = RandomWalkProcess._fused_moves(
            row_params, rng.random((width, len(states))))
        return accumulate_steps(states, moves[:, :, None])

    @staticmethod
    def _fused_moves(row_params, u):
        p_up = row_params["p_up"]
        return 2.0 * (u < p_up) - (u < p_up + row_params["p_down"])

    @staticmethod
    def position(state: int) -> float:
        """Real-valued evaluation ``z`` of a state: the walk position."""
        return float(state)


register_batch_z(RandomWalkProcess.position, scalar_state_column)


class GaussianWalkProcess(ImmutableStateProcess, VectorizedProcess):
    """A random walk with Gaussian increments ``N(drift, sigma)``.

    The continuous-state cousin of :class:`RandomWalkProcess`; its value
    can jump across several levels in one step, which makes it a handy
    small model for exercising level-skipping (Section 4).  It is also
    the simplest member of the Gaussian-step family supported by the
    importance-sampling comparator (:mod:`repro.core.importance`).
    """

    supports_out = True

    def __init__(self, drift: float = 0.0, sigma: float = 1.0,
                 start: float = 0.0):
        require_finite(drift=drift, sigma=sigma, start=start)
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.drift = drift
        self.sigma = sigma
        self.start = start

    def initial_state(self) -> float:
        return self.start

    def step(self, state: float, t: int, rng: random.Random) -> float:
        return state + rng.gauss(self.drift, self.sigma)

    def initial_states(self, n: int) -> np.ndarray:
        return np.full(n, self.start, dtype=np.float64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        return np.add(states, rng.normal(self.drift, self.sigma,
                                         len(states)), out=out)

    def step_block(self, states: np.ndarray, t: int, width: int,
                   rng: np.random.Generator) -> np.ndarray:
        return accumulate_steps(states, rng.normal(
            self.drift, self.sigma, (width, len(states))))

    # --- Gaussian-step protocol (used by importance sampling) ---------

    def step_with_noise(self, state: float, noise: float) -> float:
        """Advance deterministically given the Gaussian noise draw."""
        return state + self.drift + noise

    def noise_sigma(self) -> float:
        return self.sigma

    def apply_impulse(self, state: float, magnitude: float) -> float:
        return state + magnitude

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        column = states if states.ndim == 1 else states[:, 0]
        column[rows] += magnitudes

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        return ("gaussian_walk",)

    def fusion_params(self) -> dict:
        return {"drift": self.drift, "sigma": self.sigma}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        increments = (row_params["drift"]
                      + row_params["sigma"]
                      * rng.standard_normal(len(states)))
        return np.add(states, increments[:, None], out=out)

    @staticmethod
    def fused_step_block(row_params, states, t, width, rng):
        increments = (row_params["drift"]
                      + row_params["sigma"]
                      * rng.standard_normal((width, len(states))))
        return accumulate_steps(states, increments[:, :, None])

    @staticmethod
    def position(state: float) -> float:
        return float(state)


register_batch_z(GaussianWalkProcess.position, scalar_state_column)
