"""Finite time-homogeneous Markov chains (Section 2.1, model example 2).

Beyond being one of the paper's motivating model classes, finite chains
are the backbone of our validation strategy: their durability-query
answers can be computed *exactly* by dynamic programming
(:func:`repro.core.analytic.hitting_probability`), so every sampler in
the library is tested against closed-form ground truth.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess,
                   register_batch_z, require_finite, scalar_state_column)


class MarkovChainProcess(ImmutableStateProcess, VectorizedProcess):
    """A finite discrete-time Markov chain over states ``0..n-1``.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic ``n x n`` matrix; ``P[i][j]`` is the probability
        of moving from state ``i`` to state ``j``.
    start:
        Initial state index.
    values:
        Optional real value per state used as the ``z`` evaluation; by
        default the state index itself.
    """

    def __init__(self, transition_matrix: Sequence[Sequence[float]],
                 start: int = 0, values: Sequence[float] | None = None):
        matrix = [list(map(float, row)) for row in transition_matrix]
        n = len(matrix)
        if n == 0:
            raise ValueError("transition matrix must be non-empty")
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise ValueError(
                    f"row {i} has length {len(row)}, expected {n}"
                )
            require_finite(**{f"transition_matrix[{i}][{j}]": p
                              for j, p in enumerate(row)})
            if any(p < -1e-12 for p in row):
                raise ValueError(f"row {i} has negative probabilities")
            total = sum(row)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"row {i} sums to {total}, expected 1.0"
                )
        if not 0 <= start < n:
            raise ValueError(f"start state {start} out of range [0, {n})")
        if values is None:
            values = [float(i) for i in range(n)]
        if len(values) != n:
            raise ValueError(
                f"values must have length {n}, got {len(values)}"
            )
        require_finite(**{f"values[{i}]": float(v)
                          for i, v in enumerate(values)})
        self.matrix = matrix
        self.start = start
        self.values = [float(v) for v in values]
        # Pre-compute cumulative rows for O(log n) sampling.
        self._cumulative = []
        for row in matrix:
            acc, cum = 0.0, []
            for p in row:
                acc += p
                cum.append(acc)
            cum[-1] = 1.0 + 1e-12  # guard against float round-off
            self._cumulative.append(cum)
        self._cumulative_array = np.asarray(self._cumulative)
        self._value_array = np.asarray(self.values, dtype=np.float64)

    @property
    def num_states(self) -> int:
        return len(self.matrix)

    def initial_state(self) -> int:
        return self.start

    def step(self, state: int, t: int, rng: random.Random) -> int:
        return bisect.bisect_right(self._cumulative[state], rng.random())

    def initial_states(self, n: int) -> np.ndarray:
        return np.full(n, self.start, dtype=np.int64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator) -> np.ndarray:
        # Row-wise bisect_right over the cumulative transition rows:
        # count the cumulative entries <= u, exactly as the scalar step.
        rows = self._cumulative_array[states]
        u = rng.random(len(states))
        return (rows <= u[:, None]).sum(axis=1)

    def state_value(self, state: int) -> float:
        """Real-valued evaluation ``z`` of a state."""
        return self.values[state]

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        """Chains over equally-sized state spaces fuse.

        The state-space size is the only *shape* the stacked parameter
        tensor depends on; the transition probabilities themselves are
        per-member data (``fusion_params``).  Per-state ``values`` stay
        member-local: a fused fleet scores rows through a shared ``z``
        (e.g. :meth:`state_index`), not per-member value tables.
        """
        return ("markov_chain", self.num_states)

    def fusion_params(self) -> dict:
        # One (n, n) cumulative-row matrix per member; FusedBatch
        # stacks them into a (k, n, n) tensor and gathers (rows, n, n)
        # slices by owner.
        return {"cumulative": self._cumulative_array}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        indices = states[:, 0].astype(np.intp)
        # row_params["cumulative"][i] is row i's member's full matrix;
        # select each row's *current-state* cumulative row, then
        # bisect exactly as the unfused batched step.
        cumulative = row_params["cumulative"][
            np.arange(len(indices)), indices]
        u = rng.random(len(indices))
        successors = (cumulative <= u[:, None]).sum(axis=1)
        if out is None:
            out = states.copy()
        out[:, 0] = successors
        return out

    @staticmethod
    def state_index(state) -> float:
        """Shared ``z`` for fused chain fleets: the state index itself.

        Unlike the per-instance :meth:`state_value` (a bound method
        carrying a member-local value table), this is one plain
        function every member shares, so fused fleet passes and the
        engine's structural cohort grouping can use it.  Equals
        ``state_value`` whenever ``values`` is the default identity
        mapping.
        """
        return float(state)


register_batch_z(
    MarkovChainProcess.state_value,
    lambda self, states: self._value_array[
        scalar_state_column(states).astype(np.intp)])
register_batch_z(MarkovChainProcess.state_index, scalar_state_column)


def birth_death_chain(n: int, p_up: float, p_down: float,
                      start: int = 0) -> MarkovChainProcess:
    """Build a birth-death chain on ``0..n-1`` with absorbing top state.

    From interior state ``i`` the chain moves to ``i+1`` w.p. ``p_up``,
    to ``i-1`` w.p. ``p_down`` and stays otherwise; state 0 cannot move
    down and state ``n-1`` is absorbing.  This is the standard shape of a
    durability target ("reach backlog n-1") and, being banded, keeps the
    exact DP oracle cheap even for wide chains.
    """
    if n < 2:
        raise ValueError(f"need at least 2 states, got {n}")
    if p_up < 0 or p_down < 0 or p_up + p_down > 1.0 + 1e-12:
        raise ValueError(
            f"invalid probabilities p_up={p_up}, p_down={p_down}"
        )
    matrix = []
    for i in range(n):
        row = [0.0] * n
        if i == n - 1:
            row[i] = 1.0
        elif i == 0:
            row[1] = p_up
            row[0] = 1.0 - p_up
        else:
            row[i + 1] = p_up
            row[i - 1] = p_down
            row[i] = 1.0 - p_up - p_down
        matrix.append(row)
    return MarkovChainProcess(matrix, start=start)
