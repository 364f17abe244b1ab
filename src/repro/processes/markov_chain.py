"""Finite time-homogeneous Markov chains (Section 2.1, model example 2).

Beyond being one of the paper's motivating model classes, finite chains
are the backbone of our validation strategy: their durability-query
answers can be computed *exactly* by dynamic programming
(:func:`repro.core.analytic.hitting_probability`), so every sampler in
the library is tested against closed-form ground truth.

The batched kernels work by state.  ``step_batch`` is a row-wise
``bisect_right`` laid out by column (:func:`_column_tables`): one
gather of each state's count of entries at or below 0, then one gather
and compare per inner cumulative column, two on a birth-death chain.
A fused fleet runs the same kernel over its members' stacked tables at
``owner * n + state``, and :meth:`MarkovChainProcess.z_by_state` lets
the splitting forest classify every state once instead of scoring rows
at every step.
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
        self._passed, self._columns = _column_tables(self._cumulative_array)

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
        # Row-wise bisect_right over the cumulative transition rows,
        # exactly as the scalar step, one inner column at a time.
        return _successors(self._passed, self._columns, states,
                           rng.random(len(states)))

    def state_value(self, state: int) -> float:
        """Real-valued evaluation ``z`` of a state."""
        return self.values[state]

    def z_by_state(self, z):
        """``z`` at states ``0 .. n-1`` when ``z`` is this chain's own
        :meth:`state_value` or the shared :meth:`state_index`, else
        ``None``: the values the registered batch forms gather."""
        if (getattr(z, "__func__", None) is MarkovChainProcess.state_value
                and z.__self__ is self):
            return self._value_array
        if z is MarkovChainProcess.state_index:
            return np.arange(self.num_states, dtype=np.float64)
        return None

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        """Chains over equally-sized state spaces fuse.

        The state-space size is the only *shape* the fleet's tables
        depend on; the transition probabilities themselves are
        per-member data (:meth:`fused_owner_tables`).  Per-state
        ``values`` stay member-local: a fused fleet scores rows through
        a shared ``z`` (e.g. :meth:`state_index`), not per-member value
        tables.
        """
        return ("markov_chain", self.num_states)

    def fusion_params(self) -> dict:
        # No per-row parameters: a fused chain fleet takes the
        # owner-indexed route (fused_owner_tables / fused_owner_step).
        return {}

    @staticmethod
    def fused_owner_tables(members) -> tuple:
        """The fleet's column tables, indexed by ``owner * n + state``.

        Member ``k``'s cumulative rows are rows ``k * n .. k * n + n - 1``
        of one stacked table, laid out by :func:`_column_tables` as a
        single chain's are; its column count is the widest member's, the
        others padded with 2.0.
        """
        return (members[0].num_states, *_column_tables(np.concatenate(
            [member._cumulative_array for member in members])))

    @staticmethod
    def fused_owner_step(tables, owners, states, t, rng, out=None):
        """The column kernel over the fleet's tables: row ``i`` of the
        ``(rows, 1)`` core ``states`` steps as its owner's chain would
        step it, drawing the same ``u``, so its successor is the same
        integer."""
        n, passed, columns = tables
        index = owners * n
        index += states[:, 0].astype(np.intp)
        successors = _successors(passed, columns, index,
                                 rng.random(len(index)))
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


def _column_tables(cumulative: np.ndarray) -> tuple:
    """``(passed, columns)``: rows of cumulative transition entries laid
    out for a row-wise ``bisect_right`` of ``u`` in [0, 1).

    Every such ``u`` passes an entry <= 0 and no entry >= 1, so row
    ``i``'s successor is ``passed[i]``, its count of entries <= 0, plus
    the number of its entries strictly inside (0, 1) at or below ``u``.
    ``columns[j][i]`` is row ``i``'s ``j``-th inner entry, padded with
    2.0, which no ``u`` passes either: one contiguous array per column,
    as many as the widest row has inner entries (two on a birth-death
    chain).
    """
    inside = (cumulative > 0.0) & (cumulative < 1.0)
    widths = inside.sum(axis=1)
    rows, _ = np.nonzero(inside)
    # Each inner entry's rank within its row.
    ranks = np.arange(len(rows)) - np.repeat(np.cumsum(widths) - widths,
                                             widths)
    columns = np.full((int(widths.max()), len(cumulative)), 2.0)
    columns[ranks, rows] = cumulative[inside]
    return (np.count_nonzero(cumulative <= 0.0, axis=1), tuple(columns))


def _successors(passed, columns, index, u) -> np.ndarray:
    """The successors of the table rows ``index`` under uniforms ``u``:
    ``passed[index]`` plus one for every inner column entry <= ``u``."""
    successors = passed[index]
    for column in columns:
        successors += column[index] <= u
    return successors


def _state_values(chain: MarkovChainProcess, states) -> np.ndarray:
    """Batch ``state_value``: a 1-D integer state array indexes the
    value table directly; fused and fallback layouts go through
    :func:`scalar_state_column`."""
    states = np.asarray(states)
    if states.ndim != 1 or states.dtype.kind not in "iu":
        states = scalar_state_column(states).astype(np.intp)
    return chain._value_array[states]


register_batch_z(MarkovChainProcess.state_value, _state_values)
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
