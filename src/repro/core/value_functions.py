"""Value functions and durability queries (Sections 2.1 and 3).

A durability prediction query ``Q(q, s)`` asks for the probability that
the process reaches a state with ``q(x_t) = 1`` for some ``1 <= t <= s``.
MLSS additionally needs a heuristic *value function*
``f : X x T -> (0, 1]`` measuring how close a state is to satisfying the
query; ``f(x_t) = 1`` iff ``q(x_t) = 1``.  Unbiasedness never depends on
``f`` — only efficiency does.

The common practical case (and the one used throughout the paper's
experiments) is a threshold condition ``z(x_t) >= beta`` with the value
function ``f = min(z / beta, 1)``; :class:`ThresholdValueFunction`
implements it.  Arbitrary value functions are supported through the
plain callable protocol ``f(state, t) -> float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..processes.base import State, StochasticProcess, batch_z_values

# A value function maps (state, t) to a score; >= 1.0 means the query
# condition is satisfied.
ValueFunction = Callable[[State, int], float]

#: Scores at or above this value count as hitting the query target.
TARGET_VALUE = 1.0


def batch_values(value_fn: ValueFunction, states: np.ndarray,
                 t: int) -> np.ndarray:
    """Evaluate a value function over a whole state array at time ``t``.

    Uses the value function's ``batch`` method when it has one (e.g.
    :meth:`ThresholdValueFunction.batch`); otherwise falls back to a
    row-wise scalar loop, which is always correct — the simulation side
    stays batched either way.
    """
    batch = getattr(value_fn, "batch", None)
    if batch is not None:
        return np.asarray(batch(states, t), dtype=np.float64)
    return np.asarray([value_fn(s, t) for s in states], dtype=np.float64)


class ThresholdValueFunction:
    """``f(x, t) = min(z(x) / beta, 1)`` for a threshold query ``z >= beta``.

    ``z`` is a real-valued evaluation of a state (e.g. the Queue 2
    backlog, the CPP surplus, a simulated stock price).  Negative or
    zero scores clamp to 0.0, which simply lands in the lowest level.

    Instances are picklable as long as ``z`` is (use module-level
    functions or small callable classes, not lambdas, if you need the
    parallel sampler).
    """

    def __init__(self, z: Callable[[State], float], beta: float):
        if not math.isfinite(beta) or beta <= 0:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        self.z = z
        self.beta = beta

    def __call__(self, state: State, t: int) -> float:
        ratio = self.z(state) / self.beta
        if ratio >= TARGET_VALUE:
            return TARGET_VALUE
        if ratio <= 0.0:
            return 0.0
        return ratio

    def batch(self, states: np.ndarray, t: int) -> np.ndarray:
        """Vectorized evaluation: one score per state-array row.

        ``z`` is vectorized through :func:`repro.processes.base.
        batch_z_values` (explicit ``z.batch`` attribute, the
        ``register_batch_z`` registry, or a row-wise fallback); the
        clamp is element-wise identical to the scalar ``__call__``.
        """
        ratios = batch_z_values(self.z, states) / self.beta
        return np.clip(ratios, 0.0, TARGET_VALUE)

    def z_boundaries(self, levels) -> np.ndarray:
        """The score ``levels`` as raw ``z``: for each positive level
        ``b``, the least float ``z`` with ``z / beta >= b``.

        Correctly rounded division by a positive ``beta`` is monotone in
        ``z``, so a state's score reaches ``b`` exactly when its raw
        ``z`` is at least the returned boundary: comparing ``z`` with
        these classifies states with no divide and no clip.  The search
        starts at ``b * beta`` and steps one float at a time with
        :func:`numpy.nextafter` until the predicate flips, so it is
        exact; it takes a step or two.
        """
        beta = np.float64(self.beta)
        edges = []
        for level in np.asarray(levels, dtype=np.float64):
            if not level > 0.0:
                # At 0 the quotients of tiny negative z round to -0.0,
                # so the downward search would not end.
                raise ValueError(f"score levels must be positive, got {level}")
            z = level * beta
            if z / beta >= level:
                while np.nextafter(z, -np.inf) / beta >= level:
                    z = np.nextafter(z, -np.inf)
            else:
                while z / beta < level:
                    z = np.nextafter(z, np.inf)
            edges.append(z)
        return np.asarray(edges, dtype=np.float64)

    def with_beta(self, beta: float) -> "ThresholdValueFunction":
        """The same state evaluation ``z`` against a different threshold.

        Used by the durability-curve machinery, which rebases a whole
        grid of thresholds onto the largest one so a single simulation
        pass covers them all.
        """
        return ThresholdValueFunction(self.z, beta)

    def __repr__(self) -> str:
        z_name = getattr(self.z, "__qualname__", repr(self.z))
        return f"ThresholdValueFunction(z={z_name}, beta={self.beta})"


@dataclass
class DurabilityQuery:
    """A durability prediction query ``Q(q, s)`` over a simulation model.

    Attributes
    ----------
    process:
        The step-wise simulation model ``g``.
    value_function:
        Heuristic ``f(state, t) -> float``; values ``>= 1`` satisfy the
        query condition.  For plain SRS the value function only needs to
        be correct at the target (``f >= 1`` iff ``q = 1``).
    horizon:
        The prescribed time horizon ``s`` (the query looks at
        ``t = 1 .. s``).
    name:
        Optional label used in reports.
    """

    process: StochasticProcess
    value_function: ValueFunction
    horizon: int
    name: str = field(default="")

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @classmethod
    def threshold(cls, process: StochasticProcess,
                  z: Callable[[State], float], beta: float, horizon: int,
                  name: str = "") -> "DurabilityQuery":
        """Build the common ``z(x_t) >= beta`` query."""
        return cls(process=process,
                   value_function=ThresholdValueFunction(z, beta),
                   horizon=horizon, name=name)

    def satisfied(self, state: State, t: int) -> bool:
        """The Boolean query function ``q`` derived from ``f``."""
        return self.value_function(state, t) >= TARGET_VALUE

    def initial_value(self) -> float:
        """Value of the initial state (used to validate level plans)."""
        return self.value_function(self.process.initial_state(), 0)

    def with_threshold(self, beta: float) -> "DurabilityQuery":
        """The same query asked against a different threshold ``beta``.

        Only defined for threshold queries (the value function must be a
        :class:`ThresholdValueFunction`); this is what lets the engine
        treat a grid of thresholds as variations of one query.
        """
        if not isinstance(self.value_function, ThresholdValueFunction):
            raise TypeError(
                "with_threshold requires a ThresholdValueFunction; "
                f"got {type(self.value_function).__name__}"
            )
        name = f"{self.name}@{beta:g}" if self.name else ""
        return DurabilityQuery(
            process=self.process,
            value_function=self.value_function.with_beta(beta),
            horizon=self.horizon, name=name)


def threshold_grid(thresholds) -> tuple:
    """Normalize a grid of raw thresholds for a one-pass curve.

    Returns ``(betas, levels)``: the thresholds sorted ascending and the
    same grid rescaled by the largest one, so ``levels[-1] == 1.0`` and
    each ``levels[j]`` is the value-function score at which the query
    ``z >= betas[j]`` is satisfied *under the rebased (largest)
    threshold*.  Thresholds must be finite, positive and distinct; this
    is the one grid rule of every curve entry point.
    """
    betas = sorted(float(b) for b in thresholds)
    if not betas:
        raise ValueError("empty threshold grid")
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"thresholds must be finite, got {beta}")
    if betas[0] <= 0.0:
        raise ValueError(f"thresholds must be positive, got {betas[0]}")
    for lo, hi in zip(betas, betas[1:]):
        if lo == hi:
            raise ValueError(f"duplicate threshold {lo}")
    beta_max = betas[-1]
    levels = tuple(b / beta_max for b in betas)
    return tuple(betas), levels
