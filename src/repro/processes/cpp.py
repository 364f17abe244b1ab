"""Compound Poisson process (Section 6, experimental model 2).

The risk-theory surplus process

    U(t) = u + c * t - S(t),

where ``S(t)`` is a compound Poisson process with jump density ``lam``
and jump sizes drawn from ``Uniform(jump_low, jump_high)``.  ``u`` is
the initial surplus and ``c`` the premium income per unit time.  The
paper's parameters are ``u = 15``, ``c = 4.5``, ``lam = 0.8`` and jumps
``Uniform(5, 10)``, which we keep as defaults.

Note on calibration: with these defaults the drift is
``c - lam * E[J] = 4.5 - 6.0 = -1.5`` per unit time, so upward
excursions of ``U`` are genuinely rare events driven by lucky stretches
without claims — exactly the regime MLSS targets.  The value thresholds
in our workload registry are calibrated to this process: the paper's
printed thresholds of 300-500 are unreachable under its printed
parameters.

Batched simulation: each step draws every row's claim count with one
``Generator.poisson`` call, then forms all claim totals with a single
uniform draw over the pooled claims and a weighted ``bincount`` back to
rows — the compound sum never loops in Python.  CPP also participates
in cross-process fusion (per-row premium, claim rate and jump bounds),
so fleets of differently-parameterised surplus processes advance as one
``step_batch`` per time step.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess,
                   register_batch_z, require_finite, scalar_state_column)


def poisson_variate(rng: random.Random, exp_neg_lambda: float) -> int:
    """Draw a Poisson variate by Knuth's product-of-uniforms method.

    ``exp_neg_lambda`` is the pre-computed ``exp(-lambda)``; the method
    is exact and fast for the small rates used here (lambda < ~10).
    """
    k = 0
    product = rng.random()
    while product > exp_neg_lambda:
        k += 1
        product *= rng.random()
    return k


def _compound_uniform_sums(counts: np.ndarray, low, span,
                           rng: np.random.Generator) -> np.ndarray:
    """Per-row sums of ``counts[i]`` draws from ``Uniform(low, low+span)``.

    ``low``/``span`` may be scalars or per-row arrays (the fused path).
    One pooled uniform draw covers every claim of every row; a weighted
    bincount folds the claims back to their rows.
    """
    total_claims = int(counts.sum())
    n = len(counts)
    if total_claims == 0:
        return np.zeros(n, dtype=np.float64)
    claim_row = np.repeat(np.arange(n), counts)
    draws = rng.random(total_claims)
    if np.ndim(low) == 0:
        claims = low + span * draws
    else:
        claims = (np.asarray(low, dtype=np.float64)[claim_row]
                  + np.asarray(span, dtype=np.float64)[claim_row] * draws)
    return np.bincount(claim_row, weights=claims, minlength=n)


class CompoundPoissonProcess(ImmutableStateProcess, VectorizedProcess):
    """Insurance surplus process observed at integer times.

    The state is the current surplus ``U(t)`` (a float).  Each unit step
    adds the premium ``c`` and subtracts a compound-Poisson claim total
    with ``Poisson(lam)`` claims of size ``Uniform(jump_low, jump_high)``.
    """

    supports_out = True

    def __init__(self, initial_surplus: float = 15.0, premium_rate: float = 4.5,
                 jump_rate: float = 0.8, jump_low: float = 5.0,
                 jump_high: float = 10.0):
        require_finite(initial_surplus=initial_surplus,
                       premium_rate=premium_rate, jump_rate=jump_rate,
                       jump_low=jump_low, jump_high=jump_high)
        if jump_rate <= 0:
            raise ValueError(f"jump_rate must be > 0, got {jump_rate}")
        if jump_high < jump_low:
            raise ValueError(
                f"jump_high ({jump_high}) must be >= jump_low ({jump_low})"
            )
        self.initial_surplus = initial_surplus
        self.premium_rate = premium_rate
        self.jump_rate = jump_rate
        self.jump_low = jump_low
        self.jump_high = jump_high
        self._exp_neg_lambda = math.exp(-jump_rate)
        self._jump_span = jump_high - jump_low

    def initial_state(self) -> float:
        return float(self.initial_surplus)

    def step(self, state: float, t: int, rng: random.Random) -> float:
        value = state + self.premium_rate
        n_claims = poisson_variate(rng, self._exp_neg_lambda)
        for _ in range(n_claims):
            value -= self.jump_low + self._jump_span * rng.random()
        return value

    def initial_states(self, n: int) -> np.ndarray:
        return np.full(n, float(self.initial_surplus), dtype=np.float64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        counts = rng.poisson(self.jump_rate, len(states))
        claims = _compound_uniform_sums(counts, self.jump_low,
                                        self._jump_span, rng)
        return np.add(states, self.premium_rate - claims, out=out)

    def apply_impulse(self, state: float, magnitude: float) -> float:
        return state + magnitude

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        column = states if states.ndim == 1 else states[:, 0]
        column[rows] += magnitudes

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        return ("cpp",)

    def fusion_params(self) -> dict:
        return {"premium_rate": self.premium_rate,
                "jump_rate": self.jump_rate,
                "jump_low": self.jump_low,
                "jump_span": self._jump_span}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        counts = rng.poisson(row_params["jump_rate"])
        claims = _compound_uniform_sums(counts, row_params["jump_low"],
                                        row_params["jump_span"], rng)
        increments = row_params["premium_rate"] - claims
        return np.add(states, increments[:, None], out=out)

    def mean_drift(self) -> float:
        """Expected change of ``U`` per unit time."""
        mean_jump = 0.5 * (self.jump_low + self.jump_high)
        return self.premium_rate - self.jump_rate * mean_jump

    @staticmethod
    def surplus(state: float) -> float:
        """Real-valued evaluation ``z``: the surplus ``U(t)`` (paper §6)."""
        return float(state)


register_batch_z(CompoundPoissonProcess.surplus, scalar_state_column)
