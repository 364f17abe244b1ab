"""Geometric Brownian motion — synthetic stand-in for real stock data.

The paper trains its LSTM-RNN-MDN model on Google's 5-year daily stock
prices (2015-2020).  That data is not available offline, so we generate
a synthetic daily price series from a geometric Brownian motion
calibrated to the same regime: start near $520, drift such that the
series roughly triples over ~1250 trading days, and daily volatility of
about 1.5 %.  The series exercises the same code path (sequence-model
training on a single long price series) as the real data would.

:class:`GBMProcess` is also usable directly as a simulation model — a
useful lightweight "stock" process for examples and tests.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess,
                   register_batch_z, require_finite, scalar_state_column)


class GBMProcess(ImmutableStateProcess, VectorizedProcess):
    """Geometric Brownian motion observed at integer times (days).

    ``S_t = S_{t-1} * exp((mu - sigma^2/2) + sigma * Z_t)`` with
    ``Z_t ~ N(0, 1)``; ``mu`` and ``sigma`` are per-step (daily) drift
    and volatility.
    """

    supports_out = True

    def __init__(self, start_price: float = 520.0, mu: float = 0.00082,
                 sigma: float = 0.015):
        require_finite(start_price=start_price, mu=mu, sigma=sigma)
        if start_price <= 0:
            raise ValueError(f"start_price must be > 0, got {start_price}")
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.start_price = start_price
        self.mu = mu
        self.sigma = sigma
        self._log_drift = mu - 0.5 * sigma * sigma

    def initial_state(self) -> float:
        return float(self.start_price)

    def step(self, state: float, t: int, rng: random.Random) -> float:
        return state * math.exp(self._log_drift + self.sigma * rng.gauss(0.0, 1.0))

    def initial_states(self, n: int) -> np.ndarray:
        return np.full(n, float(self.start_price), dtype=np.float64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        shocks = rng.standard_normal(len(states))
        factors = np.exp(self._log_drift + self.sigma * shocks)
        return np.multiply(states, factors, out=out)

    def apply_impulse(self, state: float, magnitude: float) -> float:
        return state + magnitude

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        column = states if states.ndim == 1 else states[:, 0]
        column[rows] += magnitudes

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        return ("gbm",)

    def fusion_params(self) -> dict:
        return {"log_drift": self._log_drift, "sigma": self.sigma}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        shocks = rng.standard_normal(len(states))
        shocks *= row_params["sigma"]
        shocks += row_params["log_drift"]
        factors = np.exp(shocks, out=shocks)
        return np.multiply(states, factors[:, None], out=out)

    @staticmethod
    def price(state: float) -> float:
        """Real-valued evaluation ``z``: the simulated price."""
        return float(state)


register_batch_z(GBMProcess.price, scalar_state_column)


def synthetic_stock_series(n_days: int = 1258, seed: int = 20150102,
                           start_price: float = 520.0, mu: float = 0.00082,
                           sigma: float = 0.015) -> list:
    """Generate the synthetic "Google 2015-2020" daily close series.

    1258 trading days ~ 5 calendar years.  Deterministic under the
    default seed so the RNN substrate trains on a fixed dataset.
    """
    if n_days < 2:
        raise ValueError(f"need at least 2 days, got {n_days}")
    process = GBMProcess(start_price=start_price, mu=mu, sigma=sigma)
    rng = random.Random(seed)
    price = process.initial_state()
    series = [price]
    for t in range(1, n_days):
        price = process.step(price, t, rng)
        series.append(price)
    return series


def log_returns(prices: list) -> list:
    """Convert a price series to log-returns (length ``len(prices) - 1``)."""
    if len(prices) < 2:
        raise ValueError("need at least two prices")
    return [math.log(b / a) for a, b in zip(prices, prices[1:])]
