"""Tests for the GBM process and the synthetic stock series."""

import math
import random

import pytest

from repro.processes.base import simulate_path
from repro.processes.gbm import (GBMProcess, log_returns,
                                 synthetic_stock_series)


class TestGBMProcess:
    def test_prices_stay_positive(self):
        process = GBMProcess(start_price=100.0, mu=0.0, sigma=0.05)
        path = simulate_path(process, 500, random.Random(1))
        assert all(p > 0 for p in path)

    def test_log_return_moments(self):
        mu, sigma = 0.001, 0.02
        process = GBMProcess(start_price=100.0, mu=mu, sigma=sigma)
        rng = random.Random(2)
        state = 100.0
        returns = []
        for t in range(1, 20001):
            nxt = process.step(state, t, rng)
            returns.append(math.log(nxt / state))
            state = nxt
        mean = sum(returns) / len(returns)
        var = sum((r - mean) ** 2 for r in returns) / (len(returns) - 1)
        assert mean == pytest.approx(mu - sigma * sigma / 2, abs=5e-4)
        assert math.sqrt(var) == pytest.approx(sigma, rel=0.05)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GBMProcess(start_price=0.0)
        with pytest.raises(ValueError):
            GBMProcess(sigma=0.0)

    @pytest.mark.parametrize("param", ["start_price", "mu", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            GBMProcess(**{param: value})

    def test_price_z_and_impulse(self):
        process = GBMProcess()
        assert GBMProcess.price(123.0) == 123.0
        assert process.apply_impulse(100.0, 50.0) == 150.0


class TestSyntheticStockSeries:
    def test_deterministic_default_series(self):
        a = synthetic_stock_series()
        b = synthetic_stock_series()
        assert a == b
        assert len(a) == 1258  # ~5 trading years

    def test_google_like_regime(self):
        """Start near $520, roughly triple over five years."""
        series = synthetic_stock_series()
        assert series[0] == pytest.approx(520.0)
        assert 2.0 < series[-1] / series[0] < 4.0

    def test_daily_volatility_in_range(self):
        returns = log_returns(synthetic_stock_series())
        mean = sum(returns) / len(returns)
        std = (sum((r - mean) ** 2 for r in returns)
               / (len(returns) - 1)) ** 0.5
        assert std == pytest.approx(0.015, rel=0.1)

    def test_custom_seed_changes_series(self):
        assert synthetic_stock_series(seed=1) != synthetic_stock_series(seed=2)

    def test_needs_two_days(self):
        with pytest.raises(ValueError):
            synthetic_stock_series(n_days=1)


class TestLogReturns:
    def test_values(self):
        returns = log_returns([100.0, 110.0, 99.0])
        assert returns[0] == pytest.approx(math.log(1.1))
        assert returns[1] == pytest.approx(math.log(0.9))

    def test_length(self):
        assert len(log_returns([1.0, 2.0, 3.0, 4.0])) == 3

    def test_needs_two_prices(self):
        with pytest.raises(ValueError):
            log_returns([1.0])
