"""Tests for the compound Poisson process (Section 6, model 2)."""

import math
import random

import pytest

from repro.processes.base import simulate_path
from repro.processes.cpp import CompoundPoissonProcess, poisson_variate


class TestPoissonVariate:
    def test_mean_and_variance(self):
        lam = 0.8
        rng = random.Random(1)
        exp_neg = math.exp(-lam)
        draws = [poisson_variate(rng, exp_neg) for _ in range(20000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
        assert mean == pytest.approx(lam, rel=0.05)
        assert var == pytest.approx(lam, rel=0.08)

    def test_zero_rate_limit(self):
        rng = random.Random(2)
        exp_neg = math.exp(-1e-9)
        assert all(poisson_variate(rng, exp_neg) == 0 for _ in range(100))


class TestConstruction:
    def test_paper_defaults(self):
        cpp = CompoundPoissonProcess()
        assert cpp.initial_surplus == 15.0
        assert cpp.premium_rate == 4.5
        assert cpp.jump_rate == 0.8
        assert (cpp.jump_low, cpp.jump_high) == (5.0, 10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CompoundPoissonProcess(jump_rate=0.0)
        with pytest.raises(ValueError):
            CompoundPoissonProcess(jump_low=10.0, jump_high=5.0)

    @pytest.mark.parametrize("param", ["initial_surplus", "premium_rate",
                                       "jump_rate", "jump_low",
                                       "jump_high"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            CompoundPoissonProcess(**{param: value})

    def test_mean_drift(self):
        cpp = CompoundPoissonProcess()
        assert cpp.mean_drift() == pytest.approx(4.5 - 0.8 * 7.5)


class TestDynamics:
    def test_initial_state(self):
        assert CompoundPoissonProcess().initial_state() == 15.0

    def test_no_claims_means_pure_premium_growth(self):
        cpp = CompoundPoissonProcess(jump_rate=1e-9)
        path = simulate_path(cpp, 10, random.Random(3))
        assert path[-1] == pytest.approx(15.0 + 4.5 * 10)

    def test_long_run_drift_matches_theory(self):
        cpp = CompoundPoissonProcess()
        rng = random.Random(4)
        horizon, n_paths = 200, 300
        finals = [simulate_path(cpp, horizon, rng)[-1]
                  for _ in range(n_paths)]
        mean = sum(finals) / n_paths
        expected = 15.0 + cpp.mean_drift() * horizon
        spread = (cpp.jump_rate * horizon * (7.5 ** 2 + 25 / 12)) ** 0.5
        assert abs(mean - expected) < 4 * spread / n_paths ** 0.5

    def test_step_variance_matches_compound_poisson(self):
        cpp = CompoundPoissonProcess()
        rng = random.Random(5)
        increments = []
        state = 0.0
        for _ in range(20000):
            increments.append(cpp.step(state, 1, rng) - state)
        mean = sum(increments) / len(increments)
        var = sum((d - mean) ** 2 for d in increments) / (len(increments) - 1)
        # Var = lam * E[J^2] with J ~ Uni(5, 10).
        expected = 0.8 * (7.5 ** 2 + 25.0 / 12.0)
        assert var == pytest.approx(expected, rel=0.08)

    def test_surplus_z_and_impulse(self):
        cpp = CompoundPoissonProcess()
        assert CompoundPoissonProcess.surplus(12.5) == 12.5
        assert cpp.apply_impulse(10.0, 40.0) == 50.0

    def test_reproducible_under_seed(self):
        cpp = CompoundPoissonProcess()
        a = simulate_path(cpp, 50, random.Random(6))
        b = simulate_path(cpp, 50, random.Random(6))
        assert a == b
