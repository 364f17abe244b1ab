"""Tests for the AR(m) process."""

import math
import random
import re

import pytest

from repro.processes.ar import ARProcess
from repro.processes.base import simulate_path


class TestConstruction:
    def test_order_from_coefficients(self):
        assert ARProcess([0.5, 0.2, 0.1]).order == 3

    def test_default_initial_window_is_zero(self):
        process = ARProcess([0.5, 0.3])
        assert process.initial_state() == (0.0, 0.0)

    def test_explicit_initial_window(self):
        process = ARProcess([0.5], initial_values=[2.0])
        assert process.initial_state() == (2.0,)

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            ARProcess([])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            ARProcess([0.5], sigma=0.0)

    def test_rejects_mismatched_initial_window(self):
        with pytest.raises(ValueError):
            ARProcess([0.5, 0.3], initial_values=[1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("param,kwargs", [
        ("sigma", lambda v: {"coefficients": [0.5], "sigma": v}),
        ("coefficients[1]", lambda v: {"coefficients": [0.5, v]}),
        ("initial_values[0]",
         lambda v: {"coefficients": [0.5], "initial_values": [v]}),
    ])
    def test_non_finite_parameter_rejected(self, param, kwargs, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"{param} must be finite")):
            ARProcess(**kwargs(value))


class TestDynamics:
    def test_state_window_shifts(self):
        process = ARProcess([0.5, 0.25], sigma=1e-12,
                            initial_values=[4.0, 8.0])
        state = process.step((4.0, 8.0), 1, random.Random(0))
        # new value ~ 0.5*4 + 0.25*8 = 4; window shifts to (4, 4.0_old)
        assert state[0] == pytest.approx(4.0, abs=1e-6)
        assert state[1] == 4.0

    def test_ar1_with_unit_coefficient_is_random_walk(self):
        process = ARProcess([1.0], sigma=1.0)
        rng = random.Random(5)
        path = simulate_path(process, 50, rng)
        increments = [b[0] - a[0] for a, b in zip(path, path[1:])]
        mean = sum(increments) / len(increments)
        assert abs(mean) < 0.6  # zero-mean Gaussian increments

    def test_stationary_ar1_mean_reverts(self):
        process = ARProcess([0.5], sigma=0.5, initial_values=[10.0])
        rng = random.Random(7)
        finals = [simulate_path(process, 30, rng)[-1][0]
                  for _ in range(300)]
        mean = sum(finals) / len(finals)
        assert abs(mean) < 0.2  # 10 * 0.5^30 ~ 0 plus noise

    def test_current_value_z(self):
        assert ARProcess.current_value((3.5, 1.0)) == 3.5

    def test_impulse_hits_latest_value_only(self):
        process = ARProcess([0.5, 0.3])
        assert process.apply_impulse((1.0, 2.0), 5.0) == (6.0, 2.0)


class TestGaussianProtocol:
    def test_step_with_noise_deterministic(self):
        process = ARProcess([0.5, 0.25], initial_values=[4.0, 8.0])
        state = process.step_with_noise((4.0, 8.0), 1.0)
        assert state[0] == pytest.approx(0.5 * 4 + 0.25 * 8 + 1.0)

    def test_noise_sigma(self):
        assert ARProcess([0.5], sigma=2.5).noise_sigma() == 2.5

    def test_matches_step_under_same_draws(self):
        process = ARProcess([0.7], sigma=1.3)
        rng = random.Random(9)
        stepped = process.step((2.0,), 1, rng)
        rng = random.Random(9)
        noise = rng.gauss(0.0, 1.3)
        assert stepped[0] == pytest.approx(
            process.step_with_noise((2.0,), noise)[0])
