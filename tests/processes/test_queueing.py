"""Tests for the tandem queue model (Section 6, model 1)."""

import math
import random

import pytest

from repro.processes.base import simulate_path
from repro.processes.queueing import TandemQueueProcess


class TestConstruction:
    def test_paper_defaults(self):
        queue = TandemQueueProcess()
        assert queue.arrival_rate == 0.5
        assert queue.mean_service1 == 2.0
        assert queue.mean_service2 == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"arrival_rate": 0.0}, {"mean_service1": 0.0},
        {"mean_service2": -1.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TandemQueueProcess(**kwargs)

    @pytest.mark.parametrize("param", ["arrival_rate", "mean_service1",
                                       "mean_service2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            TandemQueueProcess(**{param: value})

    @pytest.mark.parametrize("param", ["mean_service1", "mean_service2"])
    def test_subnormal_mean_service_time_rejected(self, param):
        """``1 / 1e-310`` is an infinite service rate, under which the
        Gillespie clock never advances past a busy station."""
        with pytest.raises(ValueError, match=f"1 / {param} must be finite"):
            TandemQueueProcess(**{param: 1e-310})

    def test_starts_empty(self):
        assert TandemQueueProcess().initial_state() == (0, 0)


class TestDynamics:
    def test_counts_stay_nonnegative(self):
        queue = TandemQueueProcess()
        path = simulate_path(queue, 300, random.Random(1))
        assert all(n1 >= 0 and n2 >= 0 for n1, n2 in path)

    def test_queue2_only_fed_by_queue1(self):
        """Queue 2 can only grow when Queue 1 serves someone, so within
        one unit step its growth is bounded by queue 1's prior backlog
        plus fresh arrivals that passed through."""
        queue = TandemQueueProcess()
        rng = random.Random(2)
        state = (0, 0)
        for t in range(1, 300):
            n1_before, n2_before = state
            state = queue.step(state, t, rng)
            growth = state[1] - n2_before
            assert growth <= n1_before + 25  # 25 arrivals/unit ~ impossible

    def test_arrival_rate_drives_total_inflow(self):
        queue = TandemQueueProcess(arrival_rate=0.5, mean_service1=1e9,
                                   mean_service2=1e9)
        # Service effectively disabled: queue 1 is a pure Poisson counter.
        rng = random.Random(3)
        totals = []
        for _ in range(200):
            state = (0, 0)
            for t in range(1, 41):
                state = queue.step(state, t, rng)
            totals.append(state[0])
        mean = sum(totals) / len(totals)
        assert mean == pytest.approx(0.5 * 40, rel=0.15)

    def test_critical_load_backlog_grows_diffusively(self):
        """At utilisation 1 the backlog should reach tens of customers
        within 500 units — the regime Table 2's thresholds live in."""
        queue = TandemQueueProcess()
        rng = random.Random(4)
        maxima = []
        for _ in range(60):
            state = (0, 0)
            best = 0
            for t in range(1, 501):
                state = queue.step(state, t, rng)
                best = max(best, state[1])
            maxima.append(best)
        assert max(maxima) >= 20
        assert sum(m >= 10 for m in maxima) > len(maxima) // 2

    def test_stable_queue_stays_small(self):
        queue = TandemQueueProcess(arrival_rate=0.5, mean_service1=0.5,
                                   mean_service2=0.5)
        rng = random.Random(5)
        state = (0, 0)
        peak = 0
        for t in range(1, 501):
            state = queue.step(state, t, rng)
            peak = max(peak, state[1])
        assert peak < 12  # utilisation 0.25: large backlogs are absurd


class TestStateEvaluations:
    def test_z_functions(self):
        assert TandemQueueProcess.queue2_length((3, 7)) == 7.0
        assert TandemQueueProcess.queue1_length((3, 7)) == 3.0
        assert TandemQueueProcess.total_customers((3, 7)) == 10.0

    def test_impulse_adds_to_queue2(self):
        queue = TandemQueueProcess()
        assert queue.apply_impulse((2, 3), 5) == (2, 8)

    def test_impulse_clamps_at_zero(self):
        queue = TandemQueueProcess()
        assert queue.apply_impulse((2, 3), -10) == (2, 0)

    def test_reproducible_under_seed(self):
        queue = TandemQueueProcess()
        a = simulate_path(queue, 100, random.Random(6))
        b = simulate_path(queue, 100, random.Random(6))
        assert a == b
