"""Tests for the random walk processes."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic import random_walk_hitting_probability
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes.base import FusedBatch, simulate_path
from repro.processes.random_walk import (GaussianWalkProcess,
                                         RandomWalkProcess)

from ..helpers import assert_close_to


class TestRandomWalkProcess:
    def test_pure_up_walk(self):
        process = RandomWalkProcess(p_up=1.0, p_down=0.0)
        path = simulate_path(process, 5, random.Random(0))
        assert path == [0, 1, 2, 3, 4, 5]

    def test_default_is_symmetric_two_sided(self):
        process = RandomWalkProcess(p_up=0.5)
        assert process.p_down == 0.5

    def test_lazy_walk_can_stay(self):
        process = RandomWalkProcess(p_up=0.2, p_down=0.2)
        path = simulate_path(process, 200, random.Random(1))
        stays = sum(1 for a, b in zip(path, path[1:]) if a == b)
        assert stays > 0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            RandomWalkProcess(p_up=0.7, p_down=0.5)
        with pytest.raises(ValueError):
            RandomWalkProcess(p_up=-0.1)

    @pytest.mark.parametrize("param", ["p_up", "p_down", "start"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, param, value):
        params = {"p_up": 0.5, "p_down": 0.4, param: value}
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            RandomWalkProcess(**params)

    def test_position_z(self):
        assert RandomWalkProcess.position(7) == 7.0

    def test_impulse_shifts_position(self):
        process = RandomWalkProcess()
        assert process.apply_impulse(3, 4.0) == 7

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.2, max_value=0.6),
           st.integers(min_value=2, max_value=5))
    def test_agrees_with_analytic_oracle(self, p_up, threshold):
        """SRS on the walk matches the exact DP hitting probability."""
        process = RandomWalkProcess(p_up=p_up)
        horizon = 12
        query = DurabilityQuery.threshold(
            process, RandomWalkProcess.position, beta=float(threshold),
            horizon=horizon)
        exact = random_walk_hitting_probability(
            p_up, threshold, horizon, p_down=process.p_down)
        estimate = SRSSampler().run(query, max_roots=3000, seed=11)
        # The tolerance is on the oracle's scale: the run's own standard
        # error is 0 when it sees no hits, which a rare threshold allows.
        oracle_error = math.sqrt(exact * (1.0 - exact) / estimate.n_roots)
        assert_close_to(estimate.probability, exact, oracle_error)


class TestGaussianWalkProcess:
    def test_drift_moves_the_mean(self):
        process = GaussianWalkProcess(drift=0.5, sigma=0.001)
        path = simulate_path(process, 100, random.Random(2))
        assert path[-1] == pytest.approx(50.0, abs=1.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianWalkProcess(sigma=0.0)

    @pytest.mark.parametrize("param", ["drift", "sigma", "start"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, param, value):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            GaussianWalkProcess(**{param: value})

    def test_impulse(self):
        process = GaussianWalkProcess()
        assert process.apply_impulse(1.0, 2.5) == 3.5

    def test_variance_accumulates(self):
        process = GaussianWalkProcess(drift=0.0, sigma=1.0)
        rng = random.Random(4)
        finals = [simulate_path(process, 25, rng)[-1] for _ in range(400)]
        mean = sum(finals) / len(finals)
        var = sum((v - mean) ** 2 for v in finals) / (len(finals) - 1)
        assert var == pytest.approx(25.0, rel=0.25)


def nested_where_moves(u, p_up, p_down, up, down, stay):
    """The reference move encoding: +1 below ``p_up``, -1 below
    ``p_up + p_down``, else 0, as nested ``np.where``."""
    return np.where(u < p_up, up, np.where(u < p_up + p_down, down, stay))


def boundary_draws(p_up, p_down):
    """Uniform draws at, just below and just above every move edge,
    plus ordinary draws."""
    edges = np.array([0.0, p_up, p_up + p_down])
    return np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, 1.0),
                           np.random.default_rng(3).random(64)])


class TestMoves:
    """The walk's arithmetic moves equal the nested ``np.where`` form:
    same dtype, same values and, for fused float moves, the same sign
    of zero — with ``u`` exactly at ``p_up`` and ``p_up + p_down``."""

    @pytest.mark.parametrize("p_up,p_down", [(0.25, 0.5), (0.35, 0.45),
                                             (0.0, 1.0), (1.0, 0.0)])
    def test_moves_match_nested_where(self, p_up, p_down):
        process = RandomWalkProcess(p_up=p_up, p_down=p_down)
        u = boundary_draws(p_up, p_down)
        for draws in (u, np.stack([u, u[::-1]])):
            moves = process._moves(draws)
            reference = nested_where_moves(draws, p_up, p_down, 1, -1, 0)
            assert moves.dtype == reference.dtype
            assert np.array_equal(moves, reference)

    def test_fused_moves_match_nested_where(self):
        members = [RandomWalkProcess(p_up=0.25, p_down=0.5),
                   RandomWalkProcess(p_up=0.35, p_down=0.45),
                   RandomWalkProcess(p_up=0.0, p_down=1.0)]
        params = FusedBatch(members).row_params(np.arange(3))
        # Column i holds row i's edge draws: a (width, rows) block.
        block = np.stack([boundary_draws(m.p_up, m.p_down)
                          for m in members], axis=1)
        for draws in (block, *block):
            moves = RandomWalkProcess._fused_moves(params, draws)
            reference = nested_where_moves(draws, params["p_up"],
                                           params["p_down"], 1.0, -1.0, 0.0)
            assert moves.dtype == reference.dtype
            assert np.array_equal(moves, reference)
            assert np.array_equal(np.signbit(moves), np.signbit(reference))


WALKS = [RandomWalkProcess(p_up=0.45, p_down=0.4, start=2),
         GaussianWalkProcess(drift=0.05, sigma=1.3, start=0.5)]


def stacked_steps(step, states, t, width, rng):
    """``width`` successive one-step calls, stacked time-major."""
    frames = []
    for i in range(width):
        states = step(states.copy(), t + i, rng)
        frames.append(states)
    return np.stack(frames)


@pytest.mark.parametrize("process", WALKS,
                         ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("width", [1, 7])
class TestBlockContract:
    """A block of ``width`` steps is ``width`` stacked one-step calls on
    a generator in the same state: same values, same dtype, and the
    generator left in the same state."""

    def test_step_block_is_stacked_step_batch(self, process, width):
        states = process.initial_states(300)
        block_rng = np.random.default_rng(5)
        steps_rng = np.random.default_rng(5)
        block = process.step_block(states, 1, width, block_rng)
        steps = stacked_steps(process.step_batch, states, 1, width,
                              steps_rng)
        assert block.dtype == steps.dtype
        assert np.array_equal(block, steps)
        assert block_rng.random() == steps_rng.random()

    def test_fused_step_block_is_stacked_fused_step_batch(self, process,
                                                          width):
        members = [process, type(process)(**{
            name: value * 0.9 for name, value
            in process.fusion_params().items()})]
        fused = FusedBatch(members)
        owners = np.repeat([0, 1], [150, 150])
        params = fused.row_params(owners)
        states = fused.initial_core_rows(owners)
        block_rng = np.random.default_rng(9)
        steps_rng = np.random.default_rng(9)
        block = process.fused_step_block(params, states, 1, width,
                                         block_rng)

        def fused_step(rows, t, rng):
            return process.fused_step_batch(params, rows, t, rng)

        steps = stacked_steps(fused_step, states, 1, width, steps_rng)
        assert np.array_equal(block, steps)
        assert block_rng.random() == steps_rng.random()
