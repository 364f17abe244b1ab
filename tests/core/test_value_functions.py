"""Tests for value functions and durability query construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.value_functions import (TARGET_VALUE, DurabilityQuery,
                                        ThresholdValueFunction)
from repro.processes.random_walk import RandomWalkProcess

from ..helpers import ScriptedProcess, identity_z


class TestThresholdValueFunction:
    def test_below_threshold_is_ratio(self):
        f = ThresholdValueFunction(identity_z, beta=10.0)
        assert f(2.5, 0) == pytest.approx(0.25)

    def test_at_threshold_is_one(self):
        f = ThresholdValueFunction(identity_z, beta=10.0)
        assert f(10.0, 3) == TARGET_VALUE

    def test_above_threshold_clamps_to_one(self):
        f = ThresholdValueFunction(identity_z, beta=10.0)
        assert f(25.0, 1) == TARGET_VALUE

    def test_negative_values_clamp_to_zero(self):
        f = ThresholdValueFunction(identity_z, beta=10.0)
        assert f(-3.0, 1) == 0.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ThresholdValueFunction(identity_z, beta=0.0)
        with pytest.raises(ValueError):
            ThresholdValueFunction(identity_z, beta=-1.0)

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.1, max_value=40))
    def test_range_is_unit_interval(self, value, beta):
        f = ThresholdValueFunction(identity_z, beta=beta)
        assert 0.0 <= f(value, 0) <= 1.0

    @given(st.floats(min_value=0.1, max_value=40))
    def test_one_iff_threshold_met(self, beta):
        """The paper's requirement: f = 1 iff q = 1."""
        f = ThresholdValueFunction(identity_z, beta=beta)
        assert f(beta, 0) == TARGET_VALUE
        assert f(beta * 0.999, 0) < TARGET_VALUE

    def test_repr_mentions_beta(self):
        f = ThresholdValueFunction(identity_z, beta=7.0)
        assert "7.0" in repr(f)


def value_space_levels(bounds, beta, z):
    """The score rule: ``hit = values >= 1`` is level ``m``, otherwise
    ``searchsorted(bounds, values, "right")`` of ``values = clip(z /
    beta, 0, 1)``."""
    values = np.clip(np.asarray(z, dtype=np.float64) / beta, 0.0,
                     TARGET_VALUE)
    levels = np.searchsorted(np.asarray(bounds, dtype=np.float64), values,
                             side="right")
    return np.where(values >= TARGET_VALUE, len(bounds) + 1, levels)


class TestZBoundaries:
    """Raw ``z`` against :meth:`ThresholdValueFunction.z_boundaries`
    classifies exactly as the score ``min(z / beta, 1)`` does."""

    @settings(max_examples=300)
    @given(beta=st.floats(min_value=5e-324, max_value=1e300),
           level=st.floats(min_value=1e-12, max_value=1.0))
    def test_each_boundary_is_the_least_float_reaching_its_level(
            self, beta, level):
        f = ThresholdValueFunction(identity_z, beta=beta)
        (edge,) = f.z_boundaries([level])
        assert edge / np.float64(beta) >= level
        assert np.nextafter(edge, -np.inf) / np.float64(beta) < level

    def test_chain_state_on_its_boundary(self):
        """Chain state 3 against boundary 3/13 at beta = 13: the state
        reaches the level, as its score 3/13 does."""
        f = ThresholdValueFunction(identity_z, beta=13.0)
        (edge,) = f.z_boundaries([3 / 13])
        assert edge <= 3.0
        assert np.nextafter(edge, -np.inf) / 13.0 < 3 / 13
        assert value_space_levels([3 / 13], 13.0, [3.0]).tolist() == [1]

    @pytest.mark.parametrize("beta", [7.0, 12.0, 13.0, 17.0, 49.0])
    def test_walk_positions_on_lattice_boundaries(self, beta):
        """Walk position ``k`` against boundary ``k / beta``: every
        lattice position classifies as its score does."""
        bounds = [k / beta for k in range(1, int(beta))]
        f = ThresholdValueFunction(identity_z, beta=beta)
        edges = f.z_boundaries(bounds + [TARGET_VALUE])
        positions = np.arange(-2.0, beta + 3.0)
        assert np.array_equal(np.searchsorted(edges, positions, "right"),
                              value_space_levels(bounds, beta, positions))
        assert (edges <= np.arange(1.0, beta + 1.0)).all()

    @settings(max_examples=200)
    @given(beta=st.floats(min_value=1e-6, max_value=1e6),
           bounds=st.lists(st.floats(min_value=1e-4, max_value=0.9999),
                           max_size=5, unique=True))
    def test_classification_equals_the_score_rule(self, beta, bounds):
        """At every boundary, its float neighbours, ``b * beta``, beta,
        and at +-0 and +-inf."""
        bounds = sorted(bounds)
        f = ThresholdValueFunction(identity_z, beta=beta)
        edges = f.z_boundaries(bounds + [TARGET_VALUE])
        z = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.asarray(bounds) * beta, [beta, 0.0, -0.0, np.inf, -np.inf]])
        assert np.array_equal(np.searchsorted(edges, z, "right"),
                              value_space_levels(bounds, beta, z))

    @pytest.mark.parametrize("level", [0.0, -0.5])
    def test_rejects_non_positive_levels(self, level):
        with pytest.raises(ValueError, match="positive"):
            ThresholdValueFunction(identity_z, beta=2.0).z_boundaries(
                [level])


class TestDurabilityQuery:
    def test_threshold_constructor(self):
        process = RandomWalkProcess()
        query = DurabilityQuery.threshold(
            process, RandomWalkProcess.position, beta=5.0, horizon=20)
        assert query.horizon == 20
        assert query.process is process

    def test_satisfied_follows_value_function(self):
        process = ScriptedProcess([1.0])
        query = DurabilityQuery.threshold(process, identity_z, beta=2.0,
                                          horizon=5)
        assert not query.satisfied(1.0, 1)
        assert query.satisfied(2.0, 1)
        assert query.satisfied(3.0, 1)

    def test_initial_value(self):
        process = ScriptedProcess([1.0], initial=1.0)
        query = DurabilityQuery.threshold(process, identity_z, beta=4.0,
                                          horizon=5)
        assert query.initial_value() == pytest.approx(0.25)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_rejects_nonpositive_horizon(self, horizon):
        with pytest.raises(ValueError):
            DurabilityQuery.threshold(ScriptedProcess([1.0]), identity_z,
                                      beta=1.0, horizon=horizon)

    def test_custom_value_function(self):
        def value_fn(state, t):
            return 0.5 if t < 3 else 1.0

        query = DurabilityQuery(ScriptedProcess([0.0]), value_fn, horizon=5)
        assert not query.satisfied(0.0, 2)
        assert query.satisfied(0.0, 3)
