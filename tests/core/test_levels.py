"""Tests for level partitions and splitting-ratio normalisation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.levels import (LevelPartition, normalize_ratios,
                               uniform_partition)

boundaries_strategy = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=0, max_size=8,
    unique=True)


class TestLevelPartitionStructure:
    def test_empty_partition_has_one_level(self):
        plan = LevelPartition()
        assert plan.num_levels == 1
        assert plan.target_level == 1

    def test_num_levels_counts_boundaries(self):
        plan = LevelPartition([0.3, 0.6])
        assert plan.num_levels == 3
        assert plan.target_level == 3

    def test_boundaries_are_sorted(self):
        plan = LevelPartition([0.7, 0.2, 0.5])
        assert plan.boundaries == (0.2, 0.5, 0.7)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundaries_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            LevelPartition([bad])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            LevelPartition([0.4, 0.4])

    def test_equality_and_hash(self):
        assert LevelPartition([0.3, 0.6]) == LevelPartition([0.6, 0.3])
        assert hash(LevelPartition([0.3])) == hash(LevelPartition([0.3]))
        assert LevelPartition([0.3]) != LevelPartition([0.4])

    def test_len_and_iter(self):
        plan = LevelPartition([0.2, 0.8])
        assert len(plan) == 2
        assert list(plan) == [0.2, 0.8]


class TestLevelOf:
    def test_partitioning_of_the_unit_interval(self):
        plan = LevelPartition([0.4, 0.8])
        assert plan.level_of(0.0) == 0
        assert plan.level_of(0.39) == 0
        assert plan.level_of(0.4) == 1  # boundary belongs to upper level
        assert plan.level_of(0.79) == 1
        assert plan.level_of(0.8) == 2
        assert plan.level_of(0.99) == 2
        assert plan.level_of(1.0) == 3  # the target level
        assert plan.level_of(1.7) == 3

    def test_empty_partition_maps_to_level_zero_or_target(self):
        plan = LevelPartition()
        assert plan.level_of(0.999) == 0
        assert plan.level_of(1.0) == 1

    @given(boundaries_strategy,
           st.floats(min_value=-0.5, max_value=1.5))
    def test_level_of_respects_boundaries(self, bounds, value):
        plan = LevelPartition(bounds)
        level = plan.level_of(value)
        assert 0 <= level <= plan.num_levels
        if level < plan.num_levels:
            assert value < 1.0
            assert plan.lower_boundary(level) <= value or level == 0
            assert value < plan.lower_boundary(level + 1)
        else:
            assert value >= 1.0

    @given(boundaries_strategy)
    def test_levels_cover_interval_monotonically(self, bounds):
        plan = LevelPartition(bounds)
        probes = sorted([0.0, 0.5, 0.9999, 1.0]
                        + [b for b in plan.boundaries]
                        + [b - 1e-9 for b in plan.boundaries])
        levels = [plan.level_of(max(p, 0.0)) for p in probes]
        assert levels == sorted(levels)


class TestBoundaryAccessors:
    def test_lower_boundaries(self):
        plan = LevelPartition([0.4, 0.8])
        assert plan.lower_boundary(0) == 0.0
        assert plan.lower_boundary(1) == 0.4
        assert plan.lower_boundary(2) == 0.8
        assert plan.lower_boundary(3) == 1.0

    def test_lower_boundary_rejects_out_of_range(self):
        plan = LevelPartition([0.4])
        with pytest.raises(ValueError):
            plan.lower_boundary(-1)
        with pytest.raises(ValueError):
            plan.lower_boundary(3)

    def test_level_interval(self):
        plan = LevelPartition([0.4, 0.8])
        assert plan.level_interval(0) == (0.0, 0.4)
        assert plan.level_interval(1) == (0.4, 0.8)
        assert plan.level_interval(2) == (0.8, 1.0)


class TestPlanEditing:
    def test_with_boundary(self):
        plan = LevelPartition([0.5]).with_boundary(0.25)
        assert plan.boundaries == (0.25, 0.5)

    def test_with_existing_boundary_raises(self):
        with pytest.raises(ValueError):
            LevelPartition([0.5]).with_boundary(0.5)

    def test_without_boundary(self):
        plan = LevelPartition([0.25, 0.5]).without_boundary(0.25)
        assert plan.boundaries == (0.5,)

    def test_without_missing_boundary_raises(self):
        with pytest.raises(ValueError):
            LevelPartition([0.5]).without_boundary(0.25)

    def test_pruned_above(self):
        plan = LevelPartition([0.1, 0.3, 0.7]).pruned_above(0.3)
        assert plan.boundaries == (0.7,)

    @given(boundaries_strategy,
           st.floats(min_value=0.0, max_value=1.0))
    def test_pruned_boundaries_all_exceed_value(self, bounds, cut):
        plan = LevelPartition(bounds).pruned_above(cut)
        assert all(b > cut for b in plan.boundaries)


class TestUniformPartition:
    def test_four_levels(self):
        plan = uniform_partition(4)
        assert plan.boundaries == pytest.approx((0.25, 0.5, 0.75))

    def test_single_level_is_empty(self):
        assert uniform_partition(1).boundaries == ()

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            uniform_partition(0)


class TestNormalizeRatios:
    def test_scalar_ratio_expands(self):
        assert normalize_ratios(3, 4) == (1, 3, 3, 3)

    def test_scalar_for_single_level(self):
        assert normalize_ratios(5, 1) == (1,)

    def test_numpy_integer_scalar_expands_to_ints(self):
        import numpy as np

        ratios = normalize_ratios(np.int64(3), 3)
        assert ratios == (1, 3, 3)
        assert all(type(r) is int for r in ratios)

    def test_per_level_sequence(self):
        assert normalize_ratios([2, 3, 4], 4) == (1, 2, 3, 4)

    def test_idempotent_on_normalized(self):
        normalized = normalize_ratios(3, 4)
        assert normalize_ratios(normalized, 4) == normalized

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            normalize_ratios([2, 3], 4)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_scalar(self, bad):
        with pytest.raises(ValueError):
            normalize_ratios(bad, 3)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            normalize_ratios([2, 0], 3)
