"""Tests for the from-scratch statistical helpers."""

import math
from statistics import NormalDist

import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (critical_value, normal_cdf, normal_quantile,
                              sample_mean, sample_variance)


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_classic_95_percent_value(self):
        assert critical_value(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_classic_99_percent_value(self):
        assert critical_value(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize("p", [1e-9, 1e-5, 0.01, 0.2, 0.5, 0.8, 0.99,
                                   1 - 1e-5, 1 - 1e-9])
    def test_matches_stdlib_across_range(self, p):
        assert normal_quantile(p) == pytest.approx(
            NormalDist().inv_cdf(p), abs=2e-8, rel=2e-8)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(
                -normal_quantile(1.0 - p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_is_inverse_of_cdf(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-7)


class TestNormalCdf:
    def test_standard_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)
        assert normal_cdf(-1.96) == pytest.approx(0.025, abs=1e-3)

    @given(st.floats(min_value=-6, max_value=6))
    def test_monotone_and_bounded(self, x):
        value = normal_cdf(x)
        assert 0.0 <= value <= 1.0
        assert normal_cdf(x + 0.5) >= value


class TestCriticalValue:
    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_invalid_confidence(self, confidence):
        with pytest.raises(ValueError):
            critical_value(confidence)

    def test_monotone_in_confidence(self):
        assert critical_value(0.99) > critical_value(0.95) > critical_value(0.5)


class TestSampleMoments:
    def test_mean(self):
        assert sample_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            sample_mean([])

    def test_variance_matches_definition(self):
        values = [1.0, 2.0, 4.0, 8.0]
        mean = sum(values) / 4
        expected = sum((v - mean) ** 2 for v in values) / 3
        assert sample_variance(values) == pytest.approx(expected)

    def test_variance_of_singleton_is_zero(self):
        assert sample_variance([5.0]) == 0.0
        assert sample_variance([]) == 0.0

    @given(st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=2, max_size=30))
    def test_variance_nonnegative(self, values):
        assert sample_variance(values) >= -1e-9

    def test_variance_invariant_to_shift(self):
        values = [1.0, 5.0, 9.0, 2.0]
        shifted = [v + 1000.0 for v in values]
        assert sample_variance(values) == pytest.approx(
            sample_variance(shifted), rel=1e-9)
