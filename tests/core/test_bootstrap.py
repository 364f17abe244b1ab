"""Tests for the bootstrap variance estimator (Section 4.2)."""

import random

import numpy as np
import pytest

from repro.core.bootstrap import BootstrapResult, bootstrap_variance
from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import gmlss_point_estimate
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.records import ForestAggregate, RootRecord


def srs_like_aggregate(hit_flags):
    """An aggregate with no levels: per-root hits are Bernoulli labels."""
    aggregate = ForestAggregate(1)
    for flag in hit_flags:
        record = RootRecord(1)
        record.hits = int(flag)
        aggregate.add(record)
    return aggregate


def chain_aggregate(query, partition, n_roots, seed):
    ratios = normalize_ratios(3, partition.num_levels)
    runner = VectorizedForestRunner(query, partition, ratios,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(n_roots))
    return aggregate, ratios


class TestVectorizedReplicateFold:
    """The one-shot gather + fold must reproduce the per-replicate
    scalar fold (same resampling stream, same estimator values)."""

    def synthetic_aggregate(self, n_roots=200, num_levels=4, seed=0):
        rng = random.Random(seed)
        aggregate = ForestAggregate(num_levels)
        for _ in range(n_roots):
            record = RootRecord(num_levels)
            record.hits = rng.randrange(3)
            for i in range(1, num_levels):
                record.landings[i] = rng.randrange(4)
                record.skips[i] = rng.randrange(2)
                record.crossings[i] = rng.randrange(6)
            aggregate.add(record)
        return aggregate

    def test_estimates_match_scalar_fold_per_replicate(self):
        from repro.core.gmlss import gmlss_estimate_from_totals

        aggregate = self.synthetic_aggregate()
        ratios = normalize_ratios(3, aggregate.num_levels)
        result = bootstrap_variance(aggregate, ratios, n_boot=60, seed=11)
        landings, skips, crossings, hits = aggregate.per_root_matrices()
        rng = np.random.default_rng(11)
        for b in range(60):
            idx = rng.integers(0, aggregate.n_roots,
                               size=aggregate.n_roots)
            expected = gmlss_estimate_from_totals(
                landings[idx].sum(axis=0), skips[idx].sum(axis=0),
                crossings[idx].sum(axis=0), float(hits[idx].sum()),
                float(aggregate.n_roots), ratios)
            assert result.estimates[b] == pytest.approx(expected,
                                                        abs=1e-12)

    def test_curve_variances_match_scalar_prefix_fold(self):
        from repro.core.bootstrap import bootstrap_curve_variances
        from repro.core.gmlss import gmlss_prefix_estimates_from_totals

        aggregate = self.synthetic_aggregate(seed=3)
        ratios = normalize_ratios(3, aggregate.num_levels)
        variances = bootstrap_curve_variances(aggregate, ratios,
                                              n_boot=40, seed=13)
        landings, skips, crossings, hits = aggregate.per_root_matrices()
        rng = np.random.default_rng(13)
        replicates = np.empty((40, aggregate.num_levels))
        for b in range(40):
            idx = rng.integers(0, aggregate.n_roots,
                               size=aggregate.n_roots)
            replicates[b] = gmlss_prefix_estimates_from_totals(
                landings[idx].sum(axis=0), skips[idx].sum(axis=0),
                crossings[idx].sum(axis=0), float(hits[idx].sum()),
                float(aggregate.n_roots), ratios)
        assert variances == pytest.approx(replicates.var(axis=0),
                                          abs=1e-12)

    def test_row_fold_handles_dead_levels(self):
        """Replicates that never reach a level fold to a zero estimate,
        exactly like the scalar early return."""
        from repro.core.gmlss import gmlss_estimates_from_total_rows

        estimates = gmlss_estimates_from_total_rows(
            landings=[[0, 2, 0], [0, 0, 1]],
            skips=[[0, 0, 0], [0, 0, 0]],
            crossings=[[0, 5, 0], [0, 0, 0]],
            hits=[1.0, 1.0], n_roots=10.0, ratios=(1, 3, 3))
        assert estimates.tolist() == [0.0, 0.0]


class TestBootstrapBasics:
    def test_too_few_roots_gives_zero_variance(self):
        aggregate = srs_like_aggregate([1])
        result = bootstrap_variance(aggregate, (1,), seed=0)
        assert result.variance == 0.0
        assert result.estimates.size == 0

    def test_matches_binomial_variance_on_srs_aggregate(self):
        """With one level the bootstrap must agree with p(1-p)/n."""
        rng = random.Random(5)
        flags = [rng.random() < 0.3 for _ in range(400)]
        aggregate = srs_like_aggregate(flags)
        p_hat = aggregate.hits / aggregate.n_roots
        expected = p_hat * (1.0 - p_hat) / aggregate.n_roots
        result = bootstrap_variance(aggregate, (1,), n_boot=600, seed=1)
        assert result.variance == pytest.approx(expected, rel=0.25)

    def test_bootstrap_mean_near_point_estimate(self, small_chain_query,
                                                small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 600, seed=3)
        point = gmlss_point_estimate(aggregate, ratios)
        result = bootstrap_variance(aggregate, ratios, n_boot=400, seed=2)
        assert result.mean == pytest.approx(point, rel=0.15)

    def test_variance_shrinks_with_more_roots(self, small_chain_query,
                                              small_chain_partition):
        small, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 200, seed=7)
        large, _ = chain_aggregate(
            small_chain_query, small_chain_partition, 1600, seed=7)
        var_small = bootstrap_variance(small, ratios, seed=4).variance
        var_large = bootstrap_variance(large, ratios, seed=4).variance
        assert var_large < var_small

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 300, seed=9)
        first = bootstrap_variance(aggregate, ratios, seed=11)
        second = bootstrap_variance(aggregate, ratios, seed=11)
        assert np.array_equal(first.estimates, second.estimates)

    def test_subsampled_variance_rescaled(self, small_chain_query,
                                          small_chain_partition):
        """n_draw < n_roots estimates the same (full-sample) variance."""
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 800, seed=13)
        full = bootstrap_variance(aggregate, ratios, n_boot=500, seed=15)
        sub = bootstrap_variance(aggregate, ratios, n_boot=500, seed=15,
                                 n_draw=200)
        assert sub.variance == pytest.approx(full.variance, rel=0.6)

    def test_rejects_bad_parameters(self, small_chain_query,
                                    small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 50, seed=17)
        with pytest.raises(ValueError):
            bootstrap_variance(aggregate, ratios, n_boot=1)
        with pytest.raises(ValueError):
            bootstrap_variance(aggregate, ratios, n_draw=0)

    def test_result_std_error(self):
        result = BootstrapResult(variance=0.04, estimates=np.zeros(3))
        assert result.std_error == pytest.approx(0.2)


class TestBootstrapAgainstRepeatedRuns:
    def test_variance_calibrated_against_independent_runs(
            self, small_chain_query, small_chain_partition):
        """Bootstrap variance ~ empirical variance over independent runs."""
        estimates = []
        for seed in range(40):
            aggregate, ratios = chain_aggregate(
                small_chain_query, small_chain_partition, 150, seed=seed)
            estimates.append(gmlss_point_estimate(aggregate, ratios))
        empirical = float(np.var(estimates, ddof=1))

        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 150, seed=99)
        booted = bootstrap_variance(aggregate, ratios, n_boot=400,
                                    seed=1).variance
        # Same order of magnitude is the contract (one run's bootstrap
        # cannot match the ensemble exactly).
        assert booted == pytest.approx(empirical, rel=0.9)
