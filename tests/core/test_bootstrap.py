"""Tests for the bootstrap variance estimator (Section 4.2)."""

import random

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_variance
from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import (gmlss_pi_hat_rows, gmlss_point_estimate,
                              gmlss_prefix_estimates)
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


def replicate_prefixes(aggregate, ratios, n_boot, seed):
    """Each bootstrap replicate refolded the slow way.

    Replays the bootstrap's resampling stream, rebuilds every resampled
    forest root by root, and folds it through
    :func:`gmlss_prefix_estimates`.  Returns the ``(n_boot, m)``
    replicate prefixes.
    """
    rng = np.random.default_rng(seed)
    replicates = np.empty((n_boot, aggregate.num_levels))
    for b in range(n_boot):
        resampled = ForestAggregate(aggregate.num_levels)
        for k in rng.integers(0, aggregate.n_roots, size=aggregate.n_roots):
            record = RootRecord(aggregate.num_levels)
            record.hits = aggregate.root_hits[k]
            record.landings = aggregate.root_landings[k]
            record.skips = aggregate.root_skips[k]
            record.crossings = aggregate.root_crossings[k]
            resampled.add(record)
        replicates[b] = gmlss_prefix_estimates(resampled, ratios)
    return replicates


class TestVectorizedReplicateFold:
    """The one-shot gather + fold must reproduce the per-replicate
    fold of each resampled forest (same resampling stream, same
    estimator values)."""

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
        aggregate = self.synthetic_aggregate()
        ratios = normalize_ratios(3, aggregate.num_levels)
        variances = bootstrap_variance(aggregate, ratios, n_boot=60,
                                       seed=11)
        replicates = replicate_prefixes(aggregate, ratios, 60, seed=11)
        assert variances[-1] == pytest.approx(replicates[:, -1].var(),
                                              abs=1e-12)

    def test_curve_variances_match_scalar_prefix_fold(self):
        aggregate = self.synthetic_aggregate(seed=3)
        ratios = normalize_ratios(3, aggregate.num_levels)
        variances = bootstrap_variance(aggregate, ratios, n_boot=40,
                                       seed=13)
        replicates = replicate_prefixes(aggregate, ratios, 40, seed=13)
        assert variances.shape == (aggregate.num_levels,)
        assert variances.tolist() == replicates.var(axis=0).tolist()

    def test_row_fold_handles_dead_levels(self):
        """Rows that never reach a level fold to a zero estimate: a
        zero denominator is a zero factor, and zeroes every later
        prefix."""
        factors = gmlss_pi_hat_rows(
            landings=[[0, 2, 0], [0, 0, 1]],
            skips=[[0, 0, 0], [0, 0, 0]],
            crossings=[[0, 5, 0], [0, 0, 0]],
            hits=[1.0, 1.0], n_roots=10.0, ratios=(1, 3, 3))
        assert factors.tolist() == [[0.2, 5 / 6, 0.0], [0.0, 0.0, 0.0]]
        assert np.cumprod(factors, axis=1)[:, -1].tolist() == [0.0, 0.0]


class TestBootstrapBasics:
    def test_too_few_roots_gives_zero_variance(self):
        aggregate = srs_like_aggregate([1])
        assert bootstrap_variance(aggregate, (1,), seed=0).tolist() == [0.0]

    def test_matches_binomial_variance_on_srs_aggregate(self):
        """With one level the bootstrap must agree with p(1-p)/n."""
        rng = random.Random(5)
        flags = [rng.random() < 0.3 for _ in range(400)]
        aggregate = srs_like_aggregate(flags)
        p_hat = aggregate.hits / aggregate.n_roots
        expected = p_hat * (1.0 - p_hat) / aggregate.n_roots
        variances = bootstrap_variance(aggregate, (1,), n_boot=600, seed=1)
        assert variances[-1] == pytest.approx(expected, rel=0.25)

    def test_bootstrap_mean_near_point_estimate(self, small_chain_query,
                                                small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 600, seed=3)
        point = gmlss_point_estimate(aggregate, ratios)
        replicates = replicate_prefixes(aggregate, ratios, 400, seed=2)
        assert replicates[:, -1].mean() == pytest.approx(point, rel=0.15)

    def test_variance_shrinks_with_more_roots(self, small_chain_query,
                                              small_chain_partition):
        small, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 200, seed=7)
        large, _ = chain_aggregate(
            small_chain_query, small_chain_partition, 1600, seed=7)
        var_small = bootstrap_variance(small, ratios, seed=4)[-1]
        var_large = bootstrap_variance(large, ratios, seed=4)[-1]
        assert var_large < var_small

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 300, seed=9)
        first = bootstrap_variance(aggregate, ratios, seed=11)
        second = bootstrap_variance(aggregate, ratios, seed=11)
        assert np.array_equal(first, second)

    def test_rejects_bad_parameters(self, small_chain_query,
                                    small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 50, seed=17)
        with pytest.raises(ValueError):
            bootstrap_variance(aggregate, ratios, n_boot=1)


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
                                    seed=1)[-1]
        # Same order of magnitude is the contract (one run's bootstrap
        # cannot match the ensemble exactly).
        assert booted == pytest.approx(empirical, rel=0.9)
