"""Tests for the one-pass curve machinery in the samplers and forest.

Covers the pieces under ``repro.engine.DurabilityEngine.durability_curve``:
SRS running-maxima passes, the MLSS prefix estimators, the shared
bootstrap, and the per-level max bookkeeping in the splitting forest.
Statistical checks run on the walk's native kernel and on its ``step``
definition (inside a ``ScalarFallback``), against the exact DP oracle.
"""

import numpy as np
import pytest

from repro.core.analytic import random_walk_hitting_probability
from repro.core.bootstrap import bootstrap_variance
from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import (GMLSSSampler, gmlss_point_estimate,
                              gmlss_prefix_estimates)
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.records import ForestAggregate
from repro.core.smlss import (SMLSSSampler, ratio_product,
                              smlss_prefix_estimates,
                              smlss_prefix_variances)
from repro.core.srs import SRSSampler, validate_curve_levels
from repro.core.value_functions import DurabilityQuery, threshold_grid
from repro.processes.random_walk import RandomWalkProcess

from ..helpers import ScriptedProcess, assert_close_to, scalar_only

THRESHOLDS = (4.0, 6.0, 8.0, 10.0)
HORIZON = 40


@pytest.fixture(scope="module")
def walk_query():
    walk = RandomWalkProcess(p_up=0.35, p_down=0.45)
    return DurabilityQuery.threshold(
        walk, RandomWalkProcess.position, beta=THRESHOLDS[-1],
        horizon=HORIZON)


def exact(threshold):
    return random_walk_hitting_probability(0.35, int(threshold), HORIZON,
                                           p_down=0.45)


class TestThresholdGrid:
    def test_sorts_and_normalizes(self):
        betas, levels = threshold_grid([10.0, 4.0, 6.0])
        assert betas == (4.0, 6.0, 10.0)
        assert levels == (0.4, 0.6, 1.0)

    def test_rejects_empty_nonpositive_duplicates(self):
        with pytest.raises(ValueError, match="empty"):
            threshold_grid([])
        with pytest.raises(ValueError, match="positive"):
            threshold_grid([-1.0, 2.0])
        with pytest.raises(ValueError, match="duplicate"):
            threshold_grid([2.0, 2.0])


class TestValidateCurveLevels:
    def test_accepts_ascending_unit_levels(self):
        assert validate_curve_levels([0.25, 0.5, 1.0]) == (0.25, 0.5, 1.0)

    def test_rejects_out_of_range_and_unordered(self):
        with pytest.raises(ValueError):
            validate_curve_levels([])
        with pytest.raises(ValueError):
            validate_curve_levels([0.0, 0.5])
        with pytest.raises(ValueError):
            validate_curve_levels([0.5, 1.1])
        with pytest.raises(ValueError):
            validate_curve_levels([0.5, 0.25])


class TestSRSCurve:
    def test_both_backends_match_the_oracle(self, walk_query):
        """Native kernel and ``step`` definition alike."""
        betas, levels = threshold_grid(THRESHOLDS)
        for query in (scalar_only(walk_query), walk_query):
            curve = SRSSampler().run_curve(
                query, levels, thresholds=betas, max_roots=15_000,
                seed=3)
            assert curve.n_roots == 15_000
            for beta, estimate in curve:
                assert_close_to(estimate.probability, exact(beta),
                                estimate.std_error)

    def test_curve_matches_single_runs_statistically(self, walk_query):
        """Each grid point agrees with an independent run() at the
        rebased threshold, within joint tolerance."""
        betas, levels = threshold_grid(THRESHOLDS)
        curve = SRSSampler().run_curve(walk_query, levels, thresholds=betas,
                                       max_roots=10_000, seed=4)
        for beta, estimate in curve:
            single = SRSSampler().run(walk_query.with_threshold(beta),
                                      max_roots=10_000, seed=int(beta) + 50)
            joint = np.sqrt(estimate.variance + single.variance)
            assert_close_to(estimate.probability, single.probability, joint)

    def test_requires_a_stopping_rule(self, walk_query):
        with pytest.raises(ValueError, match="never stop"):
            SRSSampler().run_curve(walk_query, [0.5, 1.0])

    def test_quality_target_stops_every_level(self, walk_query):
        from repro.core.quality import RelativeErrorTarget

        betas, levels = threshold_grid(THRESHOLDS)
        curve = SRSSampler(batch_roots=2000).run_curve(
            walk_query, levels, thresholds=betas,
            quality=RelativeErrorTarget(target=0.25), max_roots=10 ** 6,
            seed=5)
        assert curve.n_roots < 10 ** 6
        for _, estimate in curve:
            assert estimate.relative_error() <= 0.25 + 1e-9


def forest_aggregate(query, partition, n_roots=2000, seed=6):
    ratios = normalize_ratios(3, partition.num_levels)
    runner = VectorizedForestRunner(query, partition, ratios,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(n_roots))
    return aggregate, ratios


class TestMLSSPrefixes:
    def test_gmlss_prefix_tail_is_the_point_estimate(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = forest_aggregate(walk_query, partition)
        prefixes = gmlss_prefix_estimates(aggregate, ratios)
        assert len(prefixes) == partition.num_levels
        assert prefixes[-1] == gmlss_point_estimate(aggregate, ratios)

    def test_gmlss_prefixes_estimate_boundary_crossings(self, walk_query):
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = forest_aggregate(walk_query, partition,
                                             n_roots=4000)
        prefixes = gmlss_prefix_estimates(aggregate, ratios)
        variances = bootstrap_variance(aggregate, ratios, seed=1)
        for beta, prefix, variance in zip(betas, prefixes, variances):
            assert_close_to(prefix, exact(beta), float(np.sqrt(variance)))

    def test_smlss_prefix_tail_is_the_point_estimate(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = forest_aggregate(walk_query, partition)
        # The tail is Eq. 3 and Eq. 5-6 exactly, as the point answer
        # reports them.
        n0, split = aggregate.n_roots, ratio_product(ratios)
        assert smlss_prefix_estimates(aggregate, ratios)[-1] == \
            aggregate.hits / (n0 * split)
        assert smlss_prefix_variances(aggregate, ratios)[-1] == \
            aggregate.hit_count_variance() / (n0 * split * split)

    def test_prefixes_agree_across_backends(self, walk_query):
        """Native kernel and ``step`` definition: every prefix matches
        the exact crossing probability within its bootstrap error."""
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        for query, seed in ((scalar_only(walk_query), 7), (walk_query, 8)):
            aggregate, ratios = forest_aggregate(query, partition,
                                                 n_roots=3000, seed=seed)
            for beta, prefix, variance in zip(
                    betas, gmlss_prefix_estimates(aggregate, ratios),
                    bootstrap_variance(aggregate, ratios, seed=seed)):
                assert_close_to(prefix, exact(beta),
                                float(np.sqrt(variance)))

    def test_sampler_run_curve_matches_oracle(self, walk_query):
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        for sampler in (GMLSSSampler(partition, ratio=3),
                        SMLSSSampler(partition, ratio=3)):
            curve = sampler.run_curve(walk_query, thresholds=betas,
                                      max_roots=3000, seed=9)
            assert curve.method == sampler.method_name
            for beta, estimate in curve:
                assert_close_to(estimate.probability, exact(beta),
                                max(estimate.std_error, 5e-4))

    def test_run_curve_rejects_mismatched_thresholds(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        with pytest.raises(ValueError, match="thresholds"):
            GMLSSSampler(partition).run_curve(
                walk_query, thresholds=(1.0, 2.0), max_roots=10)


class TestMaxLevelBookkeeping:
    def test_scripted_path_records_highest_level(self):
        # Path climbs to 0.55 and falls back: max level is 1 of {0,1,2}.
        process = ScriptedProcess([0.3, 0.55, 0.2, 0.1])
        query = DurabilityQuery(process=process,
                                value_function=lambda s, t: s, horizon=4)
        partition = LevelPartition([0.5, 0.9])
        runner = VectorizedForestRunner(
            query, partition, normalize_ratios(2, partition.num_levels),
            np.random.default_rng(0))
        record = runner.run_cohort(1)[0]
        assert record.max_level == 1

    def test_hit_records_target_level(self):
        process = ScriptedProcess([0.6, 1.0])
        query = DurabilityQuery(process=process,
                                value_function=lambda s, t: s, horizon=2)
        partition = LevelPartition([0.5])
        runner = VectorizedForestRunner(
            query, partition, normalize_ratios(2, partition.num_levels),
            np.random.default_rng(0))
        record = runner.run_cohort(1)[0]
        assert record.max_level == partition.num_levels

    def test_backends_agree_on_level_reach(self, walk_query):
        """Native kernel vs ``step`` definition (ScalarFallback)."""
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        n_roots = 2000
        agg_s, _ = forest_aggregate(scalar_only(walk_query), partition,
                                    n_roots=n_roots, seed=10)
        agg_b, _ = forest_aggregate(walk_query, partition,
                                    n_roots=n_roots, seed=11)

        reach_s = agg_s.level_reach_counts()
        reach_b = agg_b.level_reach_counts()
        assert reach_s[0] == reach_b[0] == n_roots
        # A tree reaches L1 exactly when its root path crosses the
        # first boundary: the exact first-passage probability.
        p = exact(betas[0])
        sigma = float(np.sqrt(p * (1 - p) / n_roots))
        for reach in (reach_s, reach_b):
            assert_close_to(reach[1] / n_roots, p, sigma)
        # Deeper reach fractions agree within binomial noise.
        for level in range(1, partition.num_levels + 1):
            p = reach_s[level] / n_roots
            sigma = np.sqrt(max(p * (1 - p), 1e-4) / n_roots)
            assert_close_to(reach_b[level] / n_roots, p, 2 * float(sigma))

    def test_level_reach_counts_are_monotone(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, _ = forest_aggregate(walk_query, partition,
                                        n_roots=500, seed=12)
        reach = aggregate.level_reach_counts()
        assert reach == sorted(reach, reverse=True)
