"""Tests for the s-MLSS sampler and estimator (Eq. 3, 5, 6)."""

import math

import numpy as np
import pytest

from repro.core.forest import VectorizedForestRunner
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.quality import RelativeErrorTarget
from repro.core.records import ForestAggregate
from repro.core.smlss import (SMLSSSampler, ratio_product,
                              smlss_prefix_estimates,
                              smlss_prefix_variances)
from repro.core.srs import SRSSampler, srs_variance
from repro.core.value_functions import DurabilityQuery

from ..helpers import (ScriptedProcess, assert_close_to, identity_z,
                       make_cohort)


def aggregate_from(query, boundaries, ratio, n_roots, seed):
    partition = LevelPartition(boundaries)
    runner = VectorizedForestRunner(query, partition, ratio,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(n_roots))
    return aggregate, normalize_ratios(ratio, partition.num_levels)


class TestEstimatorAlgebra:
    def test_ratio_product(self):
        assert ratio_product((1, 3, 3, 3)) == 27
        assert ratio_product((1,)) == 1
        assert ratio_product((1, 2, 5)) == 10

    def test_point_estimate_formula(self):
        agg = ForestAggregate(3)
        agg.n_roots = 10
        agg.landings = [0, 12, 30]
        agg.hits = 18
        ratios = (1, 3, 3)
        # Eq. 3 per prefix: landings[i] / (N_0 * r^(i-1)); the target
        # is N_m / (N_0 * r^(m-1)) = 18 / (10 * 9).
        assert smlss_prefix_estimates(agg, ratios) == pytest.approx(
            [1.2, 1.0, 0.2])

    def test_point_estimate_empty_aggregate(self):
        assert smlss_prefix_estimates(ForestAggregate(2), (1, 3)) == [0.0,
                                                                      0.0]

    def test_variance_scales_with_ratio_product(self):
        agg = ForestAggregate(3)
        hits, landed = [0, 2, 4, 0, 1], [1, 3, 2, 0, 1]
        agg.extend(make_cohort(3, n=5, hits=hits,
                               landings=[[0, c, 3 * c] for c in landed]))
        sigma_sq = agg.hit_count_variance()
        assert sigma_sq == pytest.approx(np.var([0, 2, 4, 0, 1], ddof=1))
        variances = smlss_prefix_variances(agg, (1, 3, 3))
        assert variances[0] == pytest.approx(
            np.var([1, 3, 2, 0, 1], ddof=1) / 5)
        assert variances[1] == pytest.approx(
            np.var([3, 9, 6, 0, 3], ddof=1) / (5 * 3 * 3))
        assert variances[-1] == pytest.approx(sigma_sq / (5 * 9 * 9))

    def test_variance_needs_two_roots(self):
        agg = ForestAggregate(2)
        assert smlss_prefix_variances(agg, (1, 3)) == [0.0, 0.0]


class TestDeterministicScenarios:
    def test_deterministic_hit_estimates_one(self):
        query = DurabilityQuery.threshold(
            ScriptedProcess([0.2, 0.5, 0.9, 1.2]), identity_z, beta=1.0,
            horizon=4)
        estimate = SMLSSSampler(LevelPartition([0.4, 0.8]), ratio=2).run(
            query, max_roots=5, seed=0)
        assert estimate.probability == pytest.approx(1.0)
        assert not estimate.details["skipping_detected"]

    def test_blind_application_underestimates_on_skips(self):
        # The skipping path's hits are divided by r^2 although its
        # lineage split only once -> estimate 0.5 instead of 1.0.
        query = DurabilityQuery.threshold(
            ScriptedProcess([0.2, 0.9, 1.2]), identity_z, beta=1.0,
            horizon=3)
        estimate = SMLSSSampler(LevelPartition([0.4, 0.8]), ratio=2).run(
            query, max_roots=5, seed=0)
        assert estimate.probability == pytest.approx(0.5)
        assert estimate.details["skipping_detected"]


class TestStatisticalAgreement:
    def test_matches_exact_chain_answer(self, small_chain_query,
                                        small_chain_partition,
                                        small_chain_exact):
        estimate = SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=3000, seed=17)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_ratio_one_equals_srs_exactly(self, small_chain_query,
                                          small_chain_partition):
        """MLSS with r = 1 is SRS (Section 3.1): every root tree is one
        path, so the s-MLSS estimate and variance are exactly the SRS
        formulas over the same roots.  (A split moves the path to the
        end of the batch, so the two samplers draw different streams:
        their answers agree in distribution, not bytes.)"""
        mlss = SMLSSSampler(small_chain_partition, ratio=1).run(
            small_chain_query, max_roots=800, seed=23)
        assert mlss.hits <= mlss.n_roots
        assert mlss.probability == mlss.hits / mlss.n_roots
        assert mlss.variance == pytest.approx(
            srs_variance(mlss.probability, mlss.n_roots), rel=2e-3)
        srs = SRSSampler().run(small_chain_query, max_roots=800, seed=23)
        assert_close_to(mlss.probability, srs.probability,
                        math.sqrt(mlss.variance + srs.variance))

    def test_empty_partition_equals_srs_exactly(self, small_chain_query):
        """With no levels the forest is the SRS loop path for path; given
        the same seed and cohort sizes both draw the same stream."""
        mlss = SMLSSSampler(LevelPartition(), ratio=3,
                            batch_roots=500).run(
            small_chain_query, max_roots=800, seed=29)
        srs = SRSSampler(batch_roots=500).run(small_chain_query,
                                              max_roots=800, seed=29)
        assert mlss.probability == srs.probability
        assert mlss.hits == srs.hits
        assert mlss.steps == srs.steps

    def test_more_hits_than_srs_at_same_roots(self, small_chain_query,
                                              small_chain_partition):
        """Splitting should generate many more target hits per root."""
        mlss = SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=2000, seed=31)
        srs = SRSSampler().run(small_chain_query, max_roots=2000, seed=31)
        assert mlss.hits > 2 * max(srs.hits, 1)


class TestStoppingRules:
    def test_quality_target_stops(self, small_chain_query,
                                  small_chain_partition):
        target = RelativeErrorTarget(target=0.25, min_hits=10,
                                     min_roots=100)
        estimate = SMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=100).run(
            small_chain_query, quality=target, max_roots=10**6, seed=37)
        assert estimate.n_roots < 10**6
        assert estimate.relative_error() <= 0.25 + 1e-9

    def test_step_budget_respected(self, small_chain_query,
                                   small_chain_partition):
        estimate = SMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=10).run(
            small_chain_query, max_steps=20_000, seed=3)
        # Budget is checked between roots; a single root tree may
        # overshoot, but not by more than one tree's worth of work.
        assert estimate.steps == pytest.approx(20_000, rel=0.5)

    def test_requires_some_stopping_rule(self, small_chain_query,
                                         small_chain_partition):
        with pytest.raises(ValueError):
            SMLSSSampler(small_chain_partition).run(small_chain_query)

    def test_details_expose_level_counters(self, small_chain_query,
                                           small_chain_partition):
        estimate = SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=200, seed=5)
        assert len(estimate.details["landings"]) == 3
        assert estimate.details["ratios"] == (3, 3)
        assert estimate.details["partition"] == small_chain_partition

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        runs = [SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=300, seed=41) for _ in range(2)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].steps == runs[1].steps
