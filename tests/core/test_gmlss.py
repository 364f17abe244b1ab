"""Tests for the g-MLSS sampler and estimator (Eq. 9, 10)."""

import numpy as np
import pytest

from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import (GMLSSSampler, gmlss_estimate_from_totals,
                              gmlss_pi_hats, gmlss_point_estimate)
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.quality import RelativeErrorTarget
from repro.core.records import ForestAggregate
from repro.core.smlss import SMLSSSampler, smlss_point_estimate
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes.markov_chain import MarkovChainProcess
from repro.core.analytic import hitting_probability

from ..helpers import ScriptedProcess, assert_close_to, identity_z


def forest_aggregate(query, boundaries, ratio, n_roots, seed):
    partition = LevelPartition(boundaries)
    runner = VectorizedForestRunner(query, partition, ratio,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(n_roots))
    return aggregate, normalize_ratios(ratio, partition.num_levels)


def jumpy_chain():
    """A 5-state chain whose value can jump several states at once.

    States 0..4 with values 0..4; target is state 4 (beta = 4).  From
    state 0 the chain can jump straight to 2, 3 or even 4 — guaranteed
    level skipping for a plan with boundaries between the states.
    """
    matrix = [
        [0.55, 0.25, 0.10, 0.06, 0.04],
        [0.30, 0.40, 0.20, 0.06, 0.04],
        [0.05, 0.25, 0.40, 0.20, 0.10],
        [0.02, 0.08, 0.30, 0.40, 0.20],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return MarkovChainProcess(matrix, start=0)


class TestEstimatorAlgebra:
    def test_single_level_degenerates_to_srs(self):
        assert gmlss_estimate_from_totals([0], [0], [0], hits=7,
                                          n_roots=20, ratios=(1,)) == 0.35

    def test_zero_roots_returns_zero(self):
        assert gmlss_estimate_from_totals([0, 0], [0, 0], [0, 0], 0, 0,
                                          (1, 3)) == 0.0

    def test_dead_level_short_circuits_to_zero(self):
        # Nothing ever crossed beta_1.
        assert gmlss_estimate_from_totals(
            [0, 0, 0], [0, 0, 0], [0, 0, 0], 0, 50, (1, 3, 3)) == 0.0

    def test_two_level_skip_decomposition(self):
        """tau_hat = N2_nonskip / (N0 r) + N2_skip / N0 (Section 4.2)."""
        n_roots, ratio = 100, 4
        landings = [0, 12]   # |H_1|
        skips = [0, 3]       # direct jumps to the target
        crossings = [0, 9]   # offspring of L1 splits reaching the target
        estimate = gmlss_estimate_from_totals(
            landings, skips, crossings, hits=9 + 3, n_roots=n_roots,
            ratios=(1, ratio))
        expected = 9 / (n_roots * ratio) + 3 / n_roots
        assert estimate == pytest.approx(expected)

    def test_estimate_never_exceeds_one(self):
        estimate = gmlss_estimate_from_totals(
            [0, 5, 2], [0, 1, 1], [0, 15, 6], hits=8, n_roots=6,
            ratios=(1, 3, 3))
        assert 0.0 <= estimate <= 1.0

    def test_pi_hats_structure(self, small_chain_query,
                               small_chain_partition):
        aggregate, ratios = forest_aggregate(
            small_chain_query, small_chain_partition.boundaries, 3,
            n_roots=400, seed=3)
        pis = gmlss_pi_hats(aggregate, ratios)
        assert len(pis) == 3
        assert all(0.0 <= p <= 1.0 for p in pis)
        product = 1.0
        for p in pis:
            product *= p
        assert product == pytest.approx(
            gmlss_point_estimate(aggregate, ratios))


class TestSkipFreeIdentity:
    def test_equals_smlss_without_skipping(self, small_chain_query,
                                           small_chain_partition):
        """On skip-free runs g-MLSS and s-MLSS read the same number."""
        aggregate, ratios = forest_aggregate(
            small_chain_query, small_chain_partition.boundaries, 3,
            n_roots=500, seed=19)
        assert aggregate.total_skips == 0
        assert gmlss_point_estimate(aggregate, ratios) == pytest.approx(
            smlss_point_estimate(aggregate, ratios))

    def test_deterministic_skip_corrected(self):
        """The scripted skip scenario: g-MLSS returns the true 1.0."""
        query = DurabilityQuery.threshold(
            ScriptedProcess([0.2, 0.9, 1.2]), identity_z, beta=1.0,
            horizon=3)
        estimate = GMLSSSampler(LevelPartition([0.4, 0.8]), ratio=2).run(
            query, max_roots=5, seed=0)
        assert estimate.probability == pytest.approx(1.0)

    def test_direct_target_jump_corrected(self):
        query = DurabilityQuery.threshold(
            ScriptedProcess([1.5]), identity_z, beta=1.0, horizon=1)
        estimate = GMLSSSampler(LevelPartition([0.4, 0.8]), ratio=2).run(
            query, max_roots=5, seed=0)
        assert estimate.probability == pytest.approx(1.0)


class TestUnbiasednessOnSkippingChain:
    def test_matches_exact_answer_despite_skips(self):
        chain = jumpy_chain()
        horizon = 12
        exact = hitting_probability(chain.matrix, 0, [4], horizon)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=4.0, horizon=horizon)
        partition = LevelPartition([0.3, 0.6, 0.9])
        estimate = GMLSSSampler(partition, ratio=3).run(
            query, max_roots=3000, seed=43)
        assert sum(estimate.details["skips"]) > 0, "chain must skip levels"
        assert_close_to(estimate.probability, exact, estimate.std_error)

    def test_smlss_is_biased_low_on_same_chain(self):
        chain = jumpy_chain()
        horizon = 12
        exact = hitting_probability(chain.matrix, 0, [4], horizon)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=4.0, horizon=horizon)
        partition = LevelPartition([0.3, 0.6, 0.9])
        estimate = SMLSSSampler(partition, ratio=3).run(
            query, max_roots=3000, seed=43)
        # With heavy skipping the blind estimator misses by far more
        # than its nominal standard error.
        assert estimate.probability < exact - 5 * estimate.std_error


class TestSamplerBehaviour:
    def test_matches_exact_chain_answer(self, small_chain_query,
                                        small_chain_partition,
                                        small_chain_exact):
        estimate = GMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=3000, seed=47)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_bootstrap_variance_is_positive(self, small_chain_query,
                                            small_chain_partition):
        estimate = GMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=1000, seed=53)
        assert estimate.variance > 0.0
        assert estimate.details["bootstrap_evals"] >= 1
        assert estimate.details["bootstrap_seconds"] >= 0.0

    def test_quality_target_stops(self, small_chain_query,
                                  small_chain_partition):
        target = RelativeErrorTarget(target=0.3, min_hits=10, min_roots=100)
        estimate = GMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=100).run(
            small_chain_query, quality=target, max_roots=10**6, seed=59)
        assert estimate.n_roots < 10**6
        assert estimate.relative_error() <= 0.3 + 1e-9

    def test_conservative_bootstrap_schedule(self, small_chain_query,
                                             small_chain_partition):
        """Checks grow geometrically: far fewer evals than batches."""
        estimate = GMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=50, first_check_roots=100,
                                check_growth=2.0).run(
            small_chain_query, quality=RelativeErrorTarget(target=1e-9),
            max_roots=3000, seed=61)
        assert estimate.details["bootstrap_evals"] <= 7

    def test_requires_some_stopping_rule(self, small_chain_query,
                                         small_chain_partition):
        with pytest.raises(ValueError):
            GMLSSSampler(small_chain_partition).run(small_chain_query)

    @pytest.mark.parametrize("kwargs", [
        {"batch_roots": 0}, {"bootstrap_rounds": 1}, {"check_growth": 1.0},
    ])
    def test_rejects_bad_config(self, small_chain_partition, kwargs):
        with pytest.raises(ValueError):
            GMLSSSampler(small_chain_partition, **kwargs)

    def test_per_level_ratios_accepted(self, small_chain_query,
                                       small_chain_partition,
                                       small_chain_exact):
        estimate = GMLSSSampler(small_chain_partition, ratio=[2, 4]).run(
            small_chain_query, max_roots=3000, seed=67)
        assert estimate.details["ratios"] == (2, 4)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        runs = [GMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=300, seed=71) for _ in range(2)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].variance == runs[1].variance
