"""Statistical validation of the paper's central claims.

Propositions 1 and 2 assert unbiasedness of the MLSS estimators; the
paper's Table 6 shows that s-MLSS breaks (and g-MLSS does not) under
level skipping.  These tests check all of that against exact Markov
chain oracles by averaging many independent fixed-budget runs — the
same protocol as the paper's estimation tables.
"""

import math

import pytest

from repro.core.analytic import hitting_probability
from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.smlss import SMLSSSampler
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes.markov_chain import MarkovChainProcess, birth_death_chain

from ..helpers import run_mean_estimate, scalar_only


def skipping_chain():
    """A chain with frequent multi-level jumps (like Volatile CPP)."""
    matrix = [
        [0.60, 0.22, 0.10, 0.05, 0.03],
        [0.35, 0.35, 0.18, 0.08, 0.04],
        [0.10, 0.25, 0.35, 0.20, 0.10],
        [0.05, 0.10, 0.25, 0.40, 0.20],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return MarkovChainProcess(matrix, start=0)


class TestProposition1:
    """s-MLSS is unbiased without level skipping."""

    def test_smlss_mean_over_runs_matches_exact(self, small_chain,
                                                small_chain_query,
                                                small_chain_exact):
        partition = LevelPartition([4 / 12, 8 / 12])

        def run_once(seed):
            return SMLSSSampler(partition, ratio=3).run(
                small_chain_query, max_roots=150, seed=seed).probability

        mean, std_error = run_mean_estimate(run_once, n_runs=50)
        assert abs(mean - small_chain_exact) < 4 * std_error + 1e-4


class TestProposition2:
    """g-MLSS is unbiased in general (with level skipping)."""

    def test_gmlss_mean_over_runs_matches_exact(self):
        chain = skipping_chain()
        horizon = 12
        exact = hitting_probability(chain.matrix, 0, [4], horizon)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=4.0, horizon=horizon)
        partition = LevelPartition([0.3, 0.6, 0.9])

        def run_once(seed):
            return GMLSSSampler(partition, ratio=3).run(
                query, max_roots=150, seed=seed).probability

        mean, std_error = run_mean_estimate(run_once, n_runs=50)
        assert abs(mean - exact) < 4 * std_error + 1e-4


class TestTable6Shape:
    """Blind s-MLSS underestimates under skipping; SRS and g-MLSS agree."""

    def test_bias_pattern(self):
        chain = skipping_chain()
        horizon = 12
        exact = hitting_probability(chain.matrix, 0, [4], horizon)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=4.0, horizon=horizon)
        partition = LevelPartition([0.3, 0.6, 0.9])

        def smlss_once(seed):
            return SMLSSSampler(partition, ratio=3).run(
                query, max_roots=120, seed=seed).probability

        def srs_once(seed):
            return SRSSampler().run(query, max_roots=400,
                                    seed=seed).probability

        smlss_mean, smlss_se = run_mean_estimate(smlss_once, n_runs=40)
        srs_mean, srs_se = run_mean_estimate(srs_once, n_runs=40)

        assert smlss_mean < exact - 5 * smlss_se, (
            f"s-MLSS should be biased low: {smlss_mean} vs {exact}")
        assert abs(srs_mean - exact) < 4 * srs_se + 1e-4


class TestVarianceCalibration:
    """Reported variances must match the spread of repeated estimates."""

    def test_smlss_variance_estimator_calibrated(self, small_chain_query):
        partition = LevelPartition([4 / 12, 8 / 12])
        estimates, variances = [], []
        for seed in range(40):
            result = SMLSSSampler(partition, ratio=3).run(
                small_chain_query, max_roots=200, seed=seed)
            estimates.append(result.probability)
            variances.append(result.variance)
        mean = sum(estimates) / len(estimates)
        empirical = sum((e - mean) ** 2
                        for e in estimates) / (len(estimates) - 1)
        reported = sum(variances) / len(variances)
        assert reported == pytest.approx(empirical, rel=0.7)

    def test_srs_variance_estimator_calibrated(self, small_chain_query):
        estimates, variances = [], []
        for seed in range(40):
            result = SRSSampler().run(small_chain_query, max_roots=1500,
                                      seed=seed)
            estimates.append(result.probability)
            variances.append(result.variance)
        mean = sum(estimates) / len(estimates)
        empirical = sum((e - mean) ** 2
                        for e in estimates) / (len(estimates) - 1)
        reported = sum(variances) / len(variances)
        assert reported == pytest.approx(empirical, rel=0.7)


class TestVectorizedBackendAgreement:
    """The batched loop is one estimator on every process.

    A natively batched process steps through its own kernel; a process
    that defines only ``step`` runs the same loop inside a
    ``ScalarFallback``.  Both are checked against the exact DP oracle:
    (a) the mean over independent runs matches the exact answer within
    the standard error of the mean, and (b) single estimates straddle
    it within their own 95 % CI and agree with each other within the
    joint 95 % CI half-width.
    """

    def test_vectorized_srs_unbiased(self, small_chain_query,
                                     small_chain_exact):
        def run_once(seed):
            return SRSSampler().run(
                small_chain_query, max_roots=2000, seed=seed).probability

        mean, std_error = run_mean_estimate(run_once, n_runs=40)
        assert abs(mean - small_chain_exact) < 4 * std_error + 1e-4

    def test_vectorized_gmlss_unbiased(self, small_chain_query,
                                       small_chain_exact):
        partition = LevelPartition([4 / 12, 8 / 12])

        def run_once(seed):
            return GMLSSSampler(partition, ratio=3).run(
                small_chain_query, max_roots=150, seed=seed).probability

        mean, std_error = run_mean_estimate(run_once, n_runs=50)
        assert abs(mean - small_chain_exact) < 4 * std_error + 1e-4

    def test_vectorized_gmlss_with_skipping_unbiased(self):
        chain = skipping_chain()
        horizon = 12
        exact = hitting_probability(chain.matrix, 0, [4], horizon)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=4.0, horizon=horizon)
        partition = LevelPartition([0.3, 0.6, 0.9])

        def run_once(seed):
            return GMLSSSampler(partition, ratio=3).run(
                query, max_roots=150, seed=seed).probability

        mean, std_error = run_mean_estimate(run_once, n_runs=50)
        assert abs(mean - exact) < 4 * std_error + 1e-4

    def test_backends_agree_within_ci_half_width(self, small_chain_query,
                                                 small_chain_exact):
        from repro.core.stats import critical_value

        partition = LevelPartition([4 / 12, 8 / 12])
        scalar = GMLSSSampler(partition, ratio=3).run(
            scalar_only(small_chain_query), max_roots=4000, seed=101)
        batched = GMLSSSampler(partition, ratio=3).run(
            small_chain_query, max_roots=4000, seed=202)
        z95 = critical_value(0.95)
        joint_half_width = z95 * math.sqrt(scalar.variance
                                           + batched.variance)
        assert abs(scalar.probability - batched.probability) <= \
            joint_half_width + 1e-4
        # ... and both straddle the exact answer within their own CI.
        for estimate in (scalar, batched):
            half = z95 * math.sqrt(estimate.variance)
            assert abs(estimate.probability - small_chain_exact) <= \
                half + 1e-3


class TestEfficiencyClaim:
    """MLSS reaches a target RE with fewer steps than SRS (Figure 6)."""

    def test_step_reduction_on_rare_chain_query(self):
        chain = birth_death_chain(n=17, p_up=0.25, p_down=0.35, start=0)
        horizon = 80
        exact = hitting_probability(chain.matrix, 0, [16], horizon)
        assert exact < 5e-3  # genuinely small probability
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=16.0, horizon=horizon)
        partition = LevelPartition([i / 16 for i in (4, 8, 12)])

        from repro.core.quality import RelativeErrorTarget
        target = RelativeErrorTarget(target=0.2)
        mlss = SMLSSSampler(partition, ratio=3, batch_roots=200).run(
            query, quality=target, max_steps=4_000_000, seed=3)
        srs = SRSSampler(batch_roots=500).run(
            query, quality=target, max_steps=4_000_000, seed=3)
        assert mlss.relative_error() <= 0.2 + 1e-9
        assert mlss.steps < 0.6 * srs.steps, (
            f"MLSS used {mlss.steps} vs SRS {srs.steps}")
