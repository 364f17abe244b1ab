"""Tests for the batched simulation loops across the core stack.

Every sampler runs one batched loop.  A natively batched process steps
through its own ``step_batch``; a process that defines only ``step``
runs the same loop inside a ``ScalarFallback``.  Deterministic scripts
pin the forest's records by hand, and stochastic runs on either path
are checked against the exact oracles in :mod:`repro.core.analytic`.
"""

import numpy as np
import pytest

from repro.core.analytic import hitting_probability_grid
from repro.core.balanced import pilot_max_values
from repro.core.forest import LevelPlanError, VectorizedForestRunner
from repro.core.gmlss import GMLSSSampler
from repro.core.greedy import adaptive_greedy_partition
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.optimizer import evaluate_partition
from repro.core.records import ForestAggregate
from repro.core.smlss import SMLSSSampler, smlss_prefix_estimates
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.engine import DurabilityEngine, ExecutionPolicy
from repro.processes import ScalarFallback

from ..helpers import (ScriptedProcess, assert_close_to, identity_z,
                       scalar_only)


def scripted_query(script, beta=1.0, horizon=None, initial=0.0):
    process = ScriptedProcess(script, initial=initial)
    return DurabilityQuery.threshold(process, identity_z, beta=beta,
                                     horizon=horizon or len(script))


def chain_reach_probabilities(chain, thresholds, horizon=60):
    """Exact ``Pr[chain reaches state >= k within horizon]`` per ``k``."""
    top = len(chain.matrix)
    return hitting_probability_grid(
        chain.matrix, 0, [range(int(k), top) for k in thresholds], horizon)


class TestVectorizedForestBookkeeping:
    """Cohort counters on scripted processes (inside ScalarFallback)."""

    def test_cohort_records_are_per_root(self):
        # Clean two-level ascent with r = 2, derived by hand: the root
        # lands in L1 (2 steps), its 2 offspring land in L2 (1 step
        # each), their 4 offspring hit (1 step each).
        query = scripted_query([0.2, 0.5, 0.9, 1.2])
        partition = LevelPartition([0.4, 0.8])
        cohort = VectorizedForestRunner(
            query, partition, 2, np.random.default_rng(0)).run_cohort(5)
        assert cohort.hits.tolist() == [4] * 5
        assert cohort.steps.tolist() == [8] * 5
        assert cohort.landings.tolist() == [[0, 1, 2]] * 5
        assert cohort.skips.tolist() == [[0, 0, 0]] * 5
        assert cohort.crossings.tolist() == [[0, 2, 4]] * 5

    def test_validates_plan_like_scalar_runner(self):
        query = scripted_query([0.9], initial=0.5)
        with pytest.raises(LevelPlanError):
            VectorizedForestRunner(query, LevelPartition([0.4]), 2,
                                   np.random.default_rng(0))

    def test_empty_cohort(self):
        query = scripted_query([0.9])
        runner = VectorizedForestRunner(query, LevelPartition(), 1,
                                        np.random.default_rng(0))
        empty = runner.run_cohort(0)
        assert [column.shape for column in empty] == [(0, 1)] * 3 + [(0,)] * 3
        with pytest.raises(ValueError):
            runner.run_cohort(-1)

    def test_counter_means_agree_on_stochastic_chain(
            self, small_chain, small_chain_query, small_chain_partition):
        """Per-level counter means match the exact crossing odds.

        The chain moves one state per step, so no level is skipped and
        landings in ``L_i`` average ``N_0 * prod_{k<i} r_k *
        Pr[cross beta_i]`` (hits likewise, with ``tau``): the s-MLSS
        prefix estimates.  One run's totals are clustered by tree, so
        the mean over independent seeds is compared.
        """
        exact = chain_reach_probabilities(small_chain, [4, 8, 12])
        ratios = normalize_ratios(3, small_chain_partition.num_levels)
        n_roots, n_seeds = 400, 10
        prefixes = []
        for seed in range(n_seeds):
            runner = VectorizedForestRunner(
                small_chain_query, small_chain_partition, 3,
                np.random.default_rng(seed))
            aggregate = ForestAggregate(small_chain_partition.num_levels)
            aggregate.extend(runner.run_cohort(n_roots))
            assert aggregate.total_skips == 0
            prefixes.append(smlss_prefix_estimates(aggregate, ratios))
        prefixes = np.asarray(prefixes)
        se = prefixes.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        delta = np.abs(prefixes.mean(axis=0) - exact)
        assert (delta <= 4.5 * se + 1e-9).all(), (delta, se)


class TestVectorizedSRS:
    def test_agrees_with_exact_answer(self, small_chain_query,
                                      small_chain_exact):
        estimate = SRSSampler().run(
            small_chain_query, max_roots=20_000, seed=1)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_max_roots_exact(self, small_chain_query):
        estimate = SRSSampler(batch_roots=300).run(
            small_chain_query, max_roots=1000, seed=2)
        assert estimate.n_roots == 1000

    def test_max_steps_overshoot_bounded(self, small_chain_query):
        estimate = SRSSampler(batch_roots=500).run(
            small_chain_query, max_steps=30_000, seed=3)
        # The budget is enforced between cohorts, and the final cohort
        # is sized from the remaining budget, so the overshoot stays
        # below one cohort's worth of full-horizon paths.
        assert estimate.steps >= 30_000
        assert estimate.steps < 30_000 + 500 * small_chain_query.horizon

    def test_quality_target_stops_early(self, small_chain_query):
        from repro.core.quality import RelativeErrorTarget
        estimate = SRSSampler().run(
            small_chain_query, quality=RelativeErrorTarget(target=0.3),
            max_roots=10 ** 6, seed=4)
        assert estimate.relative_error() <= 0.3 + 1e-9
        assert estimate.n_roots < 10 ** 6

    def test_trace_recorded(self, small_chain_query):
        estimate = SRSSampler(batch_roots=200, record_trace=True).run(
            small_chain_query, max_roots=600, seed=5)
        trace = estimate.details["trace"]
        assert len(trace) >= 2
        assert trace[-1].n_roots == estimate.n_roots

    def test_fallback_path_for_scalar_process(self):
        """A process with only ``step`` runs inside ScalarFallback."""
        query = scripted_query([0.5, 1.2])
        estimate = SRSSampler().run(query, max_roots=50, seed=6)
        assert estimate.probability == 1.0
        assert estimate.steps == 100  # every path hits at t = 2


class TestVectorizedMLSSSamplers:
    def test_smlss_agrees_with_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        estimate = SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=3000, seed=7)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)
        assert estimate.details["skipping_detected"] is False

    def test_gmlss_agrees_with_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        estimate = GMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=3000, seed=8)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)
        assert estimate.variance > 0.0

    def test_max_roots_respected(self, small_chain_query,
                                 small_chain_partition):
        estimate = SMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=128).run(
            small_chain_query, max_roots=500, seed=9)
        assert estimate.n_roots == 500

    def test_gmlss_quality_stopping(self, small_chain_query,
                                    small_chain_partition):
        from repro.core.quality import RelativeErrorTarget
        estimate = GMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, quality=RelativeErrorTarget(target=0.3),
            max_roots=10 ** 6, seed=10)
        assert estimate.relative_error() <= 0.3 + 1e-9
        assert estimate.n_roots < 10 ** 6


class TestVectorizedPlanSearch:
    def test_evaluate_partition_backends_agree(self, small_chain_query,
                                               small_chain_partition,
                                               small_chain_exact):
        """A trial scores the same plan alike on the native kernel and
        on the process's ``step`` definition (ScalarFallback)."""
        trials = [evaluate_partition(query, small_chain_partition,
                                     ratio=3, trial_steps=30_000, seed=11)
                  for query in (small_chain_query,
                                scalar_only(small_chain_query))]
        for trial in trials:
            assert trial.steps >= 30_000
            assert trial.estimate == pytest.approx(small_chain_exact,
                                                   rel=0.8)
        assert trials[0].cost_per_root == pytest.approx(
            trials[1].cost_per_root, rel=0.25)

    def test_greedy_search_vectorized_reproducible(self, small_chain_query):
        runs = [adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=11)
            for _ in range(2)]
        assert runs[0].partition == runs[1].partition
        assert runs[0].search_steps == runs[1].search_steps
        assert runs[0].partition.num_levels >= 2

    def test_pilot_max_values_vectorized(self, small_chain,
                                         small_chain_query):
        maxima = pilot_max_values(small_chain_query, n_paths=2000, seed=12)
        assert len(maxima) == 2000
        assert maxima == sorted(maxima)
        assert all(0.0 <= m <= 1.0 for m in maxima)
        # The normalized maximum takes values k / 12, so its mean is
        # sum_k Pr[max >= k] / 12 over k = 1..12 (the exact DP oracle).
        reach = chain_reach_probabilities(small_chain, range(1, 13))
        se = np.std(maxima, ddof=1) / np.sqrt(len(maxima))
        assert_close_to(float(np.mean(maxima)), float(reach.sum() / 12),
                        float(se))


class TestEngineBackendOption:
    def test_auto_picks_vectorized_for_native_process(
            self, small_chain_query, small_chain_exact, monkeypatch):
        """A natively batched process never runs inside the adapter."""
        def refuse(self, process):
            raise AssertionError("native process wrapped in ScalarFallback")

        monkeypatch.setattr(ScalarFallback, "__init__", refuse)
        estimate = DurabilityEngine().answer(
            small_chain_query, method="srs", max_roots=5000, seed=14)
        assert "backend" not in estimate.details
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_auto_picks_scalar_for_opaque_process(self, monkeypatch):
        """A process with only ``step`` runs its scalar definition,
        row by row inside ScalarFallback."""
        calls = []
        step_batch = ScalarFallback.step_batch

        def counting(self, states, t, rng):
            calls.append(len(states))
            return step_batch(self, states, t, rng)

        monkeypatch.setattr(ScalarFallback, "step_batch", counting)
        query = scripted_query([0.5, 1.2])
        estimate = DurabilityEngine().answer(query, method="srs",
                                             max_roots=50, seed=15)
        assert estimate.probability == 1.0
        assert sum(calls) == estimate.steps == 100

    def test_unknown_backend_rejected(self, small_chain_query):
        """``backend`` is not an option: naming it fails."""
        engine = DurabilityEngine(ExecutionPolicy(max_roots=10))
        with pytest.raises(TypeError):
            engine.answer(small_chain_query, method="srs",
                          backend="quantum")
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy.from_dict({"backend": "vectorized",
                                       "max_roots": 10})


class TestCrossBackendEstimates:
    """The native kernel and the ``step`` definition both match the
    exact DP answer within the estimate's own error bars."""

    def test_smlss_cross_backend(self, small_chain_query,
                                 small_chain_partition, small_chain_exact):
        for query, seed in ((small_chain_query, 17),
                            (scalar_only(small_chain_query), 18)):
            estimate = SMLSSSampler(small_chain_partition, ratio=3).run(
                query, max_roots=4000, seed=seed)
            assert_close_to(estimate.probability, small_chain_exact,
                            estimate.std_error)

    def test_srs_cross_backend(self, small_chain_query, small_chain_exact):
        for query, seed in ((small_chain_query, 19),
                            (scalar_only(small_chain_query), 20)):
            estimate = SRSSampler().run(query, max_roots=20_000, seed=seed)
            assert_close_to(estimate.probability, small_chain_exact,
                            estimate.std_error)
