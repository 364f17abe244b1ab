"""Tests for the g-MLSS sampler and estimator (Eq. 9, 10)."""

import math

import numpy as np
import pytest

from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import (GMLSSSampler, gmlss_pi_hats,
                              gmlss_point_estimate, gmlss_prefix_estimates)
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.quality import RelativeErrorTarget
from repro.core.records import ForestAggregate
from repro.core.smlss import SMLSSSampler, smlss_prefix_estimates
from repro.core.srs import DEFAULT_MAX_ROUND_ROOTS, SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.engine import DurabilityEngine, ExecutionPolicy, ParallelPolicy
from repro.processes import RandomWalkProcess, fuse_processes
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


def totals(landings, skips, crossings, hits, n_roots):
    """An aggregate holding only the given counter totals."""
    aggregate = ForestAggregate(len(landings))
    aggregate.landings = list(landings)
    aggregate.skips = list(skips)
    aggregate.crossings = list(crossings)
    aggregate.hits = hits
    aggregate.n_roots = n_roots
    return aggregate


class TestEstimatorAlgebra:
    def test_single_level_degenerates_to_srs(self):
        aggregate = totals([0], [0], [0], hits=7, n_roots=20)
        assert gmlss_prefix_estimates(aggregate, (1,)) == [0.35]
        assert gmlss_point_estimate(aggregate, (1,)) == 0.35

    def test_zero_roots_returns_zero(self):
        aggregate = totals([0, 0], [0, 0], [0, 0], 0, 0)
        assert gmlss_prefix_estimates(aggregate, (1, 3)) == [0.0, 0.0]
        assert gmlss_pi_hats(aggregate, (1, 3)) == [0.0, 0.0]

    def test_dead_level_short_circuits_to_zero(self):
        # Nothing ever crossed beta_1.
        aggregate = totals([0, 0, 0], [0, 0, 0], [0, 0, 0], 0, 50)
        assert gmlss_prefix_estimates(aggregate, (1, 3, 3)) == [0.0] * 3

    def test_two_level_skip_decomposition(self):
        """tau_hat = N2_nonskip / (N0 r) + N2_skip / N0 (Section 4.2)."""
        n_roots, ratio = 100, 4
        landings = [0, 12]   # |H_1|
        skips = [0, 3]       # direct jumps to the target
        crossings = [0, 9]   # offspring of L1 splits reaching the target
        aggregate = totals(landings, skips, crossings, hits=9 + 3,
                           n_roots=n_roots)
        prefixes = gmlss_prefix_estimates(aggregate, (1, ratio))
        expected = 9 / (n_roots * ratio) + 3 / n_roots
        assert prefixes[0] == pytest.approx((12 + 3) / n_roots)
        assert prefixes[-1] == pytest.approx(expected)

    def test_estimate_never_exceeds_one(self):
        aggregate = totals([0, 5, 2], [0, 1, 1], [0, 15, 6], hits=8,
                           n_roots=6)
        prefixes = gmlss_prefix_estimates(aggregate, (1, 3, 3))
        assert all(0.0 <= p <= 1.0 for p in prefixes)

    def test_pi_hats_structure(self, small_chain_query,
                               small_chain_partition):
        aggregate, ratios = forest_aggregate(
            small_chain_query, small_chain_partition.boundaries, 3,
            n_roots=400, seed=3)
        pis = gmlss_pi_hats(aggregate, ratios)
        assert len(pis) == 3
        assert all(0.0 <= p <= 1.0 for p in pis)
        running, product = [], 1.0
        for p in pis:
            product *= p
            running.append(product)
        assert running == gmlss_prefix_estimates(aggregate, ratios)
        assert product == gmlss_point_estimate(aggregate, ratios)


class TestSkipFreeIdentity:
    def test_equals_smlss_without_skipping(self, small_chain_query,
                                           small_chain_partition):
        """On skip-free runs g-MLSS and s-MLSS read the same number."""
        aggregate, ratios = forest_aggregate(
            small_chain_query, small_chain_partition.boundaries, 3,
            n_roots=500, seed=19)
        assert aggregate.total_skips == 0
        assert gmlss_point_estimate(aggregate, ratios) == pytest.approx(
            smlss_prefix_estimates(aggregate, ratios)[-1])

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


class TestBenchmarkHooks:
    """perfbench times the bootstrap by rebinding
    ``repro.core.gmlss.bootstrap_variance`` and spans the samplers by
    rebinding ``run`` on their classes.  If the round loop stopped
    calling through that binding, the benchmark would silently book the
    bootstrap's time to the sampler instead."""

    def test_run_and_curve_call_the_module_binding(
            self, monkeypatch, small_chain_query, small_chain_partition):
        from repro.core import gmlss as gmlss_module

        calls = []
        original = gmlss_module.bootstrap_variance

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gmlss_module, "bootstrap_variance", counting)
        sampler = GMLSSSampler(small_chain_partition, ratio=3)
        stop = dict(quality=RelativeErrorTarget(target=0.01),
                    max_roots=700, seed=5)
        point = sampler.run(small_chain_query, **stop)
        assert point.details["bootstrap_evals"] >= 2
        assert len(calls) == point.details["bootstrap_evals"]
        del calls[:]
        curve = sampler.run_curve(small_chain_query, **stop)
        assert curve.details["bootstrap_evals"] >= 2
        assert len(calls) == curve.details["bootstrap_evals"]

    def test_run_is_defined_on_the_sampler_classes(self):
        assert "run" in GMLSSSampler.__dict__
        assert "run" in SRSSampler.__dict__


class TestOneRoundLoop:
    """s-MLSS runs the g-MLSS round loop and overrides only what the
    two estimators differ in."""

    def test_smlss_defines_no_loop_of_its_own(self):
        assert not {"run", "run_curve", "_pass"} & set(SMLSSSampler.__dict__)

    def test_smlss_takes_no_bootstrap_option(self, small_chain_partition):
        with pytest.raises(TypeError):
            SMLSSSampler(small_chain_partition, bootstrap_rounds=5)


def assert_trace_ends_at_answer(estimate):
    last = estimate.details["trace"][-1]
    assert (last.n_roots, last.steps, last.probability, last.variance) \
        == (estimate.n_roots, estimate.steps, estimate.probability,
            estimate.variance)


class TestTraceEndsAtAnswer:
    """A budget ends the round loop between checks; the pass then
    appends one trace point built from the final counters."""

    @pytest.mark.parametrize("sampler_class, points", [
        (SMLSSSampler, 19), (GMLSSSampler, 1),
    ])
    def test_budget_only_trace(self, small_chain_query,
                               small_chain_partition, sampler_class,
                               points):
        """s-MLSS checks after every batch (18 before the 50-root
        tail); g-MLSS without a target never checks."""
        estimate = sampler_class(small_chain_partition,
                                 record_trace=True).run(
            small_chain_query, max_roots=1_850, seed=39)
        assert estimate.n_roots == 1_850
        assert len(estimate.details["trace"]) == points
        assert_trace_ends_at_answer(estimate)

    def test_target_stop_adds_no_point(self, small_chain_query,
                                       small_chain_partition):
        """Stopped at a check, the last point already is the answer:
        one point per bootstrap, and no final bootstrap."""
        estimate = GMLSSSampler(small_chain_partition,
                                record_trace=True).run(
            small_chain_query, quality=RelativeErrorTarget(0.2),
            max_roots=10**6, seed=40)
        assert estimate.n_roots < 10**6
        assert len(estimate.details["trace"]) \
            == estimate.details["bootstrap_evals"]
        assert_trace_ends_at_answer(estimate)

    @pytest.mark.parametrize("method", ["srs", "smlss", "gmlss"])
    def test_inline_pool_trace(self, small_chain_query,
                               small_chain_partition, method):
        """The first 2,048-root pooled round ends a 1,800-root run, so
        the MLSS traces hold that one point; SRS records every round."""
        policy = ExecutionPolicy(
            method=method, max_steps=None, max_roots=1_800, seed=39,
            record_trace=True,
            parallel=ParallelPolicy(n_workers=1, pool="inline"))
        plan = {} if method == "srs" else {"partition": small_chain_partition}
        with DurabilityEngine(policy) as engine:
            estimate = engine.answer(small_chain_query, **plan)
        assert estimate.n_roots == 1_800
        assert_trace_ends_at_answer(estimate)


def check_schedule(batch_roots=100, first_check_roots=200, check_growth=1.5):
    """The root counts at which ``batch_roots`` rounds reach each check:
    the first multiple of ``batch_roots`` at or past the scheduled count,
    and at least one round after the previous check."""
    n_roots, due = 0, first_check_roots
    while True:
        n_roots = max(n_roots + batch_roots,
                      math.ceil(due / batch_roots) * batch_roots)
        yield n_roots
        due = max(due + 1, math.ceil(due * check_growth))


@pytest.fixture
def cohort_sizes(monkeypatch):
    """Every ``run_cohort`` call's root count, in call order."""
    sizes = []
    original = VectorizedForestRunner.run_cohort

    def counting(self, n_roots, initial_states=None):
        sizes.append(n_roots)
        return original(self, n_roots, initial_states)

    monkeypatch.setattr(VectorizedForestRunner, "run_cohort", counting)
    return sizes


SCHEDULE_OPTIONS = [
    {},
    {"first_check_roots": 20, "check_growth": 3.0},
    {"batch_roots": 70},
    {"batch_roots": 50, "first_check_roots": 130, "check_growth": 1.2},
]


class TestRoundRule:
    """Uniform rounds run straight to the next check in whole
    ``batch_roots`` cohorts, so the stopping rule runs at the root
    counts ``batch_roots`` rounds reach, one cohort per check."""

    @staticmethod
    def stopped(partition, query, options, seed):
        """The trace points' root counts of a target-stopped answer."""
        estimate = GMLSSSampler(partition, record_trace=True,
                                **options).run(
            query, quality=RelativeErrorTarget(0.1), max_roots=10 ** 6,
            seed=seed)
        assert estimate.n_roots < 10 ** 6
        return [point.n_roots for point in estimate.details["trace"]]

    @pytest.mark.parametrize("options", SCHEDULE_OPTIONS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_checks_fall_on_the_batch_schedule(
            self, small_chain_query, small_chain_partition, options, seed):
        checks = self.stopped(small_chain_partition, small_chain_query,
                              options, seed)
        schedule = check_schedule(**options)
        assert len(checks) >= 3
        assert checks == [next(schedule) for _ in checks]

    @pytest.mark.parametrize("options", SCHEDULE_OPTIONS)
    def test_one_cohort_per_check(self, small_chain_query,
                                  small_chain_partition, options,
                                  cohort_sizes):
        checks = self.stopped(small_chain_partition, small_chain_query,
                              options, seed=5)
        assert cohort_sizes == [after - before for before, after
                                in zip([0] + checks, checks)]

    def test_budget_overshoot_within_one_cohort(self, small_chain_query,
                                                small_chain_partition,
                                                cohort_sizes):
        """A step budget ends the run between far-apart checks: the last
        round is trimmed to what the budget funds, so the overshoot
        stays within one ``batch_roots`` cohort of worst-case trees."""
        sampler = GMLSSSampler(small_chain_partition, first_check_roots=5_000)
        worst = small_chain_query.horizon * sum(np.cumprod(sampler.ratios))
        for seed, max_steps in ((6, 200_000), (7, 450_000), (8, 1_000_000)):
            estimate = sampler.run(small_chain_query,
                                   quality=RelativeErrorTarget(0.01),
                                   max_steps=max_steps, seed=seed)
            assert max_steps <= estimate.steps \
                <= max_steps + sampler.batch_roots * worst
        assert max(cohort_sizes) > sampler.batch_roots

    @pytest.mark.parametrize("batch_roots", [100, 3_000])
    def test_fused_uniform_round_capped(self, batch_roots, cohort_sizes):
        from repro.core.fleet import screen_fleet_mlss
        walks = [RandomWalkProcess(p_up=p_up, p_down=0.45)
                 for p_up in (0.3, 0.32, 0.34, 0.36)]
        screen_fleet_mlss(
            fuse_processes(walks), RandomWalkProcess.position, [10.0] * 4,
            LevelPartition([0.4, 0.7]), horizon=40,
            quality=RelativeErrorTarget(0.01), max_roots=12_000,
            batch_roots=batch_roots, first_check_roots=5_000,
            adaptive=False, seed=9)
        # Each member's check is 5,000 roots away: the round stops at the
        # cap, or at one cohort per member when that alone is more.
        assert max(cohort_sizes) <= max(DEFAULT_MAX_ROUND_ROOTS,
                                        4 * batch_roots)
        assert max(cohort_sizes) == max(
            DEFAULT_MAX_ROUND_ROOTS // (4 * batch_roots), 1) * 4 * batch_roots
