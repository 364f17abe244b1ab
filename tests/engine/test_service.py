"""Tests for DurabilityEngine: answer, plan caching, batches, curves."""

import math

import pytest

from repro.core.analytic import random_walk_hitting_probability
from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.engine import (DurabilityEngine, ExecutionPolicy,
                          ParallelPolicy, PlanCache)
from repro.processes.random_walk import RandomWalkProcess

from ..helpers import (ScriptedProcess, TwoBranchProcess, assert_close_to,
                       identity_z)

#: Generous confidence for oracle-agreement checks (seeded runs are
#: deterministic; the wide interval guards against unlucky seeds when
#: budgets change).
Z999 = critical_value(0.999)


@pytest.fixture(scope="module")
def walk():
    return RandomWalkProcess(p_up=0.35, p_down=0.45)


@pytest.fixture(scope="module")
def walk_query(walk):
    return DurabilityQuery.threshold(
        walk, RandomWalkProcess.position, beta=10.0, horizon=40,
        name="walk-10-40")


def walk_exact(threshold, horizon=40):
    return random_walk_hitting_probability(0.35, int(threshold), horizon,
                                           p_down=0.45)


class TestAnswer:
    def test_matches_oracle(self, walk_query, small_chain_query,
                            small_chain_exact):
        engine = DurabilityEngine(ExecutionPolicy(max_roots=2000, seed=1))
        estimate = engine.answer(small_chain_query)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_stopping_rule_contract(self, walk_query):
        engine = DurabilityEngine()
        with pytest.raises(ValueError, match="stopping rule"):
            engine.answer(walk_query)

    def test_second_answer_hits_the_plan_cache(self, walk_query):
        engine = DurabilityEngine(
            ExecutionPolicy(max_steps=60_000, seed=2, trial_steps=5_000))
        first = engine.answer(walk_query)
        second = engine.answer(walk_query)
        assert first.details["plan_cache"] == "miss"
        assert first.details["plan_search"]["search_steps"] > 0
        assert second.details["plan_cache"] == "hit"
        # No search ran, so none is reported; the served plan is the
        # searched one, so the same seed gives the same answer.
        assert "plan_search" not in second.details
        assert (second.probability, second.n_roots, second.steps) == \
            (first.probability, first.n_roots, first.steps)
        assert engine.cache_stats()["hits"] == 1

    def test_plan_cache_can_be_disabled(self, walk_query):
        engine = DurabilityEngine(
            ExecutionPolicy(max_steps=60_000, seed=2, trial_steps=5_000,
                            use_plan_cache=False))
        engine.answer(walk_query)
        second = engine.answer(walk_query)
        assert "plan_cache" not in second.details
        assert second.details["plan_search"]["search_steps"] > 0

    def test_balanced_plans_are_cached_too(self, walk_query):
        engine = DurabilityEngine(
            ExecutionPolicy(max_steps=60_000, seed=3, num_levels=3))
        first = engine.answer(walk_query)
        second = engine.answer(walk_query)
        assert first.details["plan_cache"] == "miss"
        assert second.details["plan_cache"] == "hit"

    def test_shared_cache_across_engines(self, walk_query):
        cache = PlanCache()
        policy = ExecutionPolicy(max_steps=60_000, seed=2, trial_steps=5_000)
        DurabilityEngine(policy, plan_cache=cache).answer(walk_query)
        estimate = DurabilityEngine(policy, plan_cache=cache).answer(
            walk_query)
        assert estimate.details["plan_cache"] == "hit"

    def test_per_call_overrides(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(max_roots=500, seed=4))
        estimate = engine.answer(walk_query, method="srs", max_roots=100)
        assert estimate.method == "srs"
        assert estimate.n_roots == 100


class TestDurabilityCurve:
    THRESHOLDS = (4.0, 6.0, 8.0, 10.0)

    def _check_against_oracle(self, curve):
        assert list(curve.thresholds) == sorted(self.THRESHOLDS)
        for beta, estimate in curve:
            assert_close_to(estimate.probability, walk_exact(beta),
                            max(estimate.std_error, 2e-4))

    def test_srs_curve_matches_oracle(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=20_000, seed=5))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        assert curve.method == "srs"
        assert curve.n_roots == 20_000
        self._check_against_oracle(curve)

    def test_gmlss_curve_matches_oracle(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="gmlss",
                                                  max_roots=4_000, seed=6))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        assert curve.method == "gmlss"
        self._check_against_oracle(curve)

    def test_curve_agrees_with_independent_answers(self, walk_query):
        """The one-pass curve and per-threshold answer() calls agree
        within joint CI half-widths (the satellite acceptance check)."""
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=20_000, seed=7))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        for beta, curve_estimate in curve:
            independent = engine.answer(
                walk_query.with_threshold(beta), seed=int(beta) * 11)
            joint_half = Z999 * math.sqrt(curve_estimate.variance
                                          + independent.variance)
            assert abs(curve_estimate.probability
                       - independent.probability) <= joint_half, beta

    def test_curve_is_monotone_nonincreasing(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=5_000, seed=8))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        probabilities = curve.probabilities()
        assert probabilities == sorted(probabilities, reverse=True)

    def test_curve_shares_one_pass(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=2_000, seed=9))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        assert all(e.steps == curve.steps for e in curve.estimates)
        assert all(e.details["shared_pass"] for e in curve.estimates)

    def test_needs_threshold_query(self, walk):
        engine = DurabilityEngine(ExecutionPolicy(max_roots=10))
        query = DurabilityQuery(process=walk,
                                value_function=lambda state, t: 0.0,
                                horizon=10)
        with pytest.raises(TypeError, match="ThresholdValueFunction"):
            engine.durability_curve(query, [1.0, 2.0])

    def test_rejects_duplicate_thresholds(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(max_roots=10))
        with pytest.raises(ValueError, match="duplicate"):
            engine.durability_curve(walk_query, [4.0, 4.0, 8.0])

    def test_mlss_rejects_thresholds_below_initial_value(self):
        from repro.processes.markov_chain import birth_death_chain

        chain = birth_death_chain(n=13, p_up=0.3, p_down=0.3, start=6)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=12.0, horizon=40)
        engine = DurabilityEngine(ExecutionPolicy(method="gmlss",
                                                  max_roots=100, seed=1))
        with pytest.raises(ValueError, match="initial state"):
            # 3/12 = 0.25 <= initial value 0.5.
            engine.durability_curve(query, [3.0, 9.0, 12.0])

    def test_estimate_at_unknown_threshold_raises(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=500, seed=10))
        curve = engine.durability_curve(walk_query, self.THRESHOLDS)
        with pytest.raises(KeyError):
            curve.estimate_at(5.0)


class TestAnswerBatch:
    def test_compatible_queries_share_a_cohort(self, walk, walk_query):
        queries = [walk_query.with_threshold(b) for b in (8.0, 4.0, 6.0)]
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=10_000, seed=11))
        results = engine.answer_batch(queries)
        assert len(results) == 3
        for query, estimate in zip(queries, results):
            assert estimate.details["cohort_size"] == 3
            beta = query.value_function.beta
            assert_close_to(estimate.probability, walk_exact(beta),
                            estimate.std_error)
        # Lower thresholds are easier: input order was preserved.
        assert results[1].probability > results[2].probability \
            > results[0].probability

    def test_mixed_batch_keeps_input_order(self, walk, walk_query):
        other = DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.45, p_down=0.45),
            RandomWalkProcess.position, beta=6.0, horizon=20)
        queries = [walk_query.with_threshold(6.0), other,
                   walk_query.with_threshold(8.0)]
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=4_000, seed=12))
        results = engine.answer_batch(queries)
        assert results[0].details.get("cohort_size") == 2
        assert results[2].details.get("cohort_size") == 2
        assert "cohort_size" not in results[1].details
        assert_close_to(
            results[1].probability,
            random_walk_hitting_probability(0.45, 6, 20, p_down=0.45),
            results[1].std_error)

    def test_single_member_groups_run_individually(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=2_000, seed=13))
        results = engine.answer_batch([walk_query])
        assert len(results) == 1
        assert "cohort_size" not in results[0].details

    def test_mlss_cohort_with_degenerate_member_fails_clearly(self):
        from repro.core.forest import LevelPlanError
        from repro.processes.markov_chain import birth_death_chain

        chain = birth_death_chain(n=13, p_up=0.3, p_down=0.3, start=6)
        base = DurabilityQuery.threshold(chain, chain.state_value,
                                         beta=12.0, horizon=40)
        # beta=3 is at most the initial state's z-value 6, so that
        # member is trivially satisfied: the cohort pass refuses the
        # grid, and the individual fallback surfaces the member's own
        # clear error instead of a biased cohort answer.
        queries = [base.with_threshold(b) for b in (3.0, 12.0)]
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=400, seed=14, trial_steps=3_000))
        with pytest.raises(LevelPlanError, match="trivially"):
            engine.answer_batch(queries)

    def test_cohort_members_get_independent_estimate_objects(
            self, walk_query):
        """Members (even with identical thresholds) own their estimate
        and details, so callers can tag results per query."""
        queries = [walk_query.with_threshold(b) for b in (6.0, 6.0, 8.0)]
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=1_000, seed=16))
        results = engine.answer_batch(queries)
        assert results[0].probability == results[1].probability
        assert results[0] is not results[1]
        results[0].details["label"] = "mine"
        assert "label" not in results[1].details

    def test_batch_seeds_are_deterministic(self, walk_query):
        policy = ExecutionPolicy(method="srs", max_roots=1_000, seed=15)
        queries = [walk_query.with_threshold(b) for b in (4.0, 8.0)]
        first = DurabilityEngine(policy).answer_batch(queries)
        second = DurabilityEngine(policy).answer_batch(queries)
        assert [e.probability for e in first] == \
            [e.probability for e in second]


class TestBatchSeedComposition:
    """Seeds derive from query *structure*, not batch position: a query
    answered alone must give the same result regardless of what else is
    in the batch or where it sits (the singleton-seeding regression)."""

    def incompatible(self):
        # A non-threshold value function never joins a cohort.
        return DurabilityQuery(
            process=RandomWalkProcess(p_up=0.4, p_down=0.4),
            value_function=lambda state, t: min(max(state / 30.0, 0.0),
                                                1.0),
            horizon=15)

    def test_singleton_result_independent_of_batch_composition(
            self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=1_000,
                                                  seed=21))
        alone = engine.answer_batch([walk_query])[0]
        behind = engine.answer_batch([self.incompatible(),
                                      walk_query])[1]
        in_front = engine.answer_batch([walk_query,
                                        self.incompatible()])[0]
        assert alone.probability == behind.probability
        assert alone.probability == in_front.probability

    def test_cohort_results_independent_of_member_order(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=1_000,
                                                  seed=22))
        forward = engine.answer_batch(
            [walk_query.with_threshold(b) for b in (4.0, 6.0, 8.0)])
        backward = engine.answer_batch(
            [walk_query.with_threshold(b) for b in (8.0, 6.0, 4.0)])
        assert [e.probability for e in forward] == \
            [e.probability for e in reversed(backward)]


class TestFusedBatch:
    """Same-family, different-process queries share one fused pass."""

    def fleet_queries(self, n=6, horizon=30):
        return [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.35 + 0.02 * i, p_down=0.45),
            RandomWalkProcess.position, beta=6.0 + (i % 3), horizon=horizon)
            for i in range(n)]

    def test_fleet_fuses_into_one_cohort(self):
        queries = self.fleet_queries()
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=2_000,
                                                  seed=17))
        results = engine.answer_batch(queries)
        for estimate in results:
            assert estimate.details["fused"]
            assert estimate.details["cohort_size"] == len(queries)
            assert "backend" not in estimate.details
            assert estimate.details["cohort_id"] == 0

    def test_fused_answers_match_oracle(self):
        queries = self.fleet_queries(n=4, horizon=40)
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=20_000,
                                                  seed=18))
        results = engine.answer_batch(queries)
        for query, estimate in zip(queries, results):
            process = query.process
            exact = random_walk_hitting_probability(
                process.p_up, int(query.value_function.beta),
                query.horizon, p_down=process.p_down)
            assert_close_to(estimate.probability, exact,
                            max(Z999 * estimate.std_error / 3.3, 2e-4))

    def test_fused_agrees_with_individual_answers(self):
        queries = self.fleet_queries(n=4, horizon=40)
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=10_000,
                                                  seed=19))
        fused = engine.answer_batch(queries)
        for query, estimate in zip(queries, fused):
            independent = engine.answer(query, seed=1234)
            joint = Z999 * math.sqrt(estimate.variance
                                     + independent.variance)
            assert abs(estimate.probability
                       - independent.probability) <= joint + 1e-4

    def test_fuse_flag_disables_fusion(self):
        queries = self.fleet_queries()
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=500, seed=20,
                                                  fuse=False))
        results = engine.answer_batch(queries)
        for estimate in results:
            assert "fused" not in estimate.details

    def test_mlss_fleet_falls_back_to_per_process(self):
        # Fused screening is an SRS pass; MLSS policies regroup per
        # process object (here: all singletons) instead of fusing.
        queries = self.fleet_queries(n=3)
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=300, seed=21, trial_steps=2_000))
        results = engine.answer_batch(queries)
        for estimate in results:
            assert estimate.method == "gmlss"
            assert "fused" not in estimate.details

    def test_mixed_family_fleet_forms_one_cohort_per_family(self):
        from repro.processes import GBMProcess

        walk_queries = self.fleet_queries(n=2)
        gbm_queries = [DurabilityQuery.threshold(
            GBMProcess(start_price=100.0, sigma=0.01 + 0.01 * i),
            GBMProcess.price, beta=104.0, horizon=30) for i in range(2)]
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=500, seed=23))
        results = engine.answer_batch(walk_queries + gbm_queries)
        assert results[0].details["cohort_id"] \
            == results[1].details["cohort_id"]
        assert results[2].details["cohort_id"] \
            == results[3].details["cohort_id"]
        assert results[0].details["cohort_id"] \
            != results[2].details["cohort_id"]
        assert all(e.details["cohort_size"] == 2 for e in results)


class TestParallelExecution:
    """ExecutionPolicy.parallel drives the engine's persistent pool."""

    @staticmethod
    def parallel_engine(n_workers, **policy_kwargs):
        from repro.engine import ParallelPolicy
        return DurabilityEngine(ExecutionPolicy(
            parallel=ParallelPolicy(n_workers=n_workers),
            **policy_kwargs))

    def test_answer_invariant_under_worker_count(self, walk_query):
        outcomes = []
        for n_workers in (1, 2, 4):
            with self.parallel_engine(n_workers, method="srs",
                                      max_roots=3_000, seed=11) as engine:
                estimate = engine.answer(walk_query)
            outcomes.append((estimate.probability, estimate.variance,
                             estimate.steps))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_pooled_answer_matches_oracle(self, small_chain_query,
                                          small_chain_exact):
        with self.parallel_engine(2, method="srs", max_roots=10_000,
                                  seed=12) as engine:
            estimate = engine.answer(small_chain_query)
        assert estimate.details["parallel"]["n_workers"] == 2
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_pooled_mlss_answer_matches_oracle(self, small_chain_query,
                                               small_chain_partition,
                                               small_chain_exact):
        with self.parallel_engine(2, method="gmlss", max_roots=1_500,
                                  seed=13) as engine:
            estimate = engine.answer(small_chain_query,
                                     partition=small_chain_partition)
        assert estimate.n_roots == 1_500
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_pooled_curve_invariant_under_worker_count(self, walk_query):
        outcomes = []
        for n_workers in (1, 3):
            with self.parallel_engine(n_workers, method="srs",
                                      max_roots=2_000, seed=14) as engine:
                curve = engine.durability_curve(walk_query,
                                                [4.0, 7.0, 10.0])
            outcomes.append(tuple(e.probability for e in curve.estimates))
        assert outcomes[0] == outcomes[1]

    def test_pooled_fused_batch_invariant_under_worker_count(self):
        queries = [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.35 + 0.02 * i, p_down=0.45),
            RandomWalkProcess.position, beta=6.0 + i, horizon=30)
            for i in range(4)]
        outcomes = []
        for n_workers in (1, 2):
            with self.parallel_engine(n_workers, method="srs",
                                      max_roots=1_500, seed=15) as engine:
                answers = engine.answer_batch(queries)
            assert all(a.details.get("fused") for a in answers)
            outcomes.append(tuple(a.probability for a in answers))
        assert outcomes[0] == outcomes[1]

    def test_pool_persists_across_calls_and_close_recycles(self,
                                                           walk_query):
        engine = self.parallel_engine(2, method="srs", max_roots=500,
                                      seed=16)
        engine.answer(walk_query)
        pool = engine._pool
        assert pool is not None and not pool.closed
        engine.answer(walk_query)
        assert engine._pool is pool  # same persistent pool
        engine.close()
        assert engine._pool is None
        # The engine stays usable: a fresh pool is built on demand.
        estimate = engine.answer(walk_query)
        assert estimate.n_roots == 500
        engine.close()

    def test_sequential_engine_has_no_pool(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=200, seed=1))
        engine.answer(walk_query)
        assert engine._pool is None


class TestDurabilityCurves:
    """Batched curves: fused fleet grids through one shared pass."""

    @staticmethod
    def fleet_queries(n=4, horizon=30):
        return [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.33 + 0.03 * i, p_down=0.45),
            RandomWalkProcess.position, beta=8.0, horizon=horizon)
            for i in range(n)]

    def test_fused_curves_match_oracle(self):
        from repro.core.analytic import random_walk_hitting_curve
        queries = self.fleet_queries()
        grid = [4.0, 6.0, 8.0]
        engine = DurabilityEngine(ExecutionPolicy(
            method="srs", max_roots=15_000, seed=31))
        curves = engine.durability_curves(queries, grid)
        assert all(c.details.get("fused") for c in curves)
        assert len({c.details["cohort_id"] for c in curves}) == 1
        for query, curve in zip(queries, curves):
            process = query.process
            exact = random_walk_hitting_curve(
                process.p_up, grid, query.horizon,
                p_down=process.p_down)
            for estimate, truth in zip(curve.estimates, exact):
                assert abs(estimate.probability - float(truth)) <= \
                    Z999 * estimate.std_error + 3e-3

    def test_per_query_grids(self):
        queries = self.fleet_queries(n=2)
        curves = DurabilityEngine(ExecutionPolicy(
            method="srs", max_roots=500, seed=32)).durability_curves(
            queries, [[3.0, 6.0], [2.0, 4.0, 8.0]])
        assert [len(c.estimates) for c in curves] == [2, 3]
        assert curves[0].thresholds == (3.0, 6.0)

    def test_non_fusible_queries_fall_back_to_single_passes(self, walk):
        from repro.core.analytic import random_walk_hitting_curve
        queries = [DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=8.0, horizon=40)]
        curves = DurabilityEngine(ExecutionPolicy(
            method="srs", max_roots=8_000, seed=33)).durability_curves(
            queries, [4.0, 8.0])
        assert len(curves) == 1
        assert "fused" not in curves[0].details
        exact = random_walk_hitting_curve(walk.p_up, [4.0, 8.0], 40,
                                          p_down=walk.p_down)
        for estimate, truth in zip(curves[0].estimates, exact):
            assert abs(estimate.probability - float(truth)) <= \
                Z999 * estimate.std_error + 3e-3

    def test_results_are_repeatable_under_a_seed(self):
        queries = self.fleet_queries(n=3)
        engine = DurabilityEngine(ExecutionPolicy(
            method="srs", max_roots=1_000, seed=34))
        first = engine.durability_curves(queries, [4.0, 8.0])
        second = engine.durability_curves(queries, [4.0, 8.0])
        for a, b in zip(first, second):
            assert [e.probability for e in a.estimates] == \
                [e.probability for e in b.estimates]
        # A solo "batch" of one is answered alone both times, with a
        # structurally derived seed.
        alone = engine.durability_curves([queries[0]], [4.0, 8.0])[0]
        solo_again = engine.durability_curves([queries[0]], [4.0, 8.0])[0]
        assert [e.probability for e in alone.estimates] == \
            [e.probability for e in solo_again.estimates]

    def test_needs_threshold_queries(self, walk):
        query = DurabilityQuery(process=walk,
                                value_function=lambda s, t: float(s),
                                horizon=5)
        with pytest.raises(TypeError, match="Threshold"):
            DurabilityEngine(ExecutionPolicy(max_roots=5)) \
                .durability_curves([query], [1.0, 2.0])

    def test_grid_count_must_match_queries(self):
        queries = self.fleet_queries(n=2)
        with pytest.raises(ValueError, match="grids"):
            DurabilityEngine(ExecutionPolicy(max_roots=5)) \
                .durability_curves(queries, [[1.0], [2.0], [3.0]])

    @pytest.mark.parametrize("grid", [[3.0, math.inf], [3.0, math.nan],
                                      [-math.inf, 3.0]])
    def test_non_finite_grid_raises_from_both_entry_points(self, grid):
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=50, seed=35))
        queries = self.fleet_queries(n=2)
        with pytest.raises(ValueError, match="finite"):
            engine.durability_curve(queries[0], grid)
        with pytest.raises(ValueError, match="finite"):
            engine.durability_curves(queries, grid)

    def test_unsorted_grid_gets_the_sorted_grids_curve(self):
        def answers(curves):
            return [(curve.thresholds, curve.levels,
                     [(e.probability, e.variance, e.n_roots, e.hits,
                       e.steps) for e in curve.estimates])
                    for curve in curves]

        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=400, seed=36))
        queries = self.fleet_queries(n=3)
        for unsorted in ([8.0, 4.0, 6.0], [[8.0, 4.0], [6.0, 2.0, 4.0],
                                           [4.0, 8.0]]):
            ordered = ([sorted(grid) for grid in unsorted]
                       if isinstance(unsorted[0], list) else sorted(unsorted))
            assert answers(engine.durability_curves(queries, unsorted)) \
                == answers(engine.durability_curves(queries, ordered))
        assert answers([engine.durability_curve(queries[0],
                                                [8.0, 4.0, 6.0])]) \
            == answers([engine.durability_curve(queries[0],
                                                [4.0, 6.0, 8.0])])
        alone = engine.durability_curves([queries[0]], [8.0, 4.0, 6.0])[0]
        assert alone.thresholds == (4.0, 6.0, 8.0)


class TestFusedMlssFleet:
    """answer_batch: rare-event fleets through one fused splitting forest."""

    @staticmethod
    def rare_fleet(n=3, horizon=60):
        return [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.30 + 0.02 * i, p_down=0.48),
            RandomWalkProcess.position, beta=12.0, horizon=horizon)
            for i in range(n)]

    def test_fleet_fuses_under_gmlss_with_num_levels(self):
        from repro.core.analytic import random_walk_hitting_curve
        queries = self.rare_fleet()
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", num_levels=3, max_roots=4_000, seed=41))
        answers = engine.answer_batch(queries)
        assert all(a.details.get("fused") for a in answers)
        assert all(a.method == "gmlss" for a in answers)
        assert len({a.details["cohort_id"] for a in answers}) == 1
        for query, answer in zip(queries, answers):
            process = query.process
            exact = float(random_walk_hitting_curve(
                process.p_up, [12.0], query.horizon,
                p_down=process.p_down)[0])
            assert abs(answer.probability - exact) <= \
                Z999 * answer.std_error + 5e-4

    def test_without_num_levels_falls_back_per_process(self):
        queries = self.rare_fleet()
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=300, seed=42, trial_steps=2_000))
        answers = engine.answer_batch(queries)
        assert all("fused" not in a.details for a in answers)

    def test_degenerate_plan_falls_back_per_process(self):
        # Members starting above every pruned boundary: the shared plan
        # degenerates and the engine answers per process instead.
        queries = [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.4, p_down=0.45, start=11),
            RandomWalkProcess.position, beta=12.0, horizon=10)
            for _ in range(2)]
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", num_levels=4, max_roots=200, seed=43,
            trial_steps=1_000))
        answers = engine.answer_batch(queries)
        assert all(a.method == "gmlss" for a in answers)


class TestConcurrentEngine:
    """One engine, many threads: the serving-tier usage pattern."""

    def test_close_is_idempotent_and_reentrant(self):
        engine = DurabilityEngine(ExecutionPolicy(
            max_roots=50, seed=7,
            parallel=ParallelPolicy(n_workers=2, pool="inline")))
        pool = engine._get_pool(engine.policy)
        assert pool is not None
        engine.close()
        engine.close()  # double close must be a no-op
        assert engine._pool is None
        # The engine stays usable: the next call builds a fresh pool.
        fresh = engine._get_pool(engine.policy)
        assert fresh is not None and fresh is not pool
        engine.close()

    def test_concurrent_close_and_get_pool_never_leak(self):
        import threading

        engine = DurabilityEngine(ExecutionPolicy(
            max_roots=50, seed=7,
            parallel=ParallelPolicy(n_workers=2, pool="inline")))
        seen, errors = [], []

        def churn(worker_id):
            try:
                for _ in range(10):
                    if worker_id % 2:
                        pool = engine._get_pool(engine.policy)
                        if pool is not None:
                            seen.append(pool)
                    else:
                        engine.close()
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        engine.close()
        # Every pool handed out was either the live one or was closed by
        # a concurrent close(); none is left open after the final close.
        assert all(pool.closed for pool in seen)

    def test_concurrent_first_calls_build_exactly_one_pool(self):
        import threading

        engine = DurabilityEngine(ExecutionPolicy(
            max_roots=50, seed=7,
            parallel=ParallelPolicy(n_workers=2, pool="inline")))
        pools = []
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            pools.append(engine._get_pool(engine.policy))

        threads = [threading.Thread(target=race) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, pools))) == 1  # single-flight
        engine.close()

    def test_concurrent_answers_share_one_engine(self, walk_query):
        import threading

        engine = DurabilityEngine(ExecutionPolicy(max_roots=400, seed=9))
        results, errors = {}, []

        def ask(index):
            try:
                results[index] = engine.answer(walk_query)
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Structural seeding: every concurrent caller gets the same
        # deterministic answer, regardless of interleaving.
        baseline = engine.answer(walk_query)
        for estimate in results.values():
            assert estimate.probability == baseline.probability
            assert estimate.n_roots == baseline.n_roots
        engine.close()


class TestPlanProvenance:
    """Answer/curve details record which plan path produced the plan."""

    def test_answer_marks_search_then_cache(self, walk_query):
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=400, seed=51, trial_steps=2_000))
        first = engine.answer(walk_query)
        assert first.details["plan_source"] == "search"
        second = engine.answer(walk_query)
        assert second.details["plan_source"] == "cache"

    def test_curve_without_refinement_marks_grid(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=500, seed=52))
        curve = engine.durability_curve(query, [6.0, 8.0, 10.0])
        assert curve.details["plan_source"] == "grid"
        assert "plan_cache" not in curve.details

    def test_fleet_members_carry_cluster_ids(self):
        queries = [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.32, p_down=0.48, start=start),
            RandomWalkProcess.position, beta=12.0, horizon=30)
            for start in (0, 0, 5, 5)]
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", num_levels=4, max_roots=800, seed=53))
        answers = engine.answer_batch(queries)
        assert all(a.details["fleet_clusters"] == 2 for a in answers)
        assert [a.details["fleet_cluster"] for a in answers] == \
            [0, 0, 1, 1]
        assert all(a.details["plan_source"] == "uniform" for a in answers)
        # Each cluster runs its own fused forest.
        assert answers[0].details["cohort_id"] != \
            answers[2].details["cohort_id"]


class TestCurveAwarePlans:
    """num_levels beyond the grid buys refinement boundaries between
    the read-out levels (curve-aware plan search)."""

    GRID = [5.0, 8.0, 10.0]

    @staticmethod
    def engine(num_levels=None, seed=54, **kwargs):
        return DurabilityEngine(ExecutionPolicy(
            method="gmlss", num_levels=num_levels, max_roots=1_500,
            seed=seed, trial_steps=2_000, **kwargs))

    def test_refined_curve_keeps_grid_readouts(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        curve = self.engine(num_levels=6).durability_curve(
            query, self.GRID)
        assert curve.details["plan_source"] == "curve_aware"
        assert curve.details["plan_cache"] == "miss"
        assert list(curve.thresholds) == self.GRID
        assert len(curve.estimates) == len(self.GRID)

    def test_refined_curve_matches_oracle(self, walk):
        from repro.core.analytic import random_walk_hitting_curve
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        curve = self.engine(num_levels=6).durability_curve(
            query, self.GRID)
        exact = random_walk_hitting_curve(walk.p_up, self.GRID, 40,
                                          p_down=walk.p_down)
        for threshold, target in zip(self.GRID, exact):
            estimate = curve.estimate_at(threshold)
            assert abs(estimate.probability - float(target)) <= \
                Z999 * estimate.std_error + 5e-3

    def test_second_curve_hits_the_grid_cache(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        engine = self.engine(num_levels=6)
        first = engine.durability_curve(query, self.GRID)
        second = engine.durability_curve(query, self.GRID)
        assert first.details["plan_cache"] == "miss"
        assert second.details["plan_cache"] == "hit"
        assert [e.probability for e in second.estimates] == \
            [e.probability for e in first.estimates]

    def test_grid_cache_keys_do_not_collide_across_grids(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        engine = self.engine(num_levels=6)
        engine.durability_curve(query, self.GRID)
        other = engine.durability_curve(query, [6.0, 9.0, 10.0])
        assert other.details["plan_cache"] == "miss"

    def test_num_levels_at_grid_size_stays_plain(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        curve = self.engine(num_levels=3).durability_curve(
            query, self.GRID)
        assert curve.details["plan_source"] == "grid"


class TestCurveAwareParallelDeterminism:
    """Pooled curve-aware answers must not depend on the worker count
    or the pool mode.  The inline pool is the reference: it runs each
    task only when its result is collected, so no speculative round
    ever executes there."""

    def test_byte_identical_across_pool_configs(self, walk):
        query = DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=10.0, horizon=40)
        signatures = []
        for mode, n_workers in (("inline", 2), ("fork", 2),
                                ("fork", 3)):
            engine = DurabilityEngine(ExecutionPolicy(
                method="gmlss", num_levels=6, max_roots=1_024, seed=57,
                trial_steps=2_000,
                parallel=ParallelPolicy(n_workers=n_workers, pool=mode,
                                        roots_per_task=128)))
            try:
                curve = engine.durability_curve(query, [5.0, 8.0, 10.0])
            finally:
                engine.close()
            signatures.append(tuple(
                (e.probability, e.variance, e.n_roots, e.hits, e.steps)
                for e in curve.estimates))
        assert all(s == signatures[0] for s in signatures[1:])

    def test_fleet_answers_match_inline(self):
        queries = [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.30 + 0.02 * i, p_down=0.48),
            RandomWalkProcess.position, beta=12.0, horizon=30)
            for i in range(3)]
        signatures = []
        for mode in ("inline", "fork"):
            engine = DurabilityEngine(ExecutionPolicy(
                method="gmlss", num_levels=3, max_roots=600, seed=58,
                parallel=ParallelPolicy(n_workers=2, pool=mode,
                                        members_per_task=2)))
            try:
                answers = engine.answer_batch(queries)
            finally:
                engine.close()
            signatures.append(tuple(
                (a.probability, a.variance, a.n_roots, a.hits, a.steps)
                for a in answers))
        assert all(s == signatures[0] for s in signatures[1:])


#: A strict pooled budget below one SRS path: horizon 80 but
#: ``max_steps`` 50.
TINY_BUDGET_QUERY = DurabilityQuery.threshold(
    RandomWalkProcess(p_up=0.55, p_down=0.4), RandomWalkProcess.position,
    beta=4.0, horizon=80)
TINY_BUDGET_POLICY = ExecutionPolicy(
    method="srs", max_steps=50, seed=3,
    parallel=ParallelPolicy(pool="inline"))

#: A searched deep plan (11 levels) whose worst-case root tree costs
#: more than an even eighth of the budget: the rare-event walk
#: ``walk14/0.2/0.3/100``.
DEEP_PLAN_QUERY = DurabilityQuery.threshold(
    RandomWalkProcess(p_up=0.2, p_down=0.3), RandomWalkProcess.position,
    beta=14.0, horizon=100)

#: A balanced pilot that cannot fit a tail: a walk that almost always
#: reaches its threshold of 1.
EASY_WALK_QUERY = DurabilityQuery.threshold(
    RandomWalkProcess(p_up=0.9, p_down=0.05), RandomWalkProcess.position,
    beta=1.0, horizon=80)


class TestTypedBudgetAndPlanErrors:
    """Answers never come from zero samples; plan failures are typed."""

    def test_pooled_budget_below_one_path_raises(self):
        from repro.core.pool import StepBudgetError
        with DurabilityEngine(TINY_BUDGET_POLICY) as engine:
            with pytest.raises(StepBudgetError, match="max_steps=50.*80"):
                engine.answer(TINY_BUDGET_QUERY)
        # Unpooled runs are cohort-granular and still answer: under
        # max_steps=50 and horizon 80 every round holds one root, and
        # the run stops at the first root that brings steps to 50.
        direct = DurabilityEngine(
            TINY_BUDGET_POLICY.replace(parallel=None)).answer(
            TINY_BUDGET_QUERY)
        assert direct.n_roots >= 1
        assert 50 <= direct.steps < 50 + 80

    def test_pooled_deep_plan_answers_from_roots(self):
        exact = random_walk_hitting_probability(0.2, 14, 100, p_down=0.3)
        with DurabilityEngine(ExecutionPolicy(
                method="auto", quality=RelativeErrorTarget(0.2),
                max_steps=50_000_000, seed=1014,
                parallel=ParallelPolicy(pool="inline"))) as engine:
            estimate = engine.answer(DEEP_PLAN_QUERY)
        assert estimate.details["plan_search"]["partition"].num_levels \
            == 11
        assert estimate.n_roots > 0
        assert estimate.steps <= 50_000_000
        assert abs(estimate.probability - exact) \
            <= 5 * estimate.std_error

    def test_balanced_plan_failure_is_a_level_plan_error(self):
        from repro.core.forest import LevelPlanError
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", num_levels=3, max_steps=20_000))
        with pytest.raises(LevelPlanError, match="tail"):
            engine.answer(EASY_WALK_QUERY)


class TestSamplerOptions:
    """Each sampler or fleet pass reads only the options it takes."""

    def test_options_reach_the_sampler(self, walk_query):
        estimate = DurabilityEngine().answer(
            walk_query, method="srs", max_roots=300, seed=3,
            record_trace=True, sampler_options={"batch_roots": 50})
        assert [point.n_roots for point in estimate.details["trace"]] \
            == [50, 100, 150, 200, 250, 300]

    def test_fleet_option_is_ignored_by_plain_gmlss(self, walk_query):
        """``adaptive`` tunes fused g-MLSS fleets; a single g-MLSS
        answer takes no such keyword and answers as without it."""
        engine = DurabilityEngine(ExecutionPolicy(
            method="gmlss", max_roots=300, seed=4))
        plan = LevelPartition([0.5])
        plain = engine.answer(walk_query, partition=plan)
        tuned = engine.answer(walk_query, partition=plan,
                              sampler_options={"adaptive": False})
        assert (tuned.probability, tuned.variance, tuned.steps) == \
            (plain.probability, plain.variance, plain.steps)

    @pytest.mark.parametrize("parallel", [
        None, ParallelPolicy(n_workers=1, pool="inline",
                             members_per_task=2, roots_per_task=10)],
        ids=["direct", "inline"])
    def test_check_schedule_moves_single_and_fused_answers(self, parallel):
        """A single g-MLSS answer and a fused g-MLSS fleet grow their
        forests in one round loop, so the check-schedule options move
        both, also inside the pool's member slices.  (A pooled round
        holds at least 8 tasks of ``roots_per_task`` roots; at the
        default 256 the single answer's first 2,048-root round would
        pass every early check point of either schedule.)"""
        fleet = [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.30 + 0.01 * i, p_down=0.45),
            RandomWalkProcess.position, beta=10.0 + i % 3, horizon=60)
            for i in range(4)]
        policy = ExecutionPolicy(method="gmlss", num_levels=3,
                                 quality=RelativeErrorTarget(0.2),
                                 seed=32, parallel=parallel)
        tuned = {"first_check_roots": 20, "check_growth": 3.0}

        def answers(**overrides):
            with DurabilityEngine(policy) as engine:
                single = engine.answer(fleet[0], **overrides)
                fused = engine.answer_batch(fleet, **overrides)
            assert all(e.details.get("fused") for e in fused)
            return [(e.probability, e.variance, e.n_roots, e.hits, e.steps)
                    for e in [single] + fused]

        plain, moved = answers(), answers(sampler_options=tuned)
        assert all(a != b for a, b in zip(plain, moved))

    @pytest.mark.parametrize("options", [
        {"bogus": 1}, 5, {"batch_roots": 0}, {"backend": "scalar"},
    ])
    def test_bad_options_fail_before_simulating(self, walk_query, options):
        with pytest.raises(ValueError, match="sampler"):
            DurabilityEngine().answer(walk_query, method="srs",
                                      max_roots=10, sampler_options=options)


def scripted_query(script, beta=1.0):
    return DurabilityQuery.threshold(ScriptedProcess(script), identity_z,
                                     beta=beta, horizon=len(script))


#: Scripts hitting the target (answer 1) and staying below it (answer 0).
HIT = (0.2, 0.5, 0.9, 1.2)
MISS = (0.2, 0.3, 0.2, 0.1)

#: Entry-point policies: plain SRS, s-MLSS and g-MLSS on an explicit
#: plan, greedy-searched ``auto``, and SRS / g-MLSS over an inline pool.
INLINE = ParallelPolicy(n_workers=1, pool="inline")
SCALAR_ONLY_CASES = [
    ("srs", {"method": "srs"}, None),
    ("smlss", {"method": "smlss"}, LevelPartition([0.4, 0.8])),
    ("gmlss", {"method": "gmlss"}, LevelPartition([0.4, 0.8])),
    ("auto", {"method": "auto", "trial_steps": 2_000}, None),
    ("inline_srs", {"method": "srs", "parallel": INLINE}, None),
    ("inline_gmlss", {"method": "gmlss", "parallel": INLINE},
     LevelPartition([0.4, 0.8])),
]


class TestScalarOnlyProcesses:
    """Processes that define only ``step`` answer on every entry point.

    They run the samplers' batched loops inside a ``ScalarFallback``.
    Deterministic scripts must answer exactly 0 or 1; the two-branch
    process must land within 4 standard errors of ``p_first``.
    """

    @pytest.mark.parametrize("label,fields,plan", SCALAR_ONLY_CASES,
                             ids=[case[0] for case in SCALAR_ONLY_CASES])
    def test_answer(self, label, fields, plan):
        engine = DurabilityEngine(ExecutionPolicy(max_roots=2_000, seed=5,
                                                  **fields))
        for script, expected in ((HIT, 1.0), (MISS, 0.0)):
            estimate = engine.answer(scripted_query(script), partition=plan)
            assert estimate.probability == expected, (label, script)
        process = TwoBranchProcess(first=HIT, second=MISS, p_first=0.3)
        query = DurabilityQuery.threshold(process, TwoBranchProcess.value,
                                          beta=1.0, horizon=len(HIT))
        estimate = engine.answer(query, partition=plan)
        assert_close_to(estimate.probability, 0.3, estimate.std_error,
                        z_bound=4.0)

    @pytest.mark.parametrize("method", ["srs", "gmlss"])
    def test_durability_curve(self, method):
        engine = DurabilityEngine(ExecutionPolicy(method=method,
                                                  max_roots=500, seed=6))
        for script, expected in ((HIT, 1.0), (MISS, 0.0)):
            curve = engine.durability_curve(scripted_query(script),
                                            [0.5, 0.85, 1.0])
            assert [e.probability for e in curve.estimates] \
                == [expected] * 3, (method, script)

    def test_answer_batch(self):
        hit = scripted_query(HIT)
        process = TwoBranchProcess(first=HIT, second=MISS, p_first=0.6)
        branch = DurabilityQuery.threshold(process, TwoBranchProcess.value,
                                           beta=1.0, horizon=len(HIT))
        # The first two share a process object: one shared curve pass.
        queries = [hit, hit.with_threshold(0.8), scripted_query(MISS),
                   branch]
        engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                                  max_roots=3_000, seed=7))
        results = engine.answer_batch(queries)
        assert [e.probability for e in results[:3]] == [1.0, 1.0, 0.0]
        assert results[0].details["cohort_size"] == 2
        assert_close_to(results[3].probability, 0.6,
                        results[3].std_error, z_bound=4.0)
