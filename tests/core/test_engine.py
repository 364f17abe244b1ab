"""Tests for answering one query from scratch.

A one-off caller holds a fresh :class:`DurabilityEngine` whose plan
cache is off, so every answer runs plan resolution and simulation
anew; :func:`repro.engine.resolve_plan` is the cache-less plan
precedence behind it.
"""

import pytest

from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.engine import DurabilityEngine, ExecutionPolicy, resolve_plan

from ..helpers import assert_close_to


def answer_once(query, partition=None, **fields):
    """Answer ``query`` on a fresh engine with the plan cache off."""
    policy = ExecutionPolicy(use_plan_cache=False, **fields)
    return DurabilityEngine(policy).answer(query, partition=partition)


def plan_without_cache(query, partition, num_levels, ratio, trial_steps,
                       seed):
    """The plan and its search details (None when no search ran),
    without a plan cache."""
    plan, details = resolve_plan(
        query, partition, num_levels, ratio, trial_steps, seed)
    return plan, details.get("plan_search")


class TestAnswerDurabilityQuery:
    def test_srs_method(self, small_chain_query, small_chain_exact):
        estimate = answer_once(
            small_chain_query, method="srs", max_roots=5000, seed=1)
        assert estimate.method == "srs"
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_smlss_with_explicit_partition(self, small_chain_query,
                                           small_chain_partition,
                                           small_chain_exact):
        estimate = answer_once(
            small_chain_query, method="smlss",
            partition=small_chain_partition, max_roots=2000, seed=2)
        assert estimate.method == "smlss"
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_gmlss_with_balanced_levels(self, small_chain_query,
                                        small_chain_exact):
        estimate = answer_once(
            small_chain_query, method="gmlss", num_levels=3,
            max_roots=2000, seed=3, trial_steps=30_000)
        assert estimate.method == "gmlss"
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_auto_runs_greedy_search(self, small_chain_query,
                                     small_chain_exact):
        estimate = answer_once(
            small_chain_query, method="auto", max_steps=150_000, seed=4,
            trial_steps=8_000)
        search = estimate.details["plan_search"]
        assert search["search_steps"] > 0
        assert search["search_rounds"] >= 1
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_partition_pruned_against_initial_state(self, small_chain_query):
        # Chain starts at state 0 -> initial value 0; nothing pruned.
        # Use a partition with a boundary below an artificial initial
        # value via a process that starts higher.
        from repro.processes.markov_chain import birth_death_chain
        from repro.core.value_functions import DurabilityQuery

        chain = birth_death_chain(n=13, p_up=0.3, p_down=0.3, start=6)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=12.0, horizon=40)
        estimate = answer_once(
            query, method="gmlss",
            partition=LevelPartition([0.25, 0.75]),  # 0.25 < 6/12
            max_roots=500, seed=5)
        assert estimate.details["partition"] == LevelPartition([0.75])

    def test_quality_target_forwarded(self, small_chain_query,
                                      small_chain_partition):
        estimate = answer_once(
            small_chain_query, method="smlss",
            partition=small_chain_partition,
            quality=RelativeErrorTarget(target=0.3), max_roots=10**6,
            seed=6)
        assert estimate.relative_error() <= 0.3 + 1e-9
        assert estimate.n_roots < 10**6

    def test_unknown_method_rejected(self, small_chain_query):
        with pytest.raises(ValueError):
            answer_once(small_chain_query, method="magic",
                        max_roots=10)

    def test_missing_stopping_rule_rejected(self, small_chain_query):
        """The documented contract: at least one of quality, max_steps,
        max_roots must be given — enforced with a clear error before
        any plan search runs."""
        for method in ("srs", "gmlss", "auto"):
            with pytest.raises(ValueError, match="stopping rule"):
                answer_once(small_chain_query, method=method)

    def test_missing_stopping_rule_fails_before_plan_search(
            self, small_chain_query):
        import time

        started = time.perf_counter()
        with pytest.raises(ValueError):
            # trial_steps this large would take minutes if the greedy
            # search ran before the stopping rule was checked.
            answer_once(small_chain_query, method="auto",
                        trial_steps=10 ** 9)
        assert time.perf_counter() - started < 5.0

    def test_sampler_options_forwarded(self, small_chain_query,
                                       small_chain_partition):
        estimate = answer_once(
            small_chain_query, method="smlss",
            partition=small_chain_partition, max_roots=300, seed=7,
            sampler_options={"batch_roots": 50}, record_trace=True)
        assert "trace" in estimate.details


class TestResolvePartition:
    def test_explicit_partition_wins(self, small_chain_query):
        plan = LevelPartition([0.5])
        resolved, details = plan_without_cache(
            small_chain_query, plan, num_levels=4, ratio=3,
            trial_steps=1000, seed=1)
        assert resolved == plan
        assert details is None

    def test_num_levels_builds_balanced_plan(self, small_chain_query):
        resolved, details = plan_without_cache(
            small_chain_query, None, num_levels=3, ratio=3,
            trial_steps=30_000, seed=2)
        assert resolved.num_levels >= 2
        assert details is None

    def test_default_is_greedy_search(self, small_chain_query):
        resolved, details = plan_without_cache(
            small_chain_query, None, num_levels=None, ratio=3,
            trial_steps=6_000, seed=3)
        assert details is not None
        assert details["partition"] == resolved
