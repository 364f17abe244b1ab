"""Plan provenance comes from one cache lookup per answer.

:func:`repro.engine.service.resolve_plan` is the only reader and
writer of the :class:`PlanCache`, so what an answer reports about its
plan (``plan_source``, ``plan_cache``, ``plan_origin``) is what its own
lookup saw, whatever other threads do to the cache meanwhile.
"""

import pytest

from repro.core.levels import LevelPartition
from repro.core.value_functions import DurabilityQuery
from repro.db import PlanStore
from repro.engine import DurabilityEngine, ExecutionPolicy, PlanCache
from repro.engine import service as service_module
from repro.forecast.log import WorkloadLog
from repro.processes.random_walk import RandomWalkProcess

POLICY = ExecutionPolicy(method="gmlss", max_roots=300, seed=61,
                         trial_steps=2_000)
GRID = [6.0, 8.0, 10.0]


def walk_query(beta=10.0):
    walk = RandomWalkProcess(p_up=0.35, p_down=0.45)
    return DurabilityQuery.threshold(walk, RandomWalkProcess.position,
                                     beta=beta, horizon=40)


def provenance(result):
    details = result.details
    return (details.get("plan_source"), details.get("plan_cache"),
            details.get("plan_origin"))


@pytest.fixture
def concurrent_hit(monkeypatch):
    """Make every search end with a cache hit on another, cached shape,
    as a warm answer on another thread would; returns the engine."""
    engine = DurabilityEngine(POLICY)
    other = walk_query(beta=20.0)
    engine.answer(other)
    search = service_module.adaptive_greedy_partition

    def search_then_hit(*args, **kwargs):
        result = search(*args, **kwargs)
        assert engine.plan_cache.get(other) is not None
        return result

    monkeypatch.setattr(service_module, "adaptive_greedy_partition",
                        search_then_hit)
    return engine


class TestConcurrentHitDuringSearch:
    def test_cold_answer_reports_its_own_search(self, concurrent_hit):
        estimate = concurrent_hit.answer(walk_query())
        assert provenance(estimate) == ("search", "miss", None)
        assert estimate.details["plan_search"]["search_steps"] > 0

    def test_warm_plan_reports_a_miss_and_labels_it_warmed(
            self, concurrent_hit):
        report = concurrent_hit.warm_plan(walk_query())
        assert report["cache_status"] == "miss"
        assert report["origin"] == "warmed"
        assert report["search_steps"] > 0
        assert concurrent_hit.plan_cache.get(walk_query()).origin == \
            "warmed"


class TestProvenanceTable:
    """plan_source, plan_cache and plan_origin for every plan source."""

    def test_answer(self):
        query = walk_query()
        engine = DurabilityEngine(POLICY)
        table = {
            "explicit": engine.answer(
                query, partition=LevelPartition([0.5])),
            "search": engine.answer(query),
            "cache": engine.answer(query),
            "uncached": engine.answer(query, use_plan_cache=False),
        }
        store = PlanStore()
        DurabilityEngine(POLICY, plan_cache=PlanCache(store=store)) \
            .answer(query)
        table["store"] = DurabilityEngine(
            POLICY, plan_cache=PlanCache(store=store)).answer(query)
        warmed = DurabilityEngine(POLICY)
        warmed.warm_plan(query)
        table["warmed"] = warmed.answer(query)
        assert {name: provenance(result)
                for name, result in table.items()} == {
            "explicit": ("explicit", None, None),
            "search": ("search", "miss", None),
            "cache": ("cache", "hit", "search"),
            "uncached": ("search", None, None),
            "store": ("store", "hit", "store"),
            "warmed": ("cache", "hit", "warmed"),
        }
        assert "plan_search" not in table["cache"].details
        assert engine.cache_stats()["hits"] == 1
        assert engine.cache_stats()["misses"] == 1

    def test_durability_curve(self):
        query = walk_query()
        engine = DurabilityEngine(POLICY)
        refined = POLICY.replace(num_levels=6)
        table = {
            "grid": engine.durability_curve(query, GRID),
            "curve_aware": engine.durability_curve(query, GRID,
                                                   policy=refined),
            "cache": engine.durability_curve(query, GRID, policy=refined),
        }
        warmed = DurabilityEngine(refined)
        assert warmed.warm_plan(query, thresholds=GRID)["cache_status"] \
            == "miss"
        table["warmed"] = warmed.durability_curve(query, GRID)
        assert {name: provenance(result)
                for name, result in table.items()} == {
            "grid": ("grid", None, None),
            "curve_aware": ("curve_aware", "miss", None),
            "cache": ("curve_aware", "hit", "search"),
            "warmed": ("curve_aware", "hit", "warmed"),
        }

    def test_grid_rules_are_shared_with_the_warmer(self):
        engine = DurabilityEngine(POLICY.replace(num_levels=6))
        assert engine.warm_plan(walk_query(), thresholds=GRID)["warmable"]
        assert engine.warm_plan(walk_query(), thresholds=GRID,
                                num_levels=3)["reason"] == "grid_is_plan"
        straddling = DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.35, p_down=0.45, start=7),
            RandomWalkProcess.position, beta=10.0, horizon=40)
        assert engine.warm_plan(straddling, thresholds=GRID)["reason"] \
            == "unservable_grid"
        with pytest.raises(service_module.UnservableGridError):
            engine.durability_curve(straddling, GRID)


class TestWorkloadArrivals:
    def test_one_arrival_per_query_at_the_entry_point(self):
        log = WorkloadLog()
        engine = DurabilityEngine(POLICY.replace(method="srs"),
                                  workload_log=log)
        walk = RandomWalkProcess(p_up=0.35, p_down=0.45)
        cohort = [DurabilityQuery.threshold(
            walk, RandomWalkProcess.position, beta=beta, horizon=40)
            for beta in (8.0, 10.0)]
        engine.answer_batch(cohort + [walk_query(beta=12.0)])
        assert log.stats()["records"] == 3
        engine.durability_curves(cohort, GRID)
        assert log.stats()["records"] == 5
