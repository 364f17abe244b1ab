"""Tests for PlanCache: keying, hit/miss accounting, LRU, pruning."""

from repro.core.levels import LevelPartition
from repro.core.value_functions import DurabilityQuery
from repro.engine.cache import PlanCache, process_family
from repro.processes.random_walk import RandomWalkProcess


def walk_query(beta=20.0, horizon=100, p_up=0.3, process=None):
    process = process or RandomWalkProcess(p_up=p_up, p_down=0.4)
    return DurabilityQuery.threshold(
        process, RandomWalkProcess.position, beta=beta, horizon=horizon)


class TestProcessFamily:
    def test_equal_parameters_share_a_family(self):
        a = RandomWalkProcess(p_up=0.3, p_down=0.4)
        b = RandomWalkProcess(p_up=0.3, p_down=0.4)
        assert process_family(a) == process_family(b)

    def test_different_parameters_differ(self):
        a = RandomWalkProcess(p_up=0.3, p_down=0.4)
        b = RandomWalkProcess(p_up=0.35, p_down=0.4)
        assert process_family(a) != process_family(b)


class TestValueFunctionIdentity:
    def test_distinct_closures_do_not_collide(self):
        """Lambdas built in a loop share a __qualname__; the key must
        still tell them apart."""
        process = RandomWalkProcess(p_up=0.3, p_down=0.4)
        scores = [lambda s, scale=scale: s * scale for scale in (1.0, 2.0)]
        queries = [DurabilityQuery.threshold(process, z, beta=20.0,
                                             horizon=100) for z in scores]
        cache = PlanCache()
        assert cache.key_for(queries[0]) != cache.key_for(queries[1])
        cache.put(queries[0], LevelPartition([0.5]))
        assert cache.get(queries[1]) is None

    def test_distinct_callable_instances_do_not_collide(self):
        class Scaled:
            def __init__(self, scale):
                self.scale = scale

            def __call__(self, state):
                return state * self.scale

        process = RandomWalkProcess(p_up=0.3, p_down=0.4)
        queries = [DurabilityQuery.threshold(process, Scaled(k), beta=20.0,
                                             horizon=100) for k in (1, 2)]
        cache = PlanCache()
        assert cache.key_for(queries[0]) != cache.key_for(queries[1])

    def test_entries_pin_their_key_objects(self):
        """id-based key components stay unambiguous because the entry
        holds a strong reference to the process and value function."""
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.5]))
        entry = cache.get(query)
        assert query.process in entry.pins
        assert query.value_function in entry.pins


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = PlanCache()
        query = walk_query()
        plan = LevelPartition([0.5])
        assert cache.get(query) is None
        cache.put(query, plan)
        entry = cache.get(query)
        assert entry is not None
        assert entry.partition == plan
        assert cache.stats() == {
            "entries": 1, "max_entries": 256, "hits": 1, "misses": 1,
            "evictions": 0, "hit_rate": 0.5,
        }

    def test_identically_configured_processes_share_plans(self):
        cache = PlanCache()
        cache.put(walk_query(), LevelPartition([0.5]))
        assert cache.get(walk_query()) is not None

    def test_nearby_thresholds_share_a_bucket(self):
        cache = PlanCache()
        cache.put(walk_query(beta=20.0), LevelPartition([0.5]))
        assert cache.get(walk_query(beta=20.5)) is not None

    def test_distant_thresholds_do_not_collide(self):
        cache = PlanCache()
        cache.put(walk_query(beta=20.0), LevelPartition([0.5]))
        assert cache.get(walk_query(beta=40.0)) is None

    def test_horizon_is_part_of_the_key(self):
        cache = PlanCache()
        cache.put(walk_query(horizon=100), LevelPartition([0.5]))
        assert cache.get(walk_query(horizon=200)) is None

    def test_kind_separates_greedy_from_balanced(self):
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.5]), kind="greedy")
        assert cache.get(query, kind=("balanced", 4)) is None
        assert cache.get(query, kind="greedy") is not None


class TestLRU:
    def test_eviction_beyond_capacity(self):
        cache = PlanCache(max_entries=2)
        q1, q2, q3 = (walk_query(beta=b) for b in (10.0, 40.0, 160.0))
        cache.put(q1, LevelPartition([0.1]))
        cache.put(q2, LevelPartition([0.2]))
        cache.put(q3, LevelPartition([0.3]))
        assert cache.get(q1) is None  # oldest evicted
        assert cache.get(q2) is not None
        assert cache.get(q3) is not None
        assert cache.stats()["evictions"] == 1

    def test_eviction_counter_accumulates(self):
        cache = PlanCache(max_entries=2)
        for index, beta in enumerate((10.0, 40.0, 160.0, 640.0)):
            cache.put(walk_query(beta=beta),
                      LevelPartition([0.1 * (index + 1)]))
        assert cache.stats()["evictions"] == 2
        assert cache.stats()["entries"] == 2

    def test_get_refreshes_recency(self):
        cache = PlanCache(max_entries=2)
        q1, q2, q3 = (walk_query(beta=b) for b in (10.0, 40.0, 160.0))
        cache.put(q1, LevelPartition([0.1]))
        cache.put(q2, LevelPartition([0.2]))
        assert cache.get(q1) is not None  # refresh q1
        cache.put(q3, LevelPartition([0.3]))
        assert cache.get(q1) is not None
        assert cache.get(q2) is None  # q2 was the LRU entry

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.put(walk_query(), LevelPartition([0.5]))
        cache.get(walk_query())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
        assert cache.stats()["evictions"] == 0


class TestPruning:
    def test_hit_is_pruned_against_the_initial_value(self):
        from repro.processes.markov_chain import birth_death_chain

        chain = birth_death_chain(n=13, p_up=0.3, p_down=0.3, start=6)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=12.0, horizon=40)
        cache = PlanCache()
        cache.put(query, LevelPartition([0.25, 0.75]))
        entry = cache.get(query)
        # 0.25 <= initial value 6/12; only 0.75 survives.
        assert entry.partition == LevelPartition([0.75])


class TestConcurrency:
    def test_concurrent_get_put_is_safe(self):
        """Hammer one cache from many threads: no lost updates, no
        corruption, occupancy within the LRU bound, counters add up."""
        import threading

        from repro.core.levels import LevelPartition
        from repro.core.value_functions import DurabilityQuery
        from repro.processes import RandomWalkProcess

        cache = PlanCache(max_entries=16)
        horizons = list(range(10, 42))
        process = RandomWalkProcess(p_up=0.4, p_down=0.45)
        queries = [DurabilityQuery.threshold(
            process, RandomWalkProcess.position, beta=8.0,
            horizon=horizon) for horizon in horizons]
        partition = LevelPartition([0.5])
        errors = []
        barrier = threading.Barrier(8)

        def worker(offset):
            try:
                barrier.wait()
                for round_index in range(30):
                    query = queries[(offset + round_index) % len(queries)]
                    entry = cache.get(query)
                    if entry is None:
                        cache.put(query, partition)
                    cache.stats()
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 30
        # Every surviving entry is intact and retrievable.
        for query in queries:
            entry = cache.get(query)
            if entry is not None:
                assert entry.partition.boundaries == (0.5,)


class TestGridPlanKind:
    def test_embeds_base_and_grid(self):
        from repro.engine.cache import grid_plan_kind
        kind = grid_plan_kind("greedy", (0.25, 0.5))
        assert kind == ("greedy", "grid", (0.25, 0.5))

    def test_float_repr_jitter_collapses(self):
        from repro.engine.cache import grid_plan_kind
        a = grid_plan_kind("greedy", (0.1 + 0.2,))
        b = grid_plan_kind("greedy", (0.3,))
        assert a == b

    def test_different_grids_do_not_collide(self):
        from repro.engine.cache import grid_plan_kind
        assert grid_plan_kind("greedy", (0.25, 0.5)) != \
            grid_plan_kind("greedy", (0.25, 0.75))

    def test_grid_kinds_separate_from_point_kinds(self):
        from repro.engine.cache import grid_plan_kind
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.5]), kind="greedy")
        grid_kind = grid_plan_kind("greedy", (0.25, 0.5))
        assert cache.get(query, kind=grid_kind) is None
        cache.put(query, LevelPartition([0.25, 0.5]), kind=grid_kind)
        assert cache.get(query, kind=grid_kind).partition == \
            LevelPartition([0.25, 0.5])
        assert cache.get(query, kind="greedy").partition == \
            LevelPartition([0.5])


class TestStatsRegression:
    def test_fresh_cache_hit_rate_is_zero_not_an_error(self):
        """Regression: hit_rate on a never-queried cache must be 0.0,
        not a ZeroDivisionError (hits + misses == 0)."""
        stats = PlanCache().stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["hit_rate"] == 0.0


class TestOrigins:
    def test_default_origin_is_search(self):
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.5]))
        assert cache.get(query).origin == "search"

    def test_put_accepts_an_origin(self):
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.5]), origin="warmed")
        assert cache.get(query).origin == "warmed"

    def test_membership_probe_does_not_touch_counters_or_recency(self):
        cache = PlanCache(max_entries=2)
        old, new = walk_query(beta=20.0), walk_query(beta=40.0)
        cache.put(old, LevelPartition([0.5]))
        cache.put(new, LevelPartition([0.5]))
        before = cache.stats()
        assert cache.key_for(old) in cache
        assert cache.key_for(walk_query(beta=80.0)) not in cache
        assert cache.stats() == before
        # A probe must not refresh LRU position: "old" is still
        # evicted first.
        cache.put(walk_query(beta=80.0), LevelPartition([0.5]))
        assert cache.key_for(old) not in cache
        assert cache.key_for(new) in cache

    def test_get_preserves_origin_through_repruning(self):
        cache = PlanCache()
        query = walk_query()
        cache.put(query, LevelPartition([0.3, 0.5, 0.7]),
                  origin="store")
        entry = cache.get(query)
        assert entry.origin == "store"


class TestStoreIntegration:
    def _store(self):
        from repro.db import PlanStore
        return PlanStore()

    def test_put_writes_through(self):
        store = self._store()
        cache = PlanCache(store=store)
        cache.put(walk_query(), LevelPartition([0.5]), score=2.0)
        assert len(store) == 1
        key = cache.key_for(walk_query())
        partition, kind, score = store.load(key)
        assert partition == LevelPartition([0.5])
        assert score == 2.0

    def test_identity_keys_stay_process_local(self):
        store = self._store()
        cache = PlanCache(store=store)
        process = RandomWalkProcess(p_up=0.3, p_down=0.4)
        lambda_query = DurabilityQuery.threshold(
            process, lambda s: float(s), beta=20.0, horizon=100)
        cache.put(lambda_query, LevelPartition([0.5]))
        assert cache.get(lambda_query) is not None
        assert len(store) == 0
        assert store.skipped == 1

    def test_new_cache_hydrates_from_the_store(self):
        store = self._store()
        PlanCache(store=store).put(walk_query(), LevelPartition([0.5]),
                                   score=4.0)
        fresh = PlanCache(store=store)
        assert len(fresh) == 1
        assert fresh.key_for(walk_query()) in fresh
        # Hydration is not a hit: counters start clean.
        assert fresh.stats()["hits"] == 0
        assert fresh.stats()["misses"] == 0
        entry = fresh.get(walk_query())
        assert entry.origin == "store"
        assert entry.partition == LevelPartition([0.5])
        assert entry.score == 4.0

    def test_hydration_respects_capacity_keeping_recent(self):
        store = self._store()
        seeding = PlanCache(store=store)
        betas = [10.0 * 2 ** i for i in range(4)]
        for beta in betas:
            seeding.put(walk_query(beta=beta), LevelPartition([0.5]))
        small = PlanCache(max_entries=2, store=store)
        assert len(small) == 2
        assert small.evictions == 0  # overflow during hydration is free
        # The most recently saved plans survive at the MRU end.
        assert small.key_for(walk_query(beta=betas[-1])) in small
        assert small.key_for(walk_query(beta=betas[0])) not in small
