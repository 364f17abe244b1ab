"""Pool-sharded plan search must return exactly the parent-only plans.

The greedy search (Algorithm 1) shards its candidate trials, and the
balanced-growth builder its pilot chunks, over a
:class:`~repro.core.pool.WorkerPool`.  Because trial and pilot seeds
are *structural* — derived from the trial/chunk index with the
``"plan"``/``"pilot"`` salts, never from worker identity — the pooled
search must reproduce the sequential search byte for byte: same
partitions, same scores, same step accounting.  These tests pin that
contract across inline/fork modes, plus the engine routing that
hands its owned pool to cold-query plan searches.
"""

import pytest

from repro.core.balanced import balanced_growth_partition, pilot_max_values
from repro.core.greedy import adaptive_greedy_partition
from repro.core.pool import WorkerPool

#: ``("fork", 4)`` is the pool whose plan identity ``bench_parallel``
#: gates.
POOL_CONFIGS = [("inline", 2), ("fork", 2), ("fork", 3), ("fork", 4)]


class TestPooledGreedySearch:
    @pytest.mark.parametrize("mode,n_workers", POOL_CONFIGS)
    def test_pooled_matches_parent(self, mode, n_workers,
                                   small_chain_query):
        parent = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=11)
        with WorkerPool(n_workers=n_workers, pool=mode) as pool:
            pooled = adaptive_greedy_partition(
                small_chain_query, ratio=3, trial_steps=8_000, seed=11,
                pool=pool)
        assert pooled.partition == parent.partition
        assert pooled.best_score == parent.best_score
        assert pooled.search_steps == parent.search_steps
        assert pooled.pooled_estimate == parent.pooled_estimate
        assert pooled.pooled_roots == parent.pooled_roots
        assert pooled.num_rounds == parent.num_rounds

    def test_pooled_rounds_match_parent_trials(self, small_chain_query):
        """Round-by-round trial bookkeeping survives pooling (each
        trial's score and step count comes back through the pool)."""
        parent = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=6_000, seed=29)
        with WorkerPool(n_workers=2) as pool:
            pooled = adaptive_greedy_partition(
                small_chain_query, ratio=3, trial_steps=6_000, seed=29,
                pool=pool)
        assert len(pooled.rounds) == len(parent.rounds)
        for ours, theirs in zip(pooled.rounds, parent.rounds):
            assert ours.candidates == theirs.candidates
            assert ours.chosen == theirs.chosen
            assert [t.eval_score for t in ours.trials] == \
                [t.eval_score for t in theirs.trials]
            assert [t.steps for t in ours.trials] == \
                [t.steps for t in theirs.trials]

    def test_pool_reusable_after_search(self, small_chain_query,
                                        small_chain_partition):
        """The search registers/unregisters its own work descriptor and
        must leave the pool serviceable for the sampler that follows
        (the engine's cold-query sequence)."""
        from repro.core.gmlss import GMLSSSampler
        with WorkerPool(n_workers=2) as pool:
            result = adaptive_greedy_partition(
                small_chain_query, ratio=3, trial_steps=6_000, seed=3,
                pool=pool)
            estimate = GMLSSSampler(
                result.partition, ratio=3,
                pool=pool).run(small_chain_query, max_roots=400, seed=4)
        assert estimate.n_roots == 400


class TestPooledBalancedGrowth:
    @pytest.mark.parametrize("mode,n_workers", POOL_CONFIGS)
    def test_pooled_pilot_matches_parent(self, mode, n_workers,
                                         small_chain_query):
        parent = pilot_max_values(small_chain_query, n_paths=1_500, seed=5)
        with WorkerPool(n_workers=n_workers, pool=mode) as pool:
            pooled = pilot_max_values(small_chain_query, n_paths=1_500,
                                      seed=5, pool=pool)
        assert pooled == parent

    def test_pooled_partition_matches_parent(self, small_chain_query):
        parent = balanced_growth_partition(
            small_chain_query, 3, pilot_paths=2_000, seed=7)
        with WorkerPool(n_workers=2) as pool:
            pooled = balanced_growth_partition(
                small_chain_query, 3, pilot_paths=2_000, seed=7,
                pool=pool)
        assert pooled == parent

    def test_pilot_chunking_invariant_under_chunk_none_pool(
            self, small_chain_query):
        """The chunked pilot cut is the same with and without a pool,
        so pilots are comparable across execution modes by
        construction."""
        seq = pilot_max_values(small_chain_query, n_paths=1_000, seed=13,
                               paths_per_task=256)
        with WorkerPool(n_workers=3) as pool:
            pooled = pilot_max_values(small_chain_query, n_paths=1_000,
                                      seed=13, paths_per_task=256,
                                      pool=pool)
        assert pooled == seq


class TestEnginePlanSearchRouting:
    def test_parallel_engine_finds_sequential_plan(self,
                                                   small_chain_query):
        """A cold ``method="auto"`` query through a parallel engine must
        search over the engine's pool and land on the same plan a
        sequential engine finds."""
        from repro.engine.policy import ExecutionPolicy, ParallelPolicy
        from repro.engine.service import DurabilityEngine

        base = ExecutionPolicy(method="auto", max_roots=400, seed=3,
                               trial_steps=6_000)
        with DurabilityEngine(base) as sequential_engine:
            sequential = sequential_engine.answer(small_chain_query)
        parallel = base.replace(parallel=ParallelPolicy(
            n_workers=2, pool="fork"))
        with DurabilityEngine(parallel) as parallel_engine:
            pooled = parallel_engine.answer(small_chain_query)
        assert pooled.details["plan_search"]["partition"] == \
            sequential.details["plan_search"]["partition"]
        assert pooled.details["plan_search"]["search_steps"] == \
            sequential.details["plan_search"]["search_steps"]


class TestCurveAwarePlanSearchPooling:
    """Curve-aware (grid-seeded) balanced plans, pooled vs parent."""

    GRID = (4.0 / 12.0, 8.0 / 12.0)

    @pytest.mark.parametrize("mode,n_workers", POOL_CONFIGS)
    def test_pooled_balanced_grid_build_matches_parent(
            self, mode, n_workers, small_chain_query):
        parent = balanced_growth_partition(
            small_chain_query, num_levels=5, pilot_paths=1_200, seed=17,
            grid=self.GRID)
        with WorkerPool(n_workers=n_workers, pool=mode) as pool:
            pooled = balanced_growth_partition(
                small_chain_query, num_levels=5, pilot_paths=1_200,
                seed=17, grid=self.GRID, pool=pool)
        assert pooled.boundaries == parent.boundaries

    def test_balanced_grid_plan_contains_grid(self, small_chain_query):
        partition = balanced_growth_partition(
            small_chain_query, num_levels=6, pilot_paths=1_000, seed=23,
            grid=self.GRID)
        assert set(self.GRID) <= set(partition.boundaries)
        assert len(partition.boundaries) == 5
