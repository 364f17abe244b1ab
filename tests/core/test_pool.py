"""Tests for the persistent shared-memory worker pool (repro.core.pool).

Three contracts matter:

* **lifecycle** — pools persist across runs, close idempotently, fall
  back to inline execution at ``n_workers == 1``, and surface worker
  failures instead of hanging;
* **determinism** — pooled results are byte-identical across worker
  counts and pool modes for a fixed seed (fixed task decomposition,
  task-index-derived seeds, task-order merging);
* **agreement** — pooled estimates agree with single-process runs
  within joint confidence intervals and with the exact oracle, for
  every estimator, on native and scalar-only processes (pooling
  reorders independent streams; it must not change the law).
"""

import math

import numpy as np
import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.pool import (CounterBlock, CurveWork, WorkerPool,
                             derive_task_seed)
from repro.core.records import ForestAggregate, RootRecord
from repro.core.smlss import SMLSSSampler
from repro.core.srs import SRSSampler
from repro.core.stats import critical_value

from ..helpers import assert_close_to, scalar_only

Z999 = critical_value(0.999)

#: How the chain is simulated: ``"vectorized"`` through its native
#: ``step_batch``, ``"scalar"`` reduced to its ``step`` definition (so
#: it runs inside a ``ScalarFallback``).
SUBSTRATES = {"vectorized": lambda query: query, "scalar": scalar_only}


def run_sampler(sampler_cls, query, partition, pool, seed, **run_kwargs):
    if sampler_cls is SRSSampler:
        sampler = SRSSampler(pool=pool)
    else:
        sampler = sampler_cls(partition, ratio=3, pool=pool)
    return sampler.run(query, seed=seed, **run_kwargs)


class TestDeriveTaskSeed:
    def test_depends_on_index_not_worker_count(self):
        assert derive_task_seed(7, 0) == derive_task_seed(7, 0)
        assert derive_task_seed(7, 0) != derive_task_seed(7, 1)
        assert derive_task_seed(7, 0) != derive_task_seed(8, 0)

    def test_salt_separates_streams(self):
        assert derive_task_seed(7, 0) != derive_task_seed(7, 0, salt="x")

    def test_none_stays_none(self):
        assert derive_task_seed(None, 3) is None


class TestCounterBlock:
    def test_round_trips_records(self):
        block = CounterBlock.local(capacity=4, num_levels=3)
        records = []
        for i in range(3):
            record = RootRecord(3)
            record.hits = i
            record.steps = 10 * i
            record.landings[1] = i + 1
            record.skips[2] = i
            record.crossings[1] = 2 * i
            record.max_level = i
            records.append(record)
        n = block.write_records(records)
        aggregate = ForestAggregate(3)
        aggregate.extend_arrays(*block.read(n))

        reference = ForestAggregate(3)
        reference.extend(records)
        assert aggregate.n_roots == reference.n_roots
        assert aggregate.hits == reference.hits
        assert aggregate.hits_sq_sum == reference.hits_sq_sum
        assert aggregate.steps == reference.steps
        assert aggregate.landings == reference.landings
        assert aggregate.landings_sq_sum == reference.landings_sq_sum
        assert aggregate.skips == reference.skips
        assert aggregate.crossings == reference.crossings
        assert aggregate.root_hits == reference.root_hits
        assert aggregate.root_landings == reference.root_landings
        assert aggregate.root_max_levels == reference.root_max_levels

    def test_rejects_overflow(self):
        block = CounterBlock.local(capacity=1, num_levels=2)
        with pytest.raises(ValueError, match="capacity"):
            block.write_records([RootRecord(2), RootRecord(2)])


class TestLifecycle:
    def test_single_worker_falls_back_inline(self):
        pool = WorkerPool(n_workers=1, pool="fork")
        assert pool.mode == "inline"
        pool.close()

    def test_explicit_inline_mode(self):
        with WorkerPool(n_workers=4, pool="inline") as pool:
            assert pool.mode == "inline"

    def test_close_is_idempotent(self):
        pool = WorkerPool(n_workers=2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_closed_pool_rejects_work(self, small_chain_query):
        pool = WorkerPool(n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.register(CurveWork(query=small_chain_query,
                                    levels=(1.0,)))

    def test_pool_is_reused_across_runs(self, small_chain_query):
        with WorkerPool(n_workers=2) as pool:
            first = SRSSampler(pool=pool).run(
                small_chain_query, max_roots=500, seed=1)
            second = SRSSampler(pool=pool).run(
                small_chain_query, max_roots=500, seed=2)
        assert first.n_roots == second.n_roots == 500
        # Same long-lived workers served both runs.
        assert first.details["parallel"]["n_workers"] == 2
        assert second.details["parallel"]["n_workers"] == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="pool mode"):
            WorkerPool(n_workers=2, pool="threads")

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(n_workers=0)

    def test_worker_errors_propagate(self, small_chain_query):
        # An unservable task (negative root count) must raise in the
        # parent, not hang the pool.
        from repro.core.pool import ForestWork
        from repro.core.levels import LevelPartition
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        with WorkerPool(n_workers=2) as pool:
            handle = pool.register(ForestWork(
                query=small_chain_query, partition=partition,
                ratios=(1, 3, 3), capacity=16))
            with pytest.raises(RuntimeError, match="worker task failed"):
                pool.run_tasks(handle, [(-5, 1)])


class TestDeterminism:
    """Byte-identical results across worker counts and pool modes."""

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, SMLSSSampler, GMLSSSampler])
    def test_invariant_under_worker_count(self, sampler_cls,
                                          small_chain_query,
                                          small_chain_partition):
        outcomes = []
        for n_workers in (1, 2, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                estimate = run_sampler(
                    sampler_cls, small_chain_query, small_chain_partition,
                    pool, seed=5, max_roots=700)
            outcomes.append((estimate.probability, estimate.variance,
                             estimate.n_roots, estimate.hits,
                             estimate.steps))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_invariant_under_pool_mode(self, small_chain_query,
                                       small_chain_partition):
        results = []
        for mode in ("inline", "fork"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                estimate = run_sampler(
                    GMLSSSampler, small_chain_query,
                    small_chain_partition, pool, seed=9, max_roots=600)
            results.append((estimate.probability, estimate.steps))
        assert results[0] == results[1]

    def test_curve_invariant_under_worker_count(self, small_chain_query):
        levels = (0.25, 0.5, 0.75, 1.0)
        outcomes = []
        for n_workers in (1, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                curve = SRSSampler(pool=pool).run_curve(
                    small_chain_query, levels, max_roots=900, seed=3)
            outcomes.append(tuple(e.probability for e in curve.estimates)
                            + (curve.steps,))
        assert outcomes[0] == outcomes[1]


class TestPooledAgreement:
    """Pooled estimates agree with sequential runs (and the oracle)."""

    @pytest.mark.parametrize("substrate", ["vectorized", "scalar"])
    def test_pooled_srs_matches_exact(self, substrate, small_chain_query,
                                      small_chain_exact):
        query = SUBSTRATES[substrate](small_chain_query)
        with WorkerPool(n_workers=2) as pool:
            pooled = SRSSampler(pool=pool).run(
                query, max_roots=12_000, seed=21)
        assert pooled.n_roots == 12_000
        assert_close_to(pooled.probability, small_chain_exact,
                        pooled.std_error)

    @pytest.mark.parametrize("sampler_cls", [SMLSSSampler, GMLSSSampler])
    @pytest.mark.parametrize("substrate", ["vectorized", "scalar"])
    def test_pooled_mlss_matches_exact(self, sampler_cls, substrate,
                                       small_chain_query,
                                       small_chain_partition,
                                       small_chain_exact):
        with WorkerPool(n_workers=2) as pool:
            pooled = run_sampler(
                sampler_cls, SUBSTRATES[substrate](small_chain_query),
                small_chain_partition, pool, seed=22, max_roots=2_000)
        assert pooled.n_roots == 2_000
        assert_close_to(pooled.probability, small_chain_exact,
                        pooled.std_error)

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, SMLSSSampler, GMLSSSampler])
    def test_pooled_within_joint_ci_of_sequential(self, sampler_cls,
                                                  small_chain_query,
                                                  small_chain_partition):
        budget = 8_000 if sampler_cls is SRSSampler else 1_500
        with WorkerPool(n_workers=2) as pool:
            pooled = run_sampler(
                sampler_cls, small_chain_query, small_chain_partition,
                pool, seed=31, max_roots=budget)
        sequential = run_sampler(
            sampler_cls, small_chain_query, small_chain_partition,
            None, seed=32, max_roots=budget)
        joint = Z999 * math.sqrt(pooled.variance + sequential.variance)
        assert abs(pooled.probability - sequential.probability) \
            <= joint + 1e-4

    def test_pooled_quality_target_stops(self, small_chain_query):
        from repro.core.quality import RelativeErrorTarget
        with WorkerPool(n_workers=2) as pool:
            estimate = SRSSampler(pool=pool).run(
                small_chain_query,
                quality=RelativeErrorTarget(target=0.3, min_hits=5),
                max_roots=200_000, seed=41)
        assert estimate.n_roots < 200_000
        assert estimate.relative_error() <= 0.3


class TestSpawnMode:
    """One end-to-end spawn check (slower start; exercised sparingly)."""

    def test_spawn_matches_fork(self, small_chain_query,
                                small_chain_partition):
        outcomes = []
        for mode in ("fork", "spawn"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                estimate = run_sampler(
                    GMLSSSampler, small_chain_query,
                    small_chain_partition, pool, seed=13, max_roots=400)
            outcomes.append((estimate.probability, estimate.steps))
        assert outcomes[0] == outcomes[1]


class TestThreadMode:
    """Worker threads sharing the parent address space (no processes,
    no pickling, no shared-memory segments)."""

    def test_thread_mode_spins_up_named_threads(self):
        import threading
        with WorkerPool(n_workers=2, pool="thread") as pool:
            assert pool.mode == "thread"
            alive = [t.name for t in threading.enumerate()]
            assert sum(name.startswith("repro-pool-worker")
                       for name in alive) == 2
        alive = [t.name for t in threading.enumerate()]
        assert not any(name.startswith("repro-pool-worker")
                       for name in alive)

    def test_thread_mode_uses_no_shared_memory(self, small_chain_query,
                                               small_chain_partition):
        from repro.core.pool import ForestWork
        with WorkerPool(n_workers=2, pool="thread") as pool:
            handle = pool.register(ForestWork(
                query=small_chain_query, partition=small_chain_partition,
                ratios=(1, 3, 3), capacity=16))
            try:
                # Every registered block is a plain in-process
                # CounterBlock — the shm slot stays empty.
                assert pool._blocks
                assert all(shm is None
                           for (shm, _) in pool._blocks.values())
            finally:
                pool.unregister(handle)

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, SMLSSSampler, GMLSSSampler])
    def test_thread_matches_inline_and_fork(self, sampler_cls,
                                            small_chain_query,
                                            small_chain_partition):
        """Byte-identical estimates across thread/inline/fork modes and
        thread-mode worker counts (the mode-invariance contract
        extended to the threaded backend)."""
        outcomes = []
        for mode, n_workers in (("inline", 2), ("thread", 2),
                                ("thread", 3), ("fork", 2)):
            with WorkerPool(n_workers=n_workers, pool=mode) as pool:
                estimate = run_sampler(
                    sampler_cls, small_chain_query, small_chain_partition,
                    pool, seed=5, max_roots=700)
            outcomes.append((estimate.probability, estimate.variance,
                             estimate.n_roots, estimate.hits,
                             estimate.steps))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_thread_curve_matches_fork(self, small_chain_query):
        levels = (0.25, 0.5, 0.75, 1.0)
        outcomes = []
        for mode in ("thread", "fork"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                curve = SRSSampler(pool=pool).run_curve(
                    small_chain_query, levels, max_roots=900, seed=3)
            outcomes.append(tuple(e.probability for e in curve.estimates)
                            + (curve.steps,))
        assert outcomes[0] == outcomes[1]

    def test_fork_falls_back_to_thread_without_fork(self, monkeypatch):
        import repro.core.pool as pool_mod
        monkeypatch.setattr(pool_mod, "get_all_start_methods",
                            lambda: ["spawn"])
        with WorkerPool(n_workers=2, pool="fork") as pool:
            assert pool.mode == "thread"


class TestStreamedScheduling:
    """Pipelined rounds return exactly what unpipelined rounds return.

    The reference is the inline pool: it runs a task only when its
    result is collected, so speculative tasks never execute there and
    every round is computed strictly one after another.
    """

    @staticmethod
    def _sampler(sampler_cls, partition, pool):
        if sampler_cls is SRSSampler:
            return SRSSampler(pool=pool, roots_per_task=64,
                              tasks_per_round=4)
        return sampler_cls(partition, ratio=3, pool=pool,
                           roots_per_task=64, tasks_per_round=4)

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, SMLSSSampler, GMLSSSampler])
    def test_streamed_matches_barrier(self, sampler_cls, small_chain_query,
                                      small_chain_partition):
        """Small tasks + small rounds force many rounds, so speculation
        actually overlaps on the fork pool; results must still be
        byte-identical to the inline reference."""
        outcomes = []
        for mode in ("inline", "fork"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                estimate = self._sampler(
                    sampler_cls, small_chain_partition, pool).run(
                    small_chain_query, seed=5, max_roots=3_000)
            outcomes.append((estimate.probability, estimate.variance,
                             estimate.n_roots, estimate.hits,
                             estimate.steps))
        assert outcomes[0] == outcomes[1]

    def test_streamed_curve_matches_barrier(self, small_chain_query):
        levels = (0.25, 0.5, 0.75, 1.0)
        outcomes = []
        for mode in ("inline", "fork"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                curve = SRSSampler(
                    pool=pool, roots_per_task=64,
                    tasks_per_round=4).run_curve(
                    small_chain_query, levels, max_roots=2_000, seed=3)
            outcomes.append(tuple(e.probability for e in curve.estimates)
                            + (curve.steps, curve.n_roots))
        assert outcomes[0] == outcomes[1]

    def test_streamed_quality_target_discards_speculation(
            self, small_chain_query):
        """A quality-target stop leaves a speculative round in flight;
        its results must be discarded without contaminating the
        estimate (identical to the inline reference) or wedging the
        pool."""
        from repro.core.quality import RelativeErrorTarget
        outcomes = []
        for mode in ("inline", "fork"):
            with WorkerPool(n_workers=2, pool=mode) as pool:
                estimate = SRSSampler(
                    pool=pool, roots_per_task=64,
                    tasks_per_round=4).run(
                    small_chain_query,
                    quality=RelativeErrorTarget(target=0.3, min_hits=5),
                    max_roots=200_000, seed=41)
                # The pool must still be serviceable after a discard.
                follow_up = SRSSampler(pool=pool).run(
                    small_chain_query, max_roots=500, seed=2)
            assert follow_up.n_roots == 500
            outcomes.append((estimate.probability, estimate.n_roots,
                             estimate.steps))
        assert outcomes[0] == outcomes[1]


class TestStrictStepBudget:
    """Pooled runs must respect max_steps exactly, not per-round."""

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, SMLSSSampler, GMLSSSampler])
    def test_pooled_never_exceeds_max_steps(self, sampler_cls,
                                            small_chain_query,
                                            small_chain_partition):
        budget = 30_000
        for n_workers in (1, 2):
            with WorkerPool(n_workers=n_workers) as pool:
                if sampler_cls is SRSSampler:
                    sampler = SRSSampler(pool=pool,
                                         roots_per_task=64,
                                         tasks_per_round=4)
                else:
                    sampler = sampler_cls(
                        small_chain_partition, ratio=3, pool=pool,
                        roots_per_task=64, tasks_per_round=4)
                estimate = sampler.run(small_chain_query, seed=7,
                                       max_steps=budget)
            assert estimate.steps <= budget, (
                f"{sampler_cls.__name__} with {n_workers} workers spent "
                f"{estimate.steps} > max_steps={budget}")
            assert estimate.n_roots > 0

    @pytest.mark.parametrize("sampler_cls",
                             [SRSSampler, GMLSSSampler])
    def test_budget_invariant_under_worker_count(self, sampler_cls,
                                                 small_chain_query,
                                                 small_chain_partition):
        """Per-task caps are structural (derived from the task cut, not
        the workers), so budgeted runs stay worker-count invariant."""
        outcomes = []
        for n_workers in (1, 2, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                estimate = run_sampler(
                    sampler_cls, small_chain_query, small_chain_partition,
                    pool, seed=11, max_steps=25_000)
            outcomes.append((estimate.probability, estimate.n_roots,
                             estimate.hits, estimate.steps))
        assert outcomes[0] == outcomes[1] == outcomes[2]


    def test_deep_plan_cuts_only_fundable_tasks(self, small_chain_query):
        """A worst-case tree costing more than an even share of the
        budget, but less than the whole: the round is cut into only as
        many tasks as the budget funds, so roots still run."""
        from repro.core.levels import LevelPartition
        from repro.core.pool import ForestWork, _worst_case_root_cost
        deep = LevelPartition([k / 12.0 for k in (2, 4, 6, 8, 10)])
        worst = _worst_case_root_cost(ForestWork(
            query=small_chain_query, partition=deep,
            ratios=(1,) + (3,) * 5, capacity=16))
        budget = 3 * worst
        # Eight even task shares could not fund one tree each.
        assert budget // 8 < worst <= budget
        outcomes = []
        for n_workers in (1, 2, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                estimate = GMLSSSampler(
                    deep, ratio=3, pool=pool, roots_per_task=16,
                    tasks_per_round=8).run(
                    small_chain_query, max_steps=budget, seed=5)
            assert estimate.n_roots > 0
            assert estimate.steps <= budget
            outcomes.append((estimate.probability, estimate.variance,
                             estimate.n_roots, estimate.hits,
                             estimate.steps))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("mode", ["inline", "fork"])
    def test_budget_below_one_path_raises(self, mode, small_chain_query):
        from repro.core.pool import StepBudgetError
        with WorkerPool(n_workers=2, pool=mode) as pool:
            with pytest.raises(StepBudgetError, match=r"max_steps=59\b.*60"):
                SRSSampler(pool=pool).run(small_chain_query,
                                          max_steps=59, seed=1)
            with pytest.raises(StepBudgetError):
                SRSSampler(pool=pool).run_curve(
                    small_chain_query, (0.5, 1.0), max_steps=59, seed=1)
            # Nothing was registered, and the pool still serves.
            assert not pool._specs
            assert SRSSampler(pool=pool).run(
                small_chain_query, max_steps=60, seed=1).n_roots == 1

    @pytest.mark.parametrize("mode", ["inline", "fork"])
    def test_budget_below_one_tree_raises(self, mode, small_chain_query,
                                          small_chain_partition):
        from repro.core.pool import StepBudgetError
        # Ratios (1, 3, 3): a tree costs at most 60 * (1 + 3 + 9) steps.
        with WorkerPool(n_workers=2, pool=mode,
                        max_worker_restarts=0) as pool:
            for sampler_cls in (SMLSSSampler, GMLSSSampler):
                with pytest.raises(StepBudgetError,
                                   match=r"max_steps=779\b.*780"):
                    sampler_cls(small_chain_partition, ratio=3,
                                pool=pool).run(small_chain_query,
                                               max_steps=779, seed=1)
            assert not pool._specs
            estimate = GMLSSSampler(small_chain_partition, ratio=3,
                                    pool=pool).run(
                small_chain_query, max_steps=780, seed=1)
            assert 0 < estimate.steps <= 780


class TestRegisterRace:
    """Unregistering a work before a worker attached its counter block
    must not kill the worker."""

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable")
    def test_unregister_before_attach_keeps_workers_alive(
            self, small_chain_query, small_chain_partition):
        import time

        from repro.core.pool import ForestWork
        with WorkerPool(n_workers=2, pool="fork",
                        max_worker_restarts=0) as pool:
            for _ in range(5):
                handle = pool.register(ForestWork(
                    query=small_chain_query,
                    partition=small_chain_partition,
                    ratios=(1, 3, 3), capacity=16))
                pool.unregister(handle)
            time.sleep(0.05)
            assert all(worker.is_alive() for worker in pool._workers)
            estimate = SRSSampler(pool=pool).run(
                small_chain_query, max_roots=500, seed=1)
            assert estimate.n_roots == 500


class TestAbnormalTeardown:
    """Worker death must abort loudly and leave no shm segments."""

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable")
    def test_killed_worker_aborts_and_unlinks_blocks(self,
                                                     small_chain_query):
        import os
        import signal
        from multiprocessing import shared_memory

        from repro.core.levels import LevelPartition
        from repro.core.pool import ForestWork

        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        pool = WorkerPool(n_workers=2, pool="fork")
        try:
            handle = pool.register(ForestWork(
                query=small_chain_query, partition=partition,
                ratios=(1, 3, 3), capacity=16))
            shm_names = [shm.name
                         for (shm, _) in pool._blocks.values()
                         if shm is not None]
            assert shm_names
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="exited"):
                pool.run_tasks(handle, [(16, seed) for seed in range(8)])
            # The abort path tears the whole pool down...
            assert pool.closed
            # ...and unlinks every segment despite the dead worker.
            for name in shm_names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
        finally:
            pool.close()


class TestThreadSafety:
    def test_concurrent_run_tasks_from_threads(self, small_chain_query):
        """Two threads sharing one pool (the engine's persistent-pool
        shape) must not swap each other's results: run_tasks calls are
        serialized under the pool lock."""
        import threading

        results = {}
        errors = []

        with WorkerPool(n_workers=2) as pool:
            def drive(name, seed):
                try:
                    results[name] = SRSSampler(
                        pool=pool).run(
                        small_chain_query, max_roots=2_000, seed=seed)
                except Exception as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(f"t{i}", i))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        assert len(results) == 4
        for estimate in results.values():
            assert estimate.n_roots == 2_000
        # Threads with the same seed would get identical results; with
        # distinct seeds every thread sees its own run's counters.
        singles = []
        for i in range(4):
            single = SRSSampler(
                pool=WorkerPool(1)).run(
                small_chain_query, max_roots=2_000, seed=i)
            singles.append(single)
            assert results[f"t{i}"].probability == single.probability
            assert results[f"t{i}"].steps == single.steps
