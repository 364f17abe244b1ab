"""Tests for parallel root-path simulation.

MLSS root trees shard over the engine's persistent worker pool
(:attr:`ExecutionPolicy.parallel`); task seeds derive from the task
index, so answers depend on the seed alone, never on the worker count
or pool mode.
"""

import pytest

from repro.engine import DurabilityEngine, ExecutionPolicy, ParallelPolicy

from ..helpers import assert_close_to


def pooled_answer(query, partition, total_roots, n_workers, seed,
                  method="gmlss", pool="fork", **parallel):
    """A fixed-budget MLSS answer over a fresh engine-owned pool."""
    policy = ExecutionPolicy(
        method=method, max_roots=total_roots, seed=seed,
        parallel=ParallelPolicy(n_workers=n_workers, pool=pool,
                                **parallel))
    with DurabilityEngine(policy) as engine:
        return engine.answer(query, partition=partition)


class TestRunParallelMlss:
    def test_single_worker_matches_exact(self, small_chain_query,
                                         small_chain_partition,
                                         small_chain_exact):
        estimate = pooled_answer(
            small_chain_query, small_chain_partition, total_roots=2000,
            n_workers=1, seed=1)
        assert estimate.n_roots == 2000
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_two_workers_match_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        estimate = pooled_answer(
            small_chain_query, small_chain_partition, total_roots=2000,
            n_workers=2, seed=2)
        assert estimate.n_roots == 2000
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_root_count_divides_unevenly(self, small_chain_query,
                                         small_chain_partition):
        estimate = pooled_answer(
            small_chain_query, small_chain_partition, total_roots=101,
            n_workers=3, seed=3)
        assert estimate.n_roots == 101

    def test_smlss_estimator_option(self, small_chain_query,
                                    small_chain_partition,
                                    small_chain_exact):
        estimate = pooled_answer(
            small_chain_query, small_chain_partition, total_roots=1500,
            n_workers=2, seed=4, method="smlss")
        assert estimate.method == "smlss"
        assert not estimate.details["skipping_detected"]
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        runs = [pooled_answer(small_chain_query, small_chain_partition,
                              total_roots=400, n_workers=2, seed=5)
                for _ in range(2)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].steps == runs[1].steps

    def test_results_invariant_under_worker_count(self, small_chain_query,
                                                  small_chain_partition):
        """Regression: shard seeds used to derive from ``n_workers``, so
        changing the worker count changed the answer.  Task seeds now
        derive from the task index alone — the worker count must change
        nothing but latency."""
        runs = [pooled_answer(small_chain_query, small_chain_partition,
                              total_roots=600, n_workers=n, seed=17)
                for n in (1, 2, 4)]
        reference = (runs[0].probability, runs[0].variance, runs[0].steps,
                     runs[0].hits)
        for run in runs[1:]:
            assert (run.probability, run.variance, run.steps,
                    run.hits) == reference

    def test_results_invariant_under_pool_mode(self, small_chain_query,
                                               small_chain_partition):
        by_mode = [pooled_answer(
                       small_chain_query, small_chain_partition,
                       total_roots=300, n_workers=2, seed=23, pool=mode)
                   for mode in ("inline", "fork")]
        assert by_mode[0].probability == by_mode[1].probability
        assert by_mode[0].steps == by_mode[1].steps

    def test_smlss_invariant_under_worker_count(self, small_chain_query,
                                                small_chain_partition):
        runs = [pooled_answer(small_chain_query, small_chain_partition,
                              total_roots=500, n_workers=n, seed=29,
                              method="smlss")
                for n in (1, 3)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].variance == runs[1].variance

    @pytest.mark.parametrize("kwargs", [
        {"method": "bogus"}, {"roots_per_task": 0}, {"n_workers": 0},
    ])
    def test_rejects_bad_parameters(self, small_chain_query,
                                    small_chain_partition, kwargs):
        defaults = dict(total_roots=10, n_workers=1, seed=0)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            pooled_answer(small_chain_query, small_chain_partition,
                          **defaults)
