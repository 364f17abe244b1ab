"""Tests for the SRS baseline sampler."""

import math

import pytest

from repro.core.quality import (ConfidenceIntervalTarget, NeverTarget,
                                RelativeErrorTarget)
from repro.core.srs import SRSSampler, srs_variance
from repro.core.value_functions import DurabilityQuery

from ..helpers import (ScriptedProcess, TwoBranchProcess, assert_close_to,
                       identity_z)


class TestSrsVariance:
    def test_matches_binomial_formula(self):
        assert srs_variance(0.2, 100) == pytest.approx(0.2 * 0.8 / 100)

    def test_zero_for_no_paths(self):
        assert srs_variance(0.5, 0) == 0.0

    def test_zero_at_extremes(self):
        assert srs_variance(0.0, 50) == 0.0
        assert srs_variance(1.0, 50) == 0.0


class TestSrsSampler:
    def test_deterministic_hit_gives_probability_one(self):
        query = DurabilityQuery.threshold(
            ScriptedProcess([0.5, 1.2]), identity_z, beta=1.0, horizon=2)
        estimate = SRSSampler().run(query, max_roots=50, seed=1)
        assert estimate.probability == 1.0
        assert estimate.hits == 50
        assert estimate.variance == 0.0

    def test_deterministic_miss_gives_probability_zero(self):
        query = DurabilityQuery.threshold(
            ScriptedProcess([0.5, 0.6]), identity_z, beta=1.0, horizon=2)
        estimate = SRSSampler().run(query, max_roots=50, seed=1)
        assert estimate.probability == 0.0
        assert estimate.hits == 0

    def test_estimates_branch_probability(self):
        process = TwoBranchProcess(first=[1.5], second=[0.1],
                                   p_first=0.3)
        query = DurabilityQuery.threshold(process, TwoBranchProcess.value,
                                          beta=1.0, horizon=1)
        estimate = SRSSampler().run(query, max_roots=4000, seed=7)
        assert_close_to(estimate.probability, 0.3, estimate.std_error)

    def test_agrees_with_exact_chain_answer(self, small_chain_query,
                                            small_chain_exact):
        estimate = SRSSampler().run(small_chain_query, max_roots=8000,
                                    seed=11)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_respects_step_budget(self, small_chain_query):
        estimate = SRSSampler(batch_roots=10).run(
            small_chain_query, max_steps=5000, seed=3)
        # One final path may overshoot by at most the horizon.
        assert estimate.steps < 5000 + small_chain_query.horizon

    def test_respects_root_budget(self, small_chain_query):
        estimate = SRSSampler(batch_roots=64).run(
            small_chain_query, max_roots=777, seed=3)
        assert estimate.n_roots == 777

    def test_paths_stop_at_hit(self):
        # Hit at t = 1 means exactly one step per path.
        query = DurabilityQuery.threshold(
            ScriptedProcess([2.0, 0.0, 0.0]), identity_z, beta=1.0,
            horizon=3)
        estimate = SRSSampler().run(query, max_roots=10, seed=0)
        assert estimate.steps == 10

    def test_quality_target_stops_early(self, small_chain_query):
        target = RelativeErrorTarget(target=0.5, min_hits=5, min_roots=50)
        estimate = SRSSampler(batch_roots=200).run(
            small_chain_query, quality=target, max_roots=100_000, seed=13)
        assert estimate.n_roots < 100_000
        assert estimate.relative_error() <= 0.5 + 1e-9

    def test_never_target_runs_out_budget(self, small_chain_query):
        estimate = SRSSampler(batch_roots=100).run(
            small_chain_query, quality=NeverTarget(), max_roots=500, seed=5)
        assert estimate.n_roots == 500

    def test_requires_some_stopping_rule(self, small_chain_query):
        with pytest.raises(ValueError):
            SRSSampler().run(small_chain_query, seed=1)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            SRSSampler(batch_roots=0)

    def test_reproducible_under_seed(self, small_chain_query):
        first = SRSSampler().run(small_chain_query, max_roots=500, seed=9)
        second = SRSSampler().run(small_chain_query, max_roots=500, seed=9)
        assert first.probability == second.probability
        assert first.steps == second.steps

    def test_trace_records_progress(self, small_chain_query):
        estimate = SRSSampler(batch_roots=100, record_trace=True).run(
            small_chain_query, max_roots=500, seed=2)
        trace = estimate.details["trace"]
        assert len(trace) == 5
        assert trace[-1].n_roots == 500
        assert all(a.steps < b.steps for a, b in zip(trace, trace[1:]))
        last = trace[-1]
        assert (last.probability, last.variance, last.hits, last.steps) \
            == (estimate.probability, estimate.variance, estimate.hits,
                estimate.steps)

    def test_ci_target_achieved_on_easy_query(self):
        process = TwoBranchProcess(first=[1.5], second=[0.1], p_first=0.5)
        query = DurabilityQuery.threshold(process, TwoBranchProcess.value,
                                          beta=1.0, horizon=1)
        target = ConfidenceIntervalTarget(half_width=0.05, relative=True)
        estimate = SRSSampler(batch_roots=500).run(
            query, quality=target, max_roots=10**6, seed=21)
        half = estimate.ci_half_width(0.95)
        assert half <= 0.05 * estimate.probability + 1e-12
        # sanity: did not run the full budget
        assert estimate.n_roots < 10**6

    def test_method_name(self, small_chain_query):
        estimate = SRSSampler().run(small_chain_query, max_roots=10, seed=0)
        assert estimate.method == "srs"
        assert estimate.elapsed_seconds >= 0.0
