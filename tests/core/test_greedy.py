"""Tests for the adaptive greedy partition search (Algorithm 1)."""

import math

import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.greedy import (GreedyResult, adaptive_greedy_partition,
                               candidate_boundaries)
from repro.core.levels import LevelPartition
from repro.core.srs import SRSSampler

from ..helpers import assert_close_to


class TestCandidateBoundaries:
    def test_uniform_grid(self):
        values = candidate_boundaries(0.0, 1.0, 4, existing=(), minimum=0.0)
        assert values == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_respects_minimum(self):
        values = candidate_boundaries(0.0, 1.0, 4, existing=(), minimum=0.5)
        assert values == pytest.approx([0.6, 0.8])

    def test_skips_existing_boundaries(self):
        values = candidate_boundaries(0.0, 1.0, 4, existing=(0.4,),
                                      minimum=0.0)
        assert 0.4 not in values
        assert len(values) == 3

    def test_empty_interval_yields_nothing(self):
        assert candidate_boundaries(0.7, 0.7, 5, (), 0.0) == []

    def test_subinterval_grid(self):
        values = candidate_boundaries(0.4, 0.8, 3, (), 0.0)
        assert values == pytest.approx([0.5, 0.6, 0.7])

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            candidate_boundaries(0.0, 1.0, 0, (), 0.0)


class TestAdaptiveGreedySearch:
    def test_finds_multi_level_plan_for_rare_query(self, small_chain_query):
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=12_000,
            candidates_per_round=5, max_rounds=8, seed=5)
        assert isinstance(result, GreedyResult)
        # The chain query (tau ~ 1e-2) should justify several levels.
        assert result.partition.num_levels >= 2
        assert result.num_rounds >= 1
        assert math.isfinite(result.best_score)
        assert result.search_steps >= 12_000

    def test_search_is_reproducible(self, small_chain_query):
        runs = [adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=11)
            for _ in range(2)]
        assert runs[0].partition == runs[1].partition
        assert runs[0].search_steps == runs[1].search_steps

    def test_pooled_estimate_is_sane(self, small_chain_query,
                                     small_chain_exact):
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=25_000, seed=7)
        # Pooled over >= 5 trials of 25k steps: should be in the right
        # ballpark (it is an unbiased but noisy estimate).
        assert result.pooled_estimate == pytest.approx(
            small_chain_exact, rel=0.6)
        assert result.pooled_roots > 0

    def test_stops_when_no_improvement(self, small_chain_query):
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000,
            max_rounds=10, seed=13)
        final_round = result.rounds[-1]
        # Either the last round failed to improve (chosen is None) or the
        # search hit max_rounds.
        assert final_round.chosen is None or result.num_rounds == 10

    def test_rounds_record_focus_intervals(self, small_chain_query):
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=17)
        assert result.rounds[0].focus == (0.0, 1.0)
        for rnd in result.rounds:
            lo, hi = rnd.focus
            assert 0.0 <= lo < hi <= 1.0
            assert len(rnd.trials) == len(rnd.candidates)

    def test_found_plan_beats_srs_on_rare_query(self, small_chain_query,
                                                small_chain_exact):
        """End-to-end: greedy plan + g-MLSS reaches lower RE than SRS at
        the same step budget (the point of the whole exercise).

        g-MLSS, as in the engine's ``auto`` pipeline: the search scores
        plans with g-MLSS trials and may place a boundary inside the
        chain's last value gap, a level no path can land in, which only
        g-MLSS reads without bias.
        """
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=12_000, seed=2)
        budget = 150_000
        mlss = GMLSSSampler(result.partition, ratio=3).run(
            small_chain_query, max_steps=budget, seed=23)
        srs = SRSSampler().run(small_chain_query, max_steps=budget, seed=23)
        assert_close_to(mlss.probability, small_chain_exact,
                        mlss.std_error)
        assert mlss.variance < srs.variance

    def test_keeps_exploring_while_hitless(self):
        """With trials too short to hit a rare target, the search must
        keep adding boundaries toward the obstacle level rather than
        abort with an empty plan."""
        from repro.core.value_functions import DurabilityQuery
        from repro.processes.markov_chain import birth_death_chain
        chain = birth_death_chain(n=21, p_up=0.22, p_down=0.38, start=0)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=20.0, horizon=90)
        result = adaptive_greedy_partition(query, ratio=3,
                                           trial_steps=2_000,
                                           max_rounds=6, seed=3)
        assert len(result.partition) >= 2, (
            f"search aborted with {result.partition}")

    def test_all_trials_accessible(self, small_chain_query):
        result = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=6_000, seed=29)
        trials = result.all_trials()
        assert len(trials) == sum(len(r.trials) for r in result.rounds)
        assert all(t.steps >= 6_000 for t in trials)
