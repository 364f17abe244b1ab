"""The block branch of the SRS kernel (:func:`repro.core.srs.advance_rows`).

While few rows are live, rows whose family can draw a block advance
many time steps per call.  These tests pin what that branch must keep:

* a cohort that never gets small enough for a block answers byte for
  byte as the per-step branch does (the same rows with ``block`` set to
  ``None``);
* ``FleetRows.retire`` with per-row retirement times charges each
  owner what scalar retirements would;
* block answers agree with the exact random-walk oracle, and with the
  per-step branch for the Gaussian walk;
* block curves are probabilities, non-increasing in the threshold.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import srs
from repro.core.analytic import random_walk_hitting_curve
from repro.core.fleet import screen_fleet_curves
from repro.core.srs import (FleetRows, QueryRows, SRSSampler, advance_rows,
                            block_width, run_rows)
from repro.core.value_functions import DurabilityQuery
from repro.processes import (FusedBatch, GaussianWalkProcess, GBMProcess,
                             RandomWalkProcess)

#: Two-sided z bound of the statistical checks below.  Each check makes
#: at most a few dozen comparisons, so a 4-sigma bound keeps a false
#: alarm near 1e-3 per check while a biased first passage (say, hits
#: seen only at block ends) moves z by tens.
Z_BOUND = 4.0

LEVELS = (0.5, 0.75, 1.0)


def walk_query(p_up, beta, horizon=80, p_down=0.4):
    return DurabilityQuery.threshold(
        RandomWalkProcess(p_up=p_up, p_down=p_down),
        RandomWalkProcess.position, beta=beta, horizon=horizon)


def gauss_query(drift, beta, horizon=100):
    return DurabilityQuery.threshold(
        GaussianWalkProcess(drift=drift, sigma=1.0),
        GaussianWalkProcess.position, beta=beta, horizon=horizon)


def per_step(rows):
    rows.block = None
    return rows


class TestBranchChoice:
    def test_width_depends_on_live_rows_and_remaining_horizon(self):
        assert block_width(250, 80) == 65
        assert block_width(250, 30) == 30
        assert block_width(2048, 80) == srs.MIN_BLOCK_WIDTH
        assert block_width(2049, 80) == 1
        assert block_width(50, srs.MIN_BLOCK_WIDTH - 1) == 1

    def test_only_threshold_queries_over_block_families_take_blocks(self):
        query = walk_query(0.55, 8.0)
        assert QueryRows(query, (1.0,)).block is not None
        custom = DurabilityQuery(query.process,
                                 lambda state, t: min(state / 8.0, 1.0),
                                 horizon=80)
        assert QueryRows(custom, (1.0,)).block is None
        gbm = DurabilityQuery.threshold(GBMProcess(), GBMProcess.price,
                                        beta=600.0, horizon=40)
        assert QueryRows(gbm, (1.0,)).block is None
        fleet = FusedBatch([GBMProcess(), GBMProcess(mu=0.0)])
        assert FleetRows(fleet, GBMProcess.price, [(600.0,)] * 2).block \
            is None

    def test_small_cohorts_take_blocks_and_wide_ones_do_not(self):
        calls = []
        rows = QueryRows(walk_query(0.55, 8.0), (1.0,))
        block = rows.block
        rows.block = lambda *args: calls.append(args[2]) or block(*args)
        advance_rows(rows, [250], 80, np.random.default_rng(0))
        assert calls and calls[0] == 65
        calls.clear()
        rare = QueryRows(walk_query(0.3, 8.0, horizon=40, p_down=0.5),
                         (1.0,))
        block = rare.block
        rare.block = lambda *args: calls.append(args[2]) or block(*args)
        advance_rows(rare, [4096], 40, np.random.default_rng(0))
        assert calls == []


class TestWideCohortsKeepTheirBytes:
    """A cohort whose live rows never fall to the block threshold runs
    the per-step branch only, so its answer equals that of the same
    rows with ``block`` set to ``None``, byte for byte."""

    N_ROWS = 4096
    HORIZON = 40

    def rare(self, p_up):
        return walk_query(p_up, 8.0, horizon=self.HORIZON, p_down=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_rows(self, seed):
        query = self.rare(0.3)
        blocked = advance_rows(QueryRows(query, LEVELS), [self.N_ROWS],
                               self.HORIZON, np.random.default_rng(seed))
        stepped = advance_rows(per_step(QueryRows(query, LEVELS)),
                               [self.N_ROWS], self.HORIZON,
                               np.random.default_rng(seed))
        topped = blocked[0][0]
        assert block_width(self.N_ROWS - topped, self.HORIZON) == 1
        assert blocked[:2] == stepped[:2]
        assert np.array_equal(blocked[2], stepped[2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fleet_rows(self, seed):
        processes = [RandomWalkProcess(p_up=0.28 + 0.01 * i, p_down=0.5)
                     for i in range(4)]
        grids = [(4.0, 8.0)] * 4

        def run(rows):
            return run_rows(rows, self.HORIZON,
                            np.random.default_rng(seed), None, None,
                            self.N_ROWS // 4, self.N_ROWS // 4)

        z = RandomWalkProcess.position
        blocked = run(FleetRows(FusedBatch(processes), z, grids))
        stepped = run(per_step(FleetRows(FusedBatch(processes), z, grids)))
        assert sum(counts[-1] for counts in blocked[0]) \
            < self.N_ROWS - 2048
        assert blocked == stepped


class TestFleetRetireTimes:
    def test_per_row_times_charge_what_scalar_retirements_charge(self):
        fused = FusedBatch([RandomWalkProcess(p_up=0.4 + 0.05 * i,
                                              p_down=0.4)
                            for i in range(3)])
        grids = [(5.0,), (6.0,), (7.0,)]
        at_once = FleetRows(fused, RandomWalkProcess.position, grids)
        one_by_one = FleetRows(fused, RandomWalkProcess.position, grids)
        cohort = [4, 3, 5]
        at_once.start(cohort)
        one_by_one.start(cohort)
        # Rows 0, 2, 5, 7 and 11 retire at times 3, 9, 3, 12 and 9.
        rows = np.array([0, 2, 5, 7, 11])
        times = np.array([3, 9, 3, 12, 9])
        reached = np.zeros(12, dtype=bool)
        reached[rows] = True
        tops = at_once.retire(reached, ~reached, times)

        live = np.arange(12)
        for t in (3, 9, 12):
            now = np.isin(live, rows[times == t])
            last_tops = one_by_one.retire(now, ~now, t)
            live = live[~now]
        assert at_once.topped.tolist() == one_by_one.topped.tolist() \
            == [2, 1, 2]
        assert at_once.spent.tolist() == one_by_one.spent.tolist() \
            == [3 + 9, 3, 12 + 9]
        assert at_once.spent.dtype == np.int64
        assert np.array_equal(at_once.owners, one_by_one.owners)
        assert np.array_equal(tops, last_tops)


class TestStepAccounting:
    """A walk that always moves up hits ``beta`` at time ``beta``
    exactly, so every block charge is known in advance."""

    UP = RandomWalkProcess(p_up=1.0, p_down=0.0)

    def test_query_rows_are_charged_their_hit_times(self):
        query = DurabilityQuery.threshold(
            self.UP, RandomWalkProcess.position, beta=5.0, horizon=30)
        estimate = SRSSampler().run(query, max_roots=250, seed=0)
        assert (estimate.hits, estimate.steps) == (250, 250 * 5)
        curve = SRSSampler().run_curve(
            query.with_threshold(40.0), (0.25, 0.5, 1.0),
            max_roots=250, seed=0)
        assert [e.hits for e in curve.estimates] == [250, 250, 0]
        assert curve.steps == 250 * 30

    def test_fleet_members_are_charged_their_own_hit_times(self):
        fused = FusedBatch([self.UP] * 3)
        curves = screen_fleet_curves(
            fused, RandomWalkProcess.position, [(3.0,), (2.0, 7.0),
                                                (4.0, 20.0)],
            10, max_roots=100, seed=0)
        assert [[e.hits for e in c.estimates] for c in curves] \
            == [[100], [100, 100], [100, 0]]
        assert [c.steps for c in curves] == [300, 700, 1000]


def z_score(hits: int, n: int, exact: float) -> float:
    return (hits / n - exact) / math.sqrt(exact * (1.0 - exact) / n)


class TestAgreement:
    """Block answers on the serving shapes (250-root rounds, pooled
    over seeds) against the exact oracle and the per-step branch."""

    SEEDS = range(40)

    @pytest.mark.parametrize("p_up", [0.52, 0.55, 0.58])
    def test_random_walk_points_and_curves_match_the_oracle(self, p_up):
        for beta in (4.0, 6.0, 8.0, 10.0):
            query = walk_query(p_up, beta)
            thresholds = [math.ceil(beta * level) for level in LEVELS]
            exact = random_walk_hitting_curve(p_up, thresholds, 80,
                                              p_down=0.4)
            sampler = SRSSampler(batch_roots=250)
            points = [sampler.run(query, max_roots=250, seed=seed)
                      for seed in self.SEEDS]
            n = sum(point.n_roots for point in points)
            hits = sum(point.hits for point in points)
            assert abs(z_score(hits, n, exact[-1])) <= Z_BOUND
            curves = [sampler.run_curve(query, LEVELS, max_roots=250,
                                        seed=1000 + seed)
                      for seed in self.SEEDS]
            for level, p in enumerate(exact):
                hits = sum(curve.estimates[level].hits for curve in curves)
                assert abs(z_score(hits, n, p)) <= Z_BOUND, (beta, level)

    @pytest.mark.parametrize("drift", [0.05, 0.12])
    def test_gaussian_walk_blocks_match_per_step(self, drift):
        for beta in (5.0, 8.0):
            query = gauss_query(drift, beta)
            counts = []
            for rows_for in (lambda: QueryRows(query, LEVELS),
                             lambda: per_step(QueryRows(query, LEVELS))):
                hits = np.zeros(len(LEVELS), dtype=np.int64)
                for seed in self.SEEDS:
                    level_counts, _, _, _ = run_rows(
                        rows_for(), query.horizon,
                        np.random.default_rng(seed), None, None, 250, 250)
                    hits += level_counts[0]
                counts.append(hits)
            n = 250 * len(self.SEEDS)
            for blocked, stepped in zip(*counts):
                pooled = (blocked + stepped) / (2 * n)
                z = (blocked - stepped) / n / math.sqrt(
                    pooled * (1.0 - pooled) * 2.0 / n)
                assert abs(z) <= Z_BOUND, (beta, blocked, stepped)


class TestBlockCurveInvariants:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(["walk", "gauss"]),
           drift=st.floats(min_value=-0.2, max_value=0.2),
           top=st.floats(min_value=1.0, max_value=12.0),
           lower=st.sets(st.integers(min_value=1, max_value=19),
                         max_size=3),
           horizon=st.integers(min_value=srs.MIN_BLOCK_WIDTH,
                               max_value=60),
           roots=st.integers(min_value=1, max_value=400),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_curves_are_non_increasing_probabilities(
            self, family, drift, top, lower, horizon, roots, seed):
        levels = [step / 20 for step in sorted(lower)] + [1.0]
        if family == "walk":
            process = RandomWalkProcess(p_up=0.4 + drift, p_down=0.4)
            z = RandomWalkProcess.position
        else:
            process = GaussianWalkProcess(drift=drift, sigma=1.0)
            z = GaussianWalkProcess.position
        query = DurabilityQuery.threshold(process, z, beta=top,
                                          horizon=horizon)
        curve = SRSSampler().run_curve(query, levels, max_roots=roots,
                                       seed=seed)
        fleet = screen_fleet_curves(
            FusedBatch([process, process]), z,
            [[top * level for level in levels]] * 2, horizon,
            max_roots=roots, seed=seed)
        for answer in [curve] + fleet:
            probabilities = [e.probability for e in answer.estimates]
            assert all(0.0 <= p <= 1.0 for p in probabilities)
            assert all(a >= b for a, b in zip(probabilities,
                                              probabilities[1:]))
            assert answer.steps <= answer.n_roots * horizon
