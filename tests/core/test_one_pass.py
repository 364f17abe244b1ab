"""One pass per sampler: a point answer is the top level of a curve.

``SRSSampler.run`` is the running-maxima curve pass on the one-level
grid ``(1.0,)`` and ``screen_fleet`` is ``screen_fleet_curves`` on
one-threshold grids.  The multi-level kernels keep running maxima for
their lower levels but retire a row from its *current* value at the top
level, so a curve's top level must equal the point answer byte for
byte: same probability, variance, roots, hits and steps, under every
stopping rule, directly and on inline and fork pools.

The quality target here is a relative-error target, under which the
top level is always the binding one for SRS (a lower level has at least
as many hits, hence at most the top's relative error).  Fleets use
fixed rounds under a quality target: with adaptive rounds a member
whose top level has no hits yet grows its next round from its lower
levels' projections, which a one-level grid does not have.

The splitting samplers run one round loop for both entry points, gated
on the top level for a point answer and on every level for a curve.
Under a budget the point answer is the curve's top level byte for
byte.  Under a quality target a lower MLSS level can still be the
binding one (its estimator has its own variance), so the point answer
stops no later than the curve, and equals its top level whenever both
stop at the same root count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fleet import screen_fleet, screen_fleet_curves
from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.quality import RelativeErrorTarget
from repro.core.smlss import SMLSSSampler
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes import RandomWalkProcess, birth_death_chain
from repro.processes.base import FusedBatch

LEVELS = (0.25, 0.5, 1.0)

STOPS = {
    "max_roots": {"max_roots": 700},
    "max_steps": {"max_steps": 9_000},
    "quality": {"quality": RelativeErrorTarget(target=0.3, min_hits=5)},
}

WALK = DurabilityQuery.threshold(
    RandomWalkProcess(p_up=0.35, p_down=0.45), RandomWalkProcess.position,
    beta=8.0, horizon=40)

CHAIN = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
CHAIN_QUERY = DurabilityQuery.threshold(CHAIN, CHAIN.state_value,
                                        beta=12.0, horizon=60)
PLAN = LevelPartition([0.25, 0.5, 0.75])

MLSS_STOPS = {
    "max_roots": {"max_roots": 300},
    "max_steps": {"max_steps": 40_000},
    "quality": {"quality": RelativeErrorTarget(target=0.2),
                "max_roots": 2_000},
}

FLEET = [RandomWalkProcess(p_up=0.32 + 0.02 * i, p_down=0.45)
         for i in range(5)]
BETAS = [6.0, 8.0, 7.0, 9.0, 6.0]


def fingerprint(estimate) -> tuple:
    return (estimate.probability, estimate.variance, estimate.n_roots,
            estimate.hits, estimate.steps)


@pytest.fixture(scope="module")
def pools():
    with WorkerPool(n_workers=2, pool="inline") as inline, \
            WorkerPool(n_workers=2, pool="fork") as fork:
        yield {"direct": None, "inline": inline, "fork": fork}


class TestSrsPointIsOneLevelCurve:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           stop=st.sampled_from(sorted(STOPS)),
           where=st.sampled_from(["direct", "inline", "fork"]))
    def test_curve_top_equals_point_answer(self, pools, seed, stop,
                                           where):
        sampler = SRSSampler(batch_roots=200, pool=pools[where],
                             roots_per_task=32)
        point = sampler.run(WALK, seed=seed, **STOPS[stop])
        curve = sampler.run_curve(WALK, LEVELS, seed=seed, **STOPS[stop])
        assert point.n_roots > 0
        assert fingerprint(curve.estimates[-1]) == fingerprint(point)
        assert curve.steps == point.steps

    def test_details_stay_empty_without_trace_or_pool(self):
        estimate = SRSSampler().run(WALK, max_roots=300, seed=3)
        assert estimate.details == {}

    def test_pooled_details_report_the_pool(self, pools):
        estimate = SRSSampler(pool=pools["fork"], roots_per_task=32).run(
            WALK, max_roots=300, seed=3)
        assert estimate.details == {"parallel": {
            "n_workers": 2, "mode": "fork", "tasks": 10}}


class TestMlssPointIsCurveTop:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           stop=st.sampled_from(sorted(MLSS_STOPS)),
           where=st.sampled_from(["direct", "inline", "fork"]))
    def test_curve_top_equals_point_answer(self, pools, seed, stop,
                                           where):
        for sampler_class in (GMLSSSampler, SMLSSSampler):
            sampler = sampler_class(PLAN, pool=pools[where],
                                    roots_per_task=32)
            point = sampler.run(CHAIN_QUERY, seed=seed, **MLSS_STOPS[stop])
            curve = sampler.run_curve(CHAIN_QUERY, seed=seed,
                                      **MLSS_STOPS[stop])
            assert point.n_roots > 0
            if stop == "quality":
                # The curve gates every level, the point its top only.
                assert point.n_roots <= curve.n_roots
                if point.n_roots < curve.n_roots:
                    continue
            assert fingerprint(curve.estimates[-1]) == fingerprint(point)
            assert curve.steps == point.steps


class TestFleetScreenIsOneLevelCurves:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           stop=st.sampled_from(sorted(STOPS)),
           where=st.sampled_from(["direct", "inline", "fork"]))
    def test_curve_tops_equal_screen(self, pools, seed, stop, where):
        fused = FusedBatch(FLEET)
        options = dict(STOPS[stop], batch_roots=150, seed=seed,
                       adaptive=stop != "quality", pool=pools[where],
                       members_per_task=2)
        screened = screen_fleet(fused, RandomWalkProcess.position, BETAS,
                                40, **options)
        curves = screen_fleet_curves(
            fused, RandomWalkProcess.position,
            [tuple(beta * level for level in LEVELS) for beta in BETAS],
            40, **options)
        for estimate, curve in zip(screened, curves):
            assert estimate.n_roots > 0
            assert fingerprint(curve.estimates[-1]) == fingerprint(estimate)
            assert estimate.details == curve.details

    def test_screen_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError, match="positive"):
            screen_fleet(FusedBatch(FLEET[:2]), RandomWalkProcess.position,
                         [4.0, 0.0], 40, max_roots=100)
