"""A query is a fleet of one, and SRS answers carry plain Python numbers.

Every SRS pass steps its rows in one kernel
(:func:`repro.core.srs.advance_rows`), fed either one query's rows or a
fused fleet's rows.  A one-member fused screen therefore draws the same
random numbers in the same order as the query's own run and must return
the same answer exactly — probability, variance, roots, hits and steps —
for every fusible family, under root and step budgets alike.  A
block-stepped kernel must keep this property.

The MLSS side holds the same way: every splitting forest grows in one
round loop (:meth:`repro.core.gmlss.GMLSSSampler._pass`), so a
one-member fused g-MLSS screen with uniform allocation checks on the
sampler's schedule with the sampler's bootstrap seeds and equals
:meth:`~repro.core.gmlss.GMLSSSampler.run` exactly, stopped by a
budget or by a quality target.
"""

import pytest

from repro.core.fleet import (screen_fleet, screen_fleet_curves,
                              screen_fleet_mlss)
from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.engine import DurabilityEngine, ExecutionPolicy, ParallelPolicy
from repro.processes import (ARProcess, CompoundPoissonProcess, FusedBatch,
                             GaussianWalkProcess, GBMProcess,
                             MarkovChainProcess, RandomWalkProcess,
                             TandemQueueProcess, birth_death_chain,
                             volatile_cpp)

#: (family, process, z, beta, horizon) for every fusible family.
FAMILIES = [
    ("random_walk", RandomWalkProcess(p_up=0.45, p_down=0.45),
     RandomWalkProcess.position, 6.0, 40),
    ("gaussian_walk", GaussianWalkProcess(drift=0.05, sigma=1.0),
     GaussianWalkProcess.position, 7.0, 40),
    ("gbm", GBMProcess(start_price=100.0, mu=0.001, sigma=0.02),
     GBMProcess.price, 110.0, 40),
    ("ar", ARProcess([0.5, 0.2], sigma=1.0), ARProcess.current_value,
     3.0, 40),
    ("markov_chain", birth_death_chain(n=13, p_up=0.3, p_down=0.35,
                                       start=0),
     MarkovChainProcess.state_index, 6.0, 40),
    ("tandem_queue", TandemQueueProcess(arrival_rate=0.45),
     TandemQueueProcess.queue2_length, 4.0, 40),
    ("cpp", CompoundPoissonProcess(), CompoundPoissonProcess.surplus,
     35.0, 40),
    ("impulse", volatile_cpp(CompoundPoissonProcess(), horizon=40),
     CompoundPoissonProcess.surplus, 35.0, 40),
]

BUDGETS = [{"max_roots": 250}, {"max_roots": 1200}, {"max_steps": 9_000}]
LEVELS = (0.5, 0.75, 1.0)


def answer(estimate) -> tuple:
    return (estimate.probability, estimate.variance, estimate.n_roots,
            estimate.hits, estimate.steps)


@pytest.mark.parametrize("family,process,z,beta,horizon", FAMILIES,
                         ids=[family[0] for family in FAMILIES])
class TestFleetOfOne:
    @pytest.mark.parametrize("budget", BUDGETS, ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_answer_is_a_one_member_screen(
            self, family, process, z, beta, horizon, budget, seed):
        query = DurabilityQuery.threshold(process, z, beta=beta,
                                          horizon=horizon)
        alone = SRSSampler().run(query, seed=seed, **budget)
        fused = screen_fleet(FusedBatch([process]), z, [beta], horizon,
                             seed=seed, **budget)[0]
        assert answer(fused) == answer(alone)

    @pytest.mark.parametrize("budget", BUDGETS, ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curve_is_a_one_member_fleet_curve(
            self, family, process, z, beta, horizon, budget, seed):
        query = DurabilityQuery.threshold(process, z, beta=beta,
                                          horizon=horizon)
        alone = SRSSampler().run_curve(query, LEVELS, seed=seed, **budget)
        fused = screen_fleet_curves(
            FusedBatch([process]), z, [[beta * level for level in LEVELS]],
            horizon, seed=seed, **budget)[0]
        assert [answer(e) for e in fused.estimates] \
            == [answer(e) for e in alone.estimates]


#: (family, process, z, beta, horizon) whose start lies below every
#: boundary of ``MLSS_PLAN``.
MLSS_FAMILIES = [
    ("random_walk", RandomWalkProcess(p_up=0.35, p_down=0.45),
     RandomWalkProcess.position, 12.0, 60),
    ("gaussian_walk", GaussianWalkProcess(drift=0.05, sigma=1.0),
     GaussianWalkProcess.position, 14.0, 50),
    ("markov_chain", birth_death_chain(n=13, p_up=0.25, p_down=0.35,
                                       start=0),
     MarkovChainProcess.state_index, 12.0, 60),
]
MLSS_PLAN = LevelPartition([4 / 12, 8 / 12])
MLSS_STOPS = {
    "max_roots": {"max_roots": 3_000},
    "max_steps": {"max_steps": 60_000},
    "target": {"quality": RelativeErrorTarget(0.1), "max_roots": 20_000},
    "target_tuned": {"quality": RelativeErrorTarget(0.1),
                     "max_roots": 20_000, "first_check_roots": 20,
                     "check_growth": 3.0},
}


@pytest.mark.parametrize("family,process,z,beta,horizon", MLSS_FAMILIES,
                         ids=[family[0] for family in MLSS_FAMILIES])
@pytest.mark.parametrize("stop", MLSS_STOPS.values(), ids=MLSS_STOPS.keys())
def test_gmlss_answer_is_a_one_member_screen(family, process, z, beta,
                                             horizon, stop):
    stop = dict(stop)
    options = {key: stop.pop(key) for key in ("first_check_roots",
                                               "check_growth")
               if key in stop}
    query = DurabilityQuery.threshold(process, z, beta=beta,
                                      horizon=horizon)
    alone = GMLSSSampler(MLSS_PLAN, ratio=3, **options).run(
        query, seed=7, **stop)
    fused = screen_fleet_mlss(FusedBatch([process]), z, [beta], MLSS_PLAN,
                              horizon, ratio=3, seed=7, adaptive=False,
                              **options, **stop)[0]
    assert answer(fused) == answer(alone)


def assert_plain_numbers(estimate) -> None:
    assert type(estimate.probability) is float
    assert type(estimate.variance) is float
    assert type(estimate.n_roots) is int
    assert type(estimate.hits) is int
    assert type(estimate.steps) is int


class TestPlainPythonNumbers:
    """Every SRS answer carries ``float`` and ``int`` fields, whichever
    entry point, kernel row kind or pool produced it."""

    @staticmethod
    def fleet(n=3):
        return [DurabilityQuery.threshold(
            RandomWalkProcess(p_up=0.40 + 0.01 * i, p_down=0.45),
            RandomWalkProcess.position, beta=6.0 + i, horizon=30)
            for i in range(n)]

    def test_sampler_answers(self):
        query = self.fleet(1)[0]
        assert_plain_numbers(SRSSampler().run(query, max_roots=300,
                                              seed=1))
        curve = SRSSampler().run_curve(query, LEVELS, max_roots=300,
                                       seed=1)
        for estimate in curve.estimates:
            assert_plain_numbers(estimate)

    def test_fleet_answers(self):
        queries = self.fleet()
        fused = FusedBatch([query.process for query in queries])
        z = RandomWalkProcess.position
        for estimate in screen_fleet(fused, z, [6.0, 7.0, 8.0], 30,
                                     max_roots=300, seed=2):
            assert_plain_numbers(estimate)
        for curve in screen_fleet_curves(fused, z, [[3.0, 6.0]] * 3, 30,
                                         max_roots=300, seed=2):
            for estimate in curve.estimates:
                assert_plain_numbers(estimate)

    @pytest.mark.parametrize("parallel", [
        None, ParallelPolicy(n_workers=1, pool="inline")],
        ids=["direct", "inline"])
    def test_engine_answers(self, parallel):
        queries = self.fleet()
        policy = ExecutionPolicy(method="srs", max_roots=300, seed=3,
                                 parallel=parallel)
        with DurabilityEngine(policy) as engine:
            estimates = engine.answer_batch(queries)
            assert all(e.details.get("fused") for e in estimates)
            curves = engine.durability_curves(queries, [3.0, 6.0])
            assert all(c.details.get("fused") for c in curves)
            estimates.append(engine.answer(queries[0]))
            curves.append(engine.durability_curve(queries[0], [3.0, 6.0]))
        for estimate in estimates:
            assert_plain_numbers(estimate)
        for curve in curves:
            for estimate in curve.estimates:
                assert_plain_numbers(estimate)
