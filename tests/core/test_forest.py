"""Tests for the splitting-forest simulator's counter bookkeeping.

Scripted (deterministic) processes make every counter predictable by
hand; these scenarios pin down landings, skips, crossings, hits and
step accounting exactly, including the paper's corner cases (level
skipping, direct-to-target jumps, landings at the horizon).  The
scripted processes define only ``step``, so they run inside a
``ScalarFallback``; the hand-derived counters are the oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.fleet import FleetThresholdValue, _FleetQuery
from repro.core.forest import LevelPlanError, VectorizedForestRunner
from repro.core.levels import LevelPartition
from repro.core.records import ForestAggregate
from repro.core.value_functions import (DurabilityQuery,
                                        ThresholdValueFunction)
from repro.processes import (GaussianWalkProcess, RandomWalkProcess,
                             fuse_processes)
from repro.processes.base import VectorizedProcess
from repro.processes.markov_chain import MarkovChainProcess, birth_death_chain

from ..helpers import ScriptedProcess, identity_z, reference_forest_cohort


def scripted_query(script, beta=1.0, horizon=None, initial=0.0):
    process = ScriptedProcess(script, initial=initial)
    return DurabilityQuery.threshold(process, identity_z, beta=beta,
                                     horizon=horizon or len(script))


def make_runner(query, boundaries, ratio, seed=0):
    return VectorizedForestRunner(query, LevelPartition(boundaries), ratio,
                                  np.random.default_rng(seed))


def run_single_root(query, boundaries, ratio):
    """The one root's counters, read from the cohort's arrays."""
    cohort = make_runner(query, boundaries, ratio).run_cohort(1)
    return SimpleNamespace(**{name: column[0].tolist() for name, column
                              in zip(cohort._fields, cohort)})


class TestScriptedScenarios:
    def test_clean_two_level_ascent(self):
        # 0.2 -> 0.5 (land L1) -> 0.9 (land L2) -> 1.2 (hit), r = 2.
        record = run_single_root(
            scripted_query([0.2, 0.5, 0.9, 1.2]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 1, 2]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 2, 4]
        assert record.hits == 4
        assert record.steps == 2 + 2 * 1 + 4 * 1

    def test_level_skipping_path(self):
        # 0.2 -> 0.9 jumps straight over L1 into L2.
        record = run_single_root(
            scripted_query([0.2, 0.9, 1.2]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 0, 1]
        assert record.skips == [0, 1, 0]
        assert record.crossings == [0, 0, 2]
        assert record.hits == 2
        assert record.steps == 2 + 2

    def test_direct_jump_to_target(self):
        # One step straight to the target: skips recorded at every level.
        record = run_single_root(
            scripted_query([1.5]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 1, 1]
        assert record.crossings == [0, 0, 0]
        assert record.hits == 1
        assert record.steps == 1

    def test_landing_at_horizon_spawns_no_offspring(self):
        record = run_single_root(
            scripted_query([0.2, 0.5]), [0.4, 0.8], ratio=3)
        assert record.landings == [0, 1, 0]
        assert record.crossings == [0, 0, 0]
        assert record.hits == 0
        assert record.steps == 2

    def test_no_progress_leaves_counters_zero(self):
        record = run_single_root(
            scripted_query([0.2, 0.3]), [0.4, 0.8], ratio=3)
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 0, 0]
        assert record.hits == 0
        assert record.steps == 2

    def test_dip_below_born_level_does_not_resplit(self):
        # Path lands in L1, dips to L0, returns to L1 (no new split),
        # then lands in L2 and finally hits.
        record = run_single_root(
            scripted_query([0.2, 0.5, 0.2, 0.55, 0.9, 0.95, 1.0]),
            [0.4, 0.8], ratio=1)
        assert record.landings == [0, 1, 1]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 1, 1]
        assert record.hits == 1
        assert record.steps == 2 + 3 + 2

    def test_empty_partition_is_plain_path(self):
        record = run_single_root(scripted_query([0.5, 1.2]), [], ratio=4)
        assert record.hits == 1
        assert record.steps == 2

    def test_path_stops_at_first_hit(self):
        # Script continues beyond the hit, but simulation must not.
        record = run_single_root(
            scripted_query([1.0, 0.2, 0.3], horizon=3), [], ratio=1)
        assert record.hits == 1
        assert record.steps == 1


class TestValidation:
    def test_rejects_boundary_below_initial_value(self):
        query = scripted_query([0.9], initial=0.5)
        with pytest.raises(LevelPlanError):
            make_runner(query, [0.4], 2)

    def test_rejects_initially_satisfied_query(self):
        query = scripted_query([0.9], initial=1.5)
        with pytest.raises(LevelPlanError):
            make_runner(query, [0.4], 2)

    def test_accepts_boundary_above_initial_value(self):
        query = scripted_query([0.9], initial=0.5)
        cohort = make_runner(query, [0.6], 2).run_cohort(1)
        assert cohort.landings.tolist() == [[0, 1]]

    def test_run_roots_rejects_negative(self):
        query = scripted_query([0.9])
        with pytest.raises(ValueError):
            make_runner(query, [], 1).run_cohort(-1)


class TestReproducibility:
    def test_same_seed_same_records(self, small_chain_query,
                                    small_chain_partition):
        def run(seed):
            runner = VectorizedForestRunner(
                small_chain_query, small_chain_partition, 3,
                np.random.default_rng(seed))
            return [column.tolist() for column in runner.run_cohort(20)]

        assert run(123) == run(123)
        assert run(123) != run(124)


@settings(max_examples=25, deadline=None)
@given(
    p_up=st.floats(min_value=0.15, max_value=0.45),
    # Boundary gaps stay above one walk step (1/8 of the value range),
    # so the one-unit-per-step chain can never skip a level.
    bounds=st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                    min_size=0, max_size=3, unique=True),
    ratio=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_counter_invariants_hold_on_random_runs(p_up, bounds, ratio, seed):
    """Structural invariants of the forest counters on random chains."""
    chain = birth_death_chain(n=9, p_up=p_up, p_down=0.45, start=0)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=8.0,
                                      horizon=30)
    partition = LevelPartition(bounds)
    runner = VectorizedForestRunner(query, partition, ratio,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(15))

    for i in range(1, partition.num_levels):
        assert 0 <= aggregate.crossings[i] <= ratio * aggregate.landings[i]
        assert aggregate.skips[i] >= 0
    assert aggregate.hits >= 0
    # Path segments: one per root plus `ratio` per split.
    assert aggregate.steps <= (aggregate.n_roots + sum(
        ratio * c for c in aggregate.landings)) * query.horizon
    # The walk moves one unit per step: it cannot skip levels.
    assert aggregate.total_skips == 0


# ----------------------------------------------------------------------
# The array kernel against the per-event reference
# ----------------------------------------------------------------------

def assert_same_counters(query, partition, ratios, seed, n_roots,
                         initial_states=None):
    """The kernel and the per-event reference, from the same seed, give
    the same six ``int64`` arrays."""
    def states():
        return None if initial_states is None else initial_states.copy()

    kernel = VectorizedForestRunner(
        query, partition, ratios, np.random.default_rng(seed)).run_cohort(
            n_roots, initial_states=states())
    reference = reference_forest_cohort(
        query, partition, ratios, np.random.default_rng(seed), n_roots,
        initial_states=states())
    for name, ours, theirs in zip(kernel._fields, kernel, reference):
        assert ours.dtype == np.int64, name
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


def family_query(family: str) -> DurabilityQuery:
    """Skip-free (birth-death chain, lazy walk) and skipping (Gaussian
    walk) families; every boundary at a multiple of ``1 / beta`` lands
    on the chain's and the lazy walk's lattice."""
    if family == "chain":
        chain = birth_death_chain(n=9, p_up=0.35, p_down=0.4, start=0)
        return DurabilityQuery.threshold(chain, chain.state_value,
                                         beta=8.0, horizon=40)
    if family == "lazy_walk":
        walk = RandomWalkProcess(p_up=0.3, p_down=0.35)
        return DurabilityQuery.threshold(walk, RandomWalkProcess.position,
                                         beta=8.0, horizon=40)
    walk = GaussianWalkProcess(drift=0.1, sigma=1.5)
    return DurabilityQuery.threshold(walk, GaussianWalkProcess.position,
                                     beta=8.0, horizon=40)


plans = st.tuples(
    st.lists(st.integers(min_value=1, max_value=7), max_size=4, unique=True),
    st.lists(st.floats(min_value=0.02, max_value=0.98), max_size=2))
ratio_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=6,
                       max_size=6)


def plan_and_ratios(plan, ratio_list, per_level):
    lattice, free = plan
    bounds = sorted({k / 8.0 for k in lattice} | set(free))
    partition = LevelPartition(bounds)
    if per_level and bounds:
        return partition, ratio_list[:len(bounds)]
    return partition, ratio_list[0]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["chain", "lazy_walk", "gaussian_walk"]),
       plan=plans, ratio_list=ratio_lists, per_level=st.booleans(),
       n_roots=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_kernel_equals_per_event_reference(family, plan, ratio_list,
                                           per_level, n_roots, seed):
    partition, ratios = plan_and_ratios(plan, ratio_list, per_level)
    assert_same_counters(family_query(family), partition, ratios, seed,
                         n_roots)


@settings(max_examples=30, deadline=None)
@given(plan=plans, ratio_list=ratio_lists, per_level=st.booleans(),
       counts=st.lists(st.integers(min_value=0, max_value=60), min_size=3,
                       max_size=3).filter(any),
       z_space=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_kernel_equals_reference_on_explicit_fused_states(
        plan, ratio_list, per_level, counts, z_space, seed):
    """Explicit ``initial_states`` of a :class:`FusedBatch`, as the
    fused fleet composes its cohorts: per-row thresholds in value
    space, or one threshold classified in z-space."""
    fused = fuse_processes([RandomWalkProcess(p_up=p, p_down=0.35)
                            for p in (0.25, 0.3, 0.35)])
    value_fn = (ThresholdValueFunction(RandomWalkProcess.position, 8.0)
                if z_space else
                FleetThresholdValue(RandomWalkProcess.position,
                                    [8.0, 9.0, 10.0]))
    partition, ratios = plan_and_ratios(plan, ratio_list, per_level)
    assert_same_counters(_FleetQuery(fused, value_fn, 30), partition,
                         ratios, seed, sum(counts),
                         fused.initial_states_for(counts))


class Column0:
    """``z`` of a :class:`TableProcess` state: its value column."""

    def __call__(self, state) -> float:
        return float(state[0])

    def batch(self, states):
        return states[:, 0]


class TableProcess(VectorizedProcess):
    """Root ``i`` and all its offspring replay row ``i`` of a value
    table: the state is ``(value, i)``."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def initial_state(self):
        return np.zeros(2)

    def initial_states(self, n: int) -> np.ndarray:
        return np.column_stack([np.zeros(n), np.arange(n, dtype=float)])

    def step_batch(self, states, t, rng):
        out = states.copy()
        out[:, 0] = self.table[states[:, 1].astype(np.intp), t - 1]
        return out


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(min_value=1e-3, max_value=1e3),
       bounds=st.lists(st.floats(min_value=1e-3, max_value=0.999),
                       max_size=4, unique=True),
       ratio=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_z_space_classification_at_every_edge(beta, bounds, ratio, seed):
    """Paths that sit on every z-space boundary, its float neighbours,
    +-0, +-inf and NaN score exactly as in value space: a NaN is no
    hit and lands on the top interior level."""
    bounds = sorted(bounds)
    f = ThresholdValueFunction(Column0(), beta)
    edges = f.z_boundaries(bounds + [1.0])
    special = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    rng = np.random.default_rng(seed)
    horizon = 12
    table = rng.choice(special, size=(40, horizon))
    query = DurabilityQuery(process=TableProcess(table), value_function=f,
                            horizon=horizon)
    assert_same_counters(query, LevelPartition(bounds), ratio, seed, 40)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(min_value=0.5, max_value=25.0),
       bounds=st.lists(st.floats(min_value=0.01, max_value=0.99),
                       max_size=4, unique=True),
       by_index=st.booleans(),
       ratio=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       data=st.data())
def test_per_state_levels_equal_scored_levels(beta, bounds, by_index, ratio,
                                              seed, data):
    """A chain under its own ``state_value`` (values negative, repeated,
    unordered, on every z-space edge and beside it) or ``state_index``
    is classified by a per-state level table: every state's level is
    its score's level, and cohorts equal the value-space reference."""
    bounds = sorted(bounds)
    edges = ThresholdValueFunction(identity_z, beta).z_boundaries(
        bounds + [1.0])
    on_edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)]).tolist()
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([-4.0, 0.0] + on_edges),
                  st.floats(min_value=-20.0, max_value=20.0)),
        min_size=2, max_size=9))
    n = len(values)
    chain = MarkovChainProcess([[1.0 / n] * n] * n,
                               start=int(np.argmin(values)), values=values)
    z = MarkovChainProcess.state_index if by_index else chain.state_value
    query = DurabilityQuery.threshold(chain, z, beta=beta, horizon=12)
    initial = query.initial_value()
    assume(initial < 1.0)
    bounds = [b for b in bounds if b > initial]
    runner = make_runner(query, bounds, ratio)
    f = query.value_function
    assert runner._state_levels.tolist() == [
        sum(f(state, 0) >= edge for edge in bounds + [1.0])
        for state in range(n)]
    assert_same_counters(query, LevelPartition(bounds), ratio, seed, 30)


def test_other_evaluations_keep_the_scored_path():
    chain = birth_death_chain(n=5, p_up=0.3, p_down=0.3)
    twin = birth_death_chain(n=5, p_up=0.3, p_down=0.3)
    for z in (twin.state_value, identity_z):
        query = DurabilityQuery.threshold(chain, z, beta=4.0, horizon=10)
        assert make_runner(query, [0.5], 2)._state_levels is None
