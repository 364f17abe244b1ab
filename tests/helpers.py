"""Shared test utilities: scripted processes and statistical assertions."""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import numpy as np

from repro.core.levels import normalize_ratios
from repro.core.records import ForestCohort
from repro.core.value_functions import TARGET_VALUE, batch_values
from repro.processes.base import (ImmutableStateProcess, StochasticProcess,
                                  as_vectorized)


class ScriptedProcess(ImmutableStateProcess):
    """A deterministic process replaying a fixed value sequence.

    The state is the current scalar value; ``step`` at time ``t``
    returns ``script[t - 1]`` regardless of randomness.  Perfect for
    pinning down the splitting forest's counter bookkeeping by hand.
    """

    def __init__(self, script, initial: float = 0.0):
        if not script:
            raise ValueError("script must be non-empty")
        self.script = tuple(float(v) for v in script)
        self.initial = float(initial)

    def initial_state(self) -> float:
        return self.initial

    def step(self, state: float, t: int, rng: random.Random) -> float:
        index = min(t - 1, len(self.script) - 1)
        return self.script[index]


class TwoBranchProcess(ImmutableStateProcess):
    """Random process choosing one of two scripted paths at time 1.

    With probability ``p_first`` the whole path follows ``first``,
    otherwise ``second``; afterwards it is deterministic.  The state is
    ``(branch, value)``.  The exact hitting probability of any
    threshold is computable by hand, and the two branches can be given
    very different level behaviour (e.g. one skips levels).
    """

    def __init__(self, first, second, p_first: float):
        if not 0.0 <= p_first <= 1.0:
            raise ValueError(f"p_first must be in [0, 1], got {p_first}")
        self.first = tuple(float(v) for v in first)
        self.second = tuple(float(v) for v in second)
        self.p_first = p_first

    def initial_state(self) -> tuple:
        return (-1, 0.0)

    def step(self, state: tuple, t: int, rng: random.Random) -> tuple:
        branch, _ = state
        if t == 1:
            branch = 0 if rng.random() < self.p_first else 1
        script = self.first if branch == 0 else self.second
        index = min(t - 1, len(script) - 1)
        return (branch, script[index])

    @staticmethod
    def value(state: tuple) -> float:
        return state[1]


class ScalarOnly(StochasticProcess):
    """A process reduced to its ``step`` definition.

    Delegates the scalar contract to ``process`` but has no
    ``step_batch``, so samplers run it inside a ``ScalarFallback`` —
    the path every model without a batched kernel takes.  Picklable
    whenever ``process`` is, so pooled runs can ship it to workers.
    """

    def __init__(self, process: StochasticProcess):
        self.process = process

    def initial_state(self):
        return self.process.initial_state()

    def step(self, state, t: int, rng: random.Random):
        return self.process.step(state, t, rng)

    def copy_state(self, state):
        return self.process.copy_state(state)


def scalar_only(query):
    """``query`` with its process reduced to :class:`ScalarOnly`."""
    return dataclasses.replace(query, process=ScalarOnly(query.process))


def make_cohort(num_levels: int, n: int = 1, **columns) -> ForestCohort:
    """A :class:`ForestCohort` of ``n`` roots, zero but for the named
    columns (one value, or one value or level row per root)."""
    arrays = {}
    for name in ForestCohort._fields:
        matrix = name in ("landings", "skips", "crossings")
        shape = (n, num_levels) if matrix else (n,)
        value = np.asarray(columns.pop(name, 0), dtype=np.int64)
        arrays[name] = np.broadcast_to(value, shape).copy()
    if columns:
        raise TypeError(f"unknown cohort columns {sorted(columns)}")
    return ForestCohort(**arrays)


def reference_forest_cohort(query, partition, ratios, rng, n_roots: int,
                            initial_states=None) -> tuple:
    """The splitting forest's bookkeeping one event at a time.

    The per-event body :class:`~repro.core.forest.
    VectorizedForestRunner` ran before its counters became arrays,
    kept as the reference its kernel is pinned to: the same draws in
    the same order (one ``step_batch`` per time step over survivors
    then offspring, in row order), scored in value space (``hit =
    values >= 1``, ``levels = searchsorted(bounds, values, "right")``),
    with a split table for the crossings.  Returns the six ``int64``
    arrays ``(landings, skips, crossings, hits, max_levels, steps)``.
    """
    process = as_vectorized(query.process)
    value_fn = query.value_function
    horizon = query.horizon
    m = partition.num_levels
    bounds = np.asarray(partition.boundaries, dtype=np.float64)
    ratios = normalize_ratios(ratios, m)
    landings = np.zeros((n_roots, m), dtype=np.int64)
    skips = np.zeros((n_roots, m), dtype=np.int64)
    crossings = np.zeros((n_roots, m), dtype=np.int64)
    hits = np.zeros(n_roots, dtype=np.int64)
    max_levels = np.zeros(n_roots, dtype=np.int64)
    steps = np.zeros(n_roots, dtype=np.int64)
    states = (process.initial_states(n_roots) if initial_states is None
              else initial_states)
    roots = np.arange(n_roots)
    born = np.zeros(n_roots, dtype=np.int64)
    parents = np.full(n_roots, -1, dtype=np.int64)
    splits = []  # [root, level, crossed] per split

    for t in range(1, horizon + 1):
        if not len(roots):
            break
        states = process.step_batch(states, t, rng)
        steps += np.bincount(roots, minlength=n_roots)
        values = batch_values(value_fn, states, t)
        hit = values >= TARGET_VALUE
        levels = np.searchsorted(bounds, values, side="right")
        promoted = ~hit & (levels > born)
        event = hit | promoted
        if not event.any():
            continue
        spawn_rows, spawn_slots, spawn_levels = [], [], []
        for i in np.nonzero(event)[0]:
            root = roots[i]
            if hit[i]:
                hits[root] += 1
                max_levels[root] = m
                skips[root, born[i] + 1:m] += 1
            else:
                level = int(levels[i])
                max_levels[root] = max(max_levels[root], level)
                skips[root, born[i] + 1:level] += 1
                landings[root, level] += 1
                splits.append([root, level, 0])
                if t < horizon:
                    spawn_rows.append(i)
                    spawn_slots.append(len(splits) - 1)
                    spawn_levels.append(level)
            if parents[i] >= 0:
                splits[parents[i]][2] += 1
        survivors = ~event
        if spawn_rows:
            counts = np.asarray([ratios[lv] for lv in spawn_levels])
            offspring = process.replicate(states, spawn_rows, counts)
            states = np.concatenate([states[survivors], offspring])
            roots = np.concatenate(
                [roots[survivors], np.repeat(roots[spawn_rows], counts)])
            born = np.concatenate(
                [born[survivors], np.repeat(spawn_levels, counts)])
            parents = np.concatenate(
                [parents[survivors], np.repeat(spawn_slots, counts)])
        else:
            states, roots = states[survivors], roots[survivors]
            born, parents = born[survivors], parents[survivors]

    for root, level, crossed in splits:
        crossings[root, level] += crossed
    return landings, skips, crossings, hits, max_levels, steps


def identity_z(state) -> float:
    """``z`` for processes whose state is already the value."""
    return float(state)


def assert_close_to(estimate: float, truth: float, std_error: float,
                    z_bound: float = 4.5, absolute_floor: float = 1e-12):
    """Assert a point estimate is within ``z_bound`` standard errors.

    Adds a tiny absolute floor so exact-zero variances (degenerate
    runs) do not produce vacuous failures.
    """
    tolerance = z_bound * max(std_error, 0.0) + absolute_floor
    assert abs(estimate - truth) <= tolerance, (
        f"estimate {estimate} deviates from truth {truth} by "
        f"{abs(estimate - truth):.3g} > tolerance {tolerance:.3g}"
    )


def run_mean_estimate(run_once, n_runs: int, seed_base: int = 0) -> tuple:
    """Mean and standard error of ``run_once(seed)`` over repeated runs."""
    values = [run_once(seed_base + i) for i in range(n_runs)]
    mean = sum(values) / n_runs
    if n_runs > 1:
        var = sum((v - mean) ** 2 for v in values) / (n_runs - 1)
        std_error = math.sqrt(var / n_runs)
    else:
        std_error = 0.0
    return mean, std_error


#: Policy documents that must fail validation, each with the field its
#: error names: budgets and counts below range, floats and strings
#: where integers belong (including JSON's ``1e9``), and booleans
#: standing in for 1.  None of them may reach a simulation.
MALFORMED_POLICIES = [
    ({"method": "srs", "max_roots": 0}, "max_roots"),
    ({"method": "srs", "max_steps": -1}, "max_steps"),
    ({"method": "gmlss", "num_levels": 3, "max_roots": 0}, "max_roots"),
    ({"method": "srs", "max_steps": 1e9}, "max_steps"),
    ({"max_roots": 2.5}, "max_roots"),
    ({"max_roots": "10"}, "max_roots"),
    ({"max_roots": True}, "max_roots"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"num_levels": 2.5}, "num_levels"),
    ({"ratio": 2.5}, "ratio"),
    ({"ratio": 0}, "ratio"),
    ({"ratio": [3, 0]}, "ratio"),
    ({"trial_steps": 2.5}, "trial_steps"),
    ({"parallel": {"n_workers": 1.5}}, "n_workers"),
    ({"parallel": {"roots_per_task": 2.5}}, "roots_per_task"),
    ({"parallel": {"tasks_per_round": 8}}, "tasks_per_round"),
    ({"parallel": {"max_worker_restarts": -1}}, "max_worker_restarts"),
    ({"parallel": {"pool": "spawn"}}, "pool"),
    ({"parallel": {"pool": "thread"}}, "pool"),
    ({"parallel": 5}, "parallel"),
]


def shm_entries():
    """Names in ``/dev/shm``, or ``None`` where it does not exist."""
    try:
        return {entry.name for entry in Path("/dev/shm").iterdir()}
    except FileNotFoundError:
        return None


def assert_no_new_shm(before) -> None:
    """No ``/dev/shm`` entry appeared since ``before`` (taken with
    :func:`shm_entries`); skipped where ``/dev/shm`` does not exist."""
    if before is not None:
        assert shm_entries() - before == set()
