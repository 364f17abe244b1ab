"""Shared test utilities: scripted processes and statistical assertions."""

from __future__ import annotations

import dataclasses
import math
import random

from repro.processes.base import ImmutableStateProcess, StochasticProcess


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
    ({"parallel": {"tasks_per_round": True}}, "tasks_per_round"),
    ({"parallel": {"max_worker_restarts": -1}}, "max_worker_restarts"),
    ({"parallel": 5}, "parallel"),
]
