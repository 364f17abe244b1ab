"""Adaptive greedy partition search (Section 5.2, Algorithm 1).

The strategy places partition boundaries one at a time: each round
generates candidate boundaries inside the current focus interval,
scores each candidate plan with a fixed-budget trial (Eq. 15), keeps
the best if it improves on the incumbent, and then refocuses on the
level with the *smallest* advancement probability — the "obstacle"
level.  Recursively bisecting obstacle levels drives the plan towards
balanced growth without any prior knowledge of the model or query.

The search stops as soon as a round fails to improve the evaluation
score (more levels would only add splitting overhead) or when
``max_rounds`` is reached.

The search is a pure function of the query, its knobs and the seed:
it neither reads nor writes a plan cache.  Memoizing plans across
queries is :func:`repro.engine.service.resolve_plan`'s job, which
runs the search only when its cache lookup misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .levels import LevelPartition
from .optimizer import PlanTrial, evaluate_partition, pool_trials
from .pool import PlanSearchWork, derive_task_seed
from .value_functions import DurabilityQuery


@dataclass
class GreedyRound:
    """What happened in one round of Algorithm 1."""

    focus: tuple
    candidates: list
    trials: list
    chosen: Optional[float]
    best_score: float


@dataclass
class GreedyResult:
    """Outcome of the adaptive greedy search."""

    partition: LevelPartition
    best_score: float
    rounds: list = field(default_factory=list)
    search_steps: int = 0
    pooled_estimate: float = 0.0
    pooled_roots: int = 0

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def all_trials(self) -> list:
        return [t for rnd in self.rounds for t in rnd.trials]


def candidate_boundaries(v_lo: float, v_hi: float, count: int,
                         existing: tuple, minimum: float) -> list:
    """Uniformly spaced candidate boundaries inside ``(v_lo, v_hi)``.

    Candidates colliding with existing boundaries or not exceeding the
    initial state's value are dropped (the plan must keep every root in
    ``L_0``).  A uniform grid rather than uniform random draws keeps
    the search deterministic under a fixed seed; the paper only asks
    for candidates "uniformly generated" in the interval.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    span = v_hi - v_lo
    if span <= 0:
        return []
    step = span / (count + 1)
    grid = (v_lo + step * k for k in range(1, count + 1))
    return [v for v in grid
            if v > minimum and 0.0 < v < 1.0 and v not in existing]


def adaptive_greedy_partition(query: DurabilityQuery, ratio=3,
                              trial_steps: int = 20000,
                              candidates_per_round: int = 5,
                              max_rounds: int = 10,
                              seed: Optional[int] = None,
                              pool=None) -> GreedyResult:
    """Algorithm 1: search for a (near-)optimal partition plan.

    Parameters
    ----------
    query:
        The durability query to optimize for.
    ratio:
        The fixed splitting ratio ``r`` used during search (paper
        default 3; Section 5 argues a small fixed ratio plus more
        levels approximates variable ratios).
    trial_steps:
        Simulation budget ``t_0`` per candidate trial.
    candidates_per_round:
        Number of candidate boundaries generated per round.
    max_rounds:
        Hard cap on rounds (each successful round adds one boundary).
    pool:
        Optional :class:`~repro.core.pool.WorkerPool`: each round's
        candidate trials — independent fixed-budget simulations, the
        entire cost of the search — run concurrently on its workers
        via :class:`~repro.core.pool.PlanSearchWork`.  Trial seeds are
        *structural* (derived from the running trial index with
        :func:`~repro.core.pool.derive_task_seed`) in both the pooled
        and parent-only paths, so for a fixed ``seed`` the pooled
        search returns exactly the plan the parent-only search would.
    """
    initial_value = query.initial_value()
    plan = LevelPartition()
    best_score = float("inf")
    v_lo, v_hi = 0.0, 1.0
    rounds = []
    search_steps = 0
    trial_index = 0
    handle = None
    if pool is not None:
        handle = pool.register(PlanSearchWork(
            query=query, ratio=ratio, trial_steps=trial_steps))
    try:
        for _ in range(max_rounds):
            candidates = candidate_boundaries(
                v_lo, v_hi, candidates_per_round, plan.boundaries,
                minimum=initial_value)
            if not candidates:
                break
            # Trial seeds derive from the trial's position in the
            # search, so the pooled and parent-only paths score every
            # candidate with identical randomness and choose identical
            # plans.
            plans = [plan.with_boundary(value) for value in candidates]
            seeds = [derive_task_seed(seed, trial_index + i, salt="plan")
                     for i in range(len(plans))]
            trial_index += len(plans)
            if handle is not None:
                trials = pool.run_tasks(handle, [
                    ("trial", candidate.boundaries, trial_seed)
                    for candidate, trial_seed in zip(plans, seeds)])
            else:
                trials = [evaluate_partition(
                    query, candidate, ratio=ratio,
                    trial_steps=trial_steps, seed=trial_seed)
                    for candidate, trial_seed in zip(plans, seeds)]
            for trial in trials:
                search_steps += trial.steps
            scored = sorted(zip(trials, candidates),
                            key=lambda pair: (pair[0].eval_score,
                                              -pair[0].hits,
                                              -pair[0].top_flow))
            best_trial, best_value = scored[0]
            improved = best_trial.eval_score < best_score
            # With no target hits anywhere yet, every eval is infinite
            # and carries no information; keep adding boundaries toward
            # the level with the most upward flow instead of giving up —
            # for rare targets, more levels are certainly needed.
            exploring = (not improved and math.isinf(best_score)
                         and best_trial.top_flow > 0)
            accept = improved or exploring
            rounds.append(GreedyRound(
                focus=(v_lo, v_hi), candidates=candidates, trials=trials,
                chosen=best_value if accept else None,
                best_score=best_trial.eval_score,
            ))
            if not accept:
                break
            plan = plan.with_boundary(best_value)
            if improved:
                best_score = best_trial.eval_score
            # Refocus on the level with the smallest advancement
            # probability.
            v_lo, v_hi = _obstacle_interval(plan, best_trial,
                                            initial_value)
    finally:
        if handle is not None:
            pool.unregister(handle)

    pooled, pooled_roots, _ = pool_trials(
        [t for rnd in rounds for t in rnd.trials])
    return GreedyResult(
        partition=plan, best_score=best_score, rounds=rounds,
        search_steps=search_steps, pooled_estimate=pooled,
        pooled_roots=pooled_roots,
    )


def _obstacle_interval(plan: LevelPartition, trial: PlanTrial,
                       initial_value: float) -> tuple:
    """The interval of the level with the smallest advancement probability.

    ``trial.pi_hats[i]`` estimates the advancement out of level ``L_i``
    (crossing ``beta_{i+1}`` given ``beta_i`` was crossed).  The lower
    edge is clamped above the initial state's value so new boundaries
    stay valid.
    """
    pi_hats = trial.pi_hats
    obstacle = min(range(len(pi_hats)), key=lambda i: pi_hats[i])
    lo = plan.lower_boundary(obstacle)
    hi = (plan.lower_boundary(obstacle + 1)
          if obstacle + 1 <= plan.num_levels else 1.0)
    return (max(lo, initial_value), hi)
