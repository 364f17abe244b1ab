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

The search can also run *curve-aware*: given a mandatory normalized
threshold ``grid`` (the read-out boundaries of a ``durability_curve``
pass), the grid seeds the plan and the search only places refinement
boundaries around it — scoring the grid-only plan first as the
baseline — so one searched plan serves the whole grid instead of a
single-threshold plan being stretched across it.
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
    #: True when the plan came from a PlanCache hit (no search was run).
    from_cache: bool = False

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
                              plan_cache=None,
                              pool=None,
                              grid=None,
                              cache_kind=None) -> GreedyResult:
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
    plan_cache:
        Optional :class:`repro.engine.PlanCache` (or anything with its
        ``get``/``put`` interface).  On a hit the cached plan is
        returned immediately with ``from_cache=True`` and zero search
        steps; on a miss the search runs and its result is stored for
        the next equivalent query.
    pool:
        Optional :class:`~repro.core.pool.WorkerPool`: each round's
        candidate trials — independent fixed-budget simulations, the
        entire cost of the search — run concurrently on its workers
        via :class:`~repro.core.pool.PlanSearchWork`.  Trial seeds are
        *structural* (derived from the running trial index with
        :func:`~repro.core.pool.derive_task_seed`) in both the pooled
        and parent-only paths, so for a fixed ``seed`` the pooled
        search returns exactly the plan the parent-only search would.
    grid:
        Mandatory normalized boundaries (a curve's read-out levels,
        each in ``(0, 1)``, strictly ascending, above the initial
        value): they seed the plan, a baseline trial scores the
        grid-only plan, and the search only *adds* refinement
        boundaries around them — the returned partition always
        contains the grid verbatim.
    cache_kind:
        Overrides the plan-cache kind (default ``"greedy"``); the
        curve-aware engine path passes a grid-shaped kind so curve
        plans never collide with point plans.
    """
    kind = cache_kind if cache_kind is not None else "greedy"
    if plan_cache is not None:
        entry = plan_cache.get(query, kind=kind)
        if entry is not None:
            return GreedyResult(
                partition=entry.partition, best_score=entry.score,
                rounds=[], search_steps=0,
                pooled_estimate=0.0, pooled_roots=0, from_cache=True,
            )
    initial_value = query.initial_value()
    plan = LevelPartition(grid) if grid else LevelPartition()
    if plan.boundaries and plan.boundaries[0] <= initial_value:
        raise ValueError(
            f"grid boundary {plan.boundaries[0]} does not exceed the "
            f"initial state's value {initial_value}")
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
        if plan.boundaries:
            # Baseline trial: score the mandatory grid-only plan so a
            # refinement is only accepted when it actually improves on
            # serving the grid as-is.
            baseline_seed = derive_task_seed(seed, trial_index,
                                             salt="plan")
            trial_index += 1
            if handle is not None:
                baseline = pool.run_tasks(handle, [
                    ("trial", plan.boundaries, baseline_seed)])[0]
            else:
                baseline = evaluate_partition(
                    query, plan, ratio=ratio, trial_steps=trial_steps,
                    seed=baseline_seed)
            search_steps += baseline.steps
            best_score = baseline.eval_score
            rounds.append(GreedyRound(
                focus=(v_lo, v_hi), candidates=[], trials=[baseline],
                chosen=None, best_score=baseline.eval_score))
            v_lo, v_hi = _obstacle_interval(plan, baseline,
                                            initial_value)
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
    result = GreedyResult(
        partition=plan, best_score=best_score, rounds=rounds,
        search_steps=search_steps, pooled_estimate=pooled,
        pooled_roots=pooled_roots,
    )
    if plan_cache is not None:
        plan_cache.put(query, plan, kind=kind, score=best_score)
    return result


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
