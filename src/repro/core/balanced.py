"""Balanced-growth partition tuning (Section 5.1).

The theoretical optimum for fixed-ratio MLSS makes all level
advancement probabilities equal ("balanced growth", Eq. 12).  The paper
obtained such plans by manual tuning; this module automates the recipe
so the benchmarks can build MLSS-BAL plans reproducibly:

1. run a pilot of plain SRS paths — rounds of the one SRS kernel,
   :func:`repro.core.srs.advance_rows` — and record the *maximum*
   value-function score each path attains (its survival curve is exactly
   ``Pr[max_t f(X_t) >= v]``, the quantity level boundaries quantize);
2. where the empirical curve runs out of resolution (tiny target
   probabilities), extrapolate its upper tail with an exponential fit —
   the customary light-tail assumption behind importance splitting;
3. place boundaries so consecutive survival values form a geometric
   ladder from 1 down to the (estimated) target probability.

The plan build is a pure function of the query, the level count, the
grid and the seed: it neither reads nor writes a plan cache.
Memoizing plans across queries is
:func:`repro.engine.service.resolve_plan`'s job, which runs the pilot
only when its cache lookup misses.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .forest import LevelPlanError
from .levels import LevelPartition
from .pool import PlanSearchWork, derive_task_seed
from .srs import QueryRows, advance_rows
from .value_functions import TARGET_VALUE, DurabilityQuery
from .variance import (balanced_boundaries_from_survival,
                       curve_refined_boundaries)

#: Pilot paths per chunk.  The pilot is *always* cut into chunks of
#: this size with chunk-index-derived seeds — sequentially in the
#: parent or sharded over a worker pool — so pooled and parent-only
#: pilots draw identical randomness and build identical plans.
DEFAULT_PILOT_PATHS_PER_TASK = 512


def pilot_max_values(query: DurabilityQuery, n_paths: int = 2000,
                     seed: Optional[int] = None, pool=None,
                     paths_per_task: Optional[int] = None) -> list:
    """Max value-function score per SRS pilot path (sorted ascending).

    Paths stop early once they hit the target (their max is 1).  The
    pilot runs as fixed-size chunks whose seeds derive from the chunk
    index (:func:`~repro.core.pool.derive_task_seed`); with a
    :class:`~repro.core.pool.WorkerPool` the chunks run concurrently
    via :class:`~repro.core.pool.PlanSearchWork`, and because the
    decomposition never depends on the worker count, pooled pilots
    return exactly what the sequential pilot would.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    paths_per_task = paths_per_task or DEFAULT_PILOT_PATHS_PER_TASK
    if paths_per_task < 1:
        raise ValueError(
            f"paths_per_task must be >= 1, got {paths_per_task}")
    chunks = []
    remaining = n_paths
    index = 0
    while remaining > 0:
        count = min(remaining, paths_per_task)
        chunks.append((count, derive_task_seed(seed, index, salt="pilot")))
        index += 1
        remaining -= count
    if pool is not None and len(chunks) > 1:
        handle = pool.register(PlanSearchWork(query=query))
        try:
            results = pool.run_tasks(
                handle, [("pilot", count, chunk_seed)
                         for count, chunk_seed in chunks])
        finally:
            pool.unregister(handle)
    else:
        results = [pilot_chunk_max_values(query, count, seed=chunk_seed)
                   for count, chunk_seed in chunks]
    maxima = [value for chunk in results for value in chunk]
    maxima.sort()
    return maxima


def pilot_chunk_max_values(query: DurabilityQuery, n_paths: int,
                           seed: Optional[int] = None) -> list:
    """One pilot chunk's per-path maxima (unsorted; the pooled task
    primitive behind :func:`pilot_max_values`).

    The chunk is one round of the SRS kernel
    (:func:`~repro.core.srs.advance_rows`) on the one-level grid
    ``(1.0,)``, each path tracking its running maximum score from time
    0 until it hits the target (its maximum is then 1) or the horizon.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rows = QueryRows(query, (TARGET_VALUE,), from_start=True)
    topped, _, best = advance_rows(rows, [n_paths], query.horizon,
                                   np.random.default_rng(seed))
    return best.tolist() + [TARGET_VALUE] * topped[0]


def empirical_survival(maxima: Sequence[float]) -> Callable[[float], float]:
    """The empirical survival function of sorted pilot maxima."""
    if not maxima:
        raise ValueError("no pilot maxima")
    n = len(maxima)

    def survival(value: float) -> float:
        if value <= maxima[0]:
            return 1.0
        return (n - bisect.bisect_left(maxima, value)) / n

    return survival


def fit_exponential_tail(maxima: Sequence[float],
                         tail_fraction: float = 0.2) -> tuple:
    """Least-squares fit ``log S(v) ~ a - b v`` on the upper tail.

    Returns ``(a, b)``.  Only strictly-below-target maxima participate;
    points with zero empirical survival are excluded by construction
    (the fit runs over observed order statistics).
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(
            f"tail_fraction must be in (0, 1], got {tail_fraction}"
        )
    n = len(maxima)
    start = max(0, n - max(int(n * tail_fraction), 5))
    xs, ys = [], []
    for k in range(start, n):
        value = maxima[k]
        if value >= TARGET_VALUE:
            break
        survival = (n - k) / n
        xs.append(value)
        ys.append(math.log(survival))
    if len(xs) < 2 or xs[0] == xs[-1]:
        raise ValueError(
            "not enough distinct tail points to fit; increase the pilot"
        )
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    b = max(-slope, 1e-9)  # survival must decay
    a = mean_y + b * mean_x
    return a, b


def hybrid_survival(maxima: Sequence[float],
                    min_tail_points: int = 20) -> Callable[[float], float]:
    """Empirical survival with an exponential-tail extension.

    Below the resolution limit (fewer than ``min_tail_points`` pilot
    maxima above ``v``) the fitted tail takes over, so the function is
    usable all the way up to the target value even when no pilot path
    ever hit it.
    """
    n = len(maxima)
    empirical = empirical_survival(maxima)
    a, b = fit_exponential_tail(maxima)
    switch_survival = min_tail_points / n

    def survival(value: float) -> float:
        emp = empirical(value)
        if emp >= switch_survival:
            return emp
        return min(math.exp(a - b * value), max(emp, 1e-300))

    return survival


def balanced_growth_partition(query: DurabilityQuery, num_levels: int,
                              pilot_paths: int = 2000,
                              seed: Optional[int] = None,
                              pool=None,
                              grid=None) -> LevelPartition:
    """Build an (approximately) balanced-growth plan with ``m`` levels.

    This is the automated stand-in for the paper's manually tuned
    MLSS-BAL plans; the pilot cost is *not* charged to the estimate, as
    in the paper's Figure 13 protocol ("we do not charge the cost of
    manual tuning to running MLSS-BAL").

    ``grid`` makes the plan *curve-aware*: a strictly ascending tuple
    of normalized threshold levels (each in ``(0, 1)``) that must
    appear verbatim in the plan — every grid level is a curve read-out
    boundary — with the remaining ``num_levels - 1 - len(grid)``
    refinement boundaries distributed into the survival gaps *between*
    grid levels (see
    :func:`~repro.core.variance.curve_refined_boundaries`), so one
    plan serves a whole ``durability_curve`` grid instead of
    stretching a single-threshold ladder across it.

    ``pool`` shards the pilot's chunks over a
    :class:`~repro.core.pool.WorkerPool`; the chunk decomposition is
    fixed, so the pooled pilot builds exactly the plan the sequential
    pilot would (see :func:`pilot_max_values`).

    Raises :class:`~repro.core.forest.LevelPlanError` when the pilot
    cannot support a plan: too few distinct tail maxima to fit, or a
    query the pilot finds almost surely satisfied.
    """
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    grid = tuple(float(g) for g in grid) if grid is not None else None
    if num_levels == 1 and not grid:
        return LevelPartition()
    maxima = pilot_max_values(query, n_paths=pilot_paths, seed=seed,
                              pool=pool)
    try:
        survival = hybrid_survival(maxima)
    except ValueError as exc:
        raise LevelPlanError(str(exc)) from None
    tau = survival(TARGET_VALUE)
    if tau >= 1.0:
        raise LevelPlanError(
            "pilot suggests the query is almost surely satisfied; "
            "no useful level plan exists"
        )
    if grid:
        boundaries = curve_refined_boundaries(survival, grid, num_levels)
    else:
        boundaries = balanced_boundaries_from_survival(survival,
                                                       num_levels)
    initial_value = query.initial_value()
    return LevelPartition(b for b in boundaries if b > initial_value)
