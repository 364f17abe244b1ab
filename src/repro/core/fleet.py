"""Fused fleet screening: many entities, one simulation frontier.

The paper's fleet scenarios — "which of these servers will breach the
SLA backlog within the horizon?", "which of these stocks stays above
its strike?" — ask the *same shape* of query of hundreds of entities
whose processes differ only in parameters.  The engine's cohort pass
(one shared simulation per process object) cannot help there: each
entity is its own process, so each pays the per-call dispatch overhead
of its own simulation loop at every time step.

This module screens whole fleets through **one** frontier built on
:class:`repro.processes.base.FusedBatch`, in three flavours:

* :func:`screen_fleet_curves` — one threshold *grid* per member, plain
  SRS: every live path of every entity advances in a single
  ``step_batch`` per time step, per-entity parameters broadcast by
  owner and per-entity top thresholds compared row-wise; rows track
  their running-maximum score only when some grid has a level below
  its top, so a single fused pass answers every member's whole
  durability curve (a row retires once it clears its owner's top
  threshold).
* :func:`screen_fleet` — one threshold per member: the fused screen
  *is* the curve pass on one-threshold grids (it draws the same random
  numbers in the same order as any grids with those tops).
* :func:`screen_fleet_mlss` — rare-event fleets: all members' splitting
  trees grow inside **one fused splitting forest** (a
  :class:`~repro.core.forest.VectorizedForestRunner` whose process is
  the fused batch and whose value function normalizes each row by its
  owner's threshold) under a shared normalized level partition.  Root
  allocation is **variance-directed** by default: each round's cohort
  gives every unmet member a root count sized from its *measured*
  bootstrap variance via
  :meth:`~repro.core.quality.QualityTarget.projected_roots`, so
  converged members stop consuming roots while hard members keep
  splitting (``adaptive=False`` restores the uniform
  everyone-rides-until-all-met allocation).  Per-member counters fold
  into per-member g-MLSS estimates exactly as separate forests would.

Per-entity estimates are plain SRS / g-MLSS — each row (or root tree)
is an ordinary independent sample of its owner, so probabilities,
variances and step counts per entity are identical in law to running
the entities separately; only the interleaving of random draws differs.

Cost accounting: one fused ``step_batch`` over ``n`` rows counts ``n``
invocations of ``g``, attributed to each row's owner — a fused pass
reports the same per-entity ``steps`` a separate run would, it just
buys them with ~1/k of the dispatch overhead.

Adaptive cohort sizing
----------------------

With a quality target, fixed per-round cohorts make hard members crawl
to their target in many rounds while easy members stop immediately.
When ``adaptive=True`` (the default) each member's next round is sized
toward *its* remaining need: the target's
:meth:`~repro.core.quality.QualityTarget.projected_roots` plug-in when
available, doubling otherwise, always within
``[batch_roots, max_round_roots]``.  Projections are advisory — the
stopping decision is always ``is_met`` on real counters.

Parallelism
-----------

All three passes accept a :class:`~repro.core.pool.WorkerPool`: the
fleet shards into fixed member slices of ``members_per_task``, each
slice screened to completion through its own fused frontier on a
worker, with slice seeds derived from the slice index.  Fixed slicing
makes pooled fleet results **byte-identical for any worker count**;
pooled and unsharded runs differ only in stream layout (they agree in
distribution, like any two seedings).
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import FusedBatch, batch_z_values
from .estimates import DurabilityCurve, DurabilityEstimate
from .levels import LevelPartition, normalize_ratios
from .pool import DEFAULT_MEMBERS_PER_TASK, FleetWork, derive_task_seed
from .quality import QualityTarget
from .records import ForestAggregate, fold_records_by_owner
from .srs import srs_variance
from .value_functions import TARGET_VALUE, batch_values

DEFAULT_MAX_ROUND_ROOTS = 8192


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _require_stopping_rule(quality, max_steps, max_roots) -> None:
    if quality is None and max_steps is None and max_roots is None:
        raise ValueError(
            "provide a quality target, max_steps or max_roots; "
            "otherwise the screening pass would never stop"
        )


def _round_counts(done, round_roots, n_paths, steps, horizon,
                  max_steps, max_roots):
    """Per-member cohort sizes for the next round under the budgets."""
    counts = np.where(done, 0, round_roots)
    if max_roots is not None:
        counts = np.minimum(counts, np.maximum(max_roots - n_paths, 0))
    if max_steps is not None:
        exhausted = steps >= max_steps
        counts = np.where(exhausted, 0, np.minimum(
            counts, (max_steps - steps) // horizon + 1))
    return counts


def _grow_round(adaptive: bool, round_roots, member: int, projected,
                n_observed: int, batch_roots: int,
                max_round_roots: int) -> None:
    """Resize a member's next round toward its remaining need.

    ``n_observed`` is the member's roots (or paths) so far; with a
    projection the next round covers the projected shortfall, floored
    at ``batch_roots`` and capped at ``max_round_roots``; without one
    the round doubles.
    """
    if not adaptive:
        return
    if projected is not None:
        remaining = projected - n_observed
        round_roots[member] = min(max(remaining, batch_roots),
                                  max_round_roots)
    else:
        round_roots[member] = min(round_roots[member] * 2,
                                  max_round_roots)


def _slice_tasks(n_members: int, members_per_task: int,
                 seed: Optional[int]) -> list:
    """Fixed member slices with slice-index-derived seeds.

    The decomposition depends only on ``members_per_task`` — never on
    the worker count — which is what makes pooled fleet results
    invariant under ``n_workers``.
    """
    if members_per_task < 1:
        raise ValueError(
            f"members_per_task must be >= 1, got {members_per_task}")
    return [(lo, min(lo + members_per_task, n_members),
             derive_task_seed(seed, index, salt="fleet"))
            for index, lo in enumerate(
                range(0, n_members, members_per_task))]


def _run_fleet_pooled(pool, work: FleetWork, tasks: list):
    """Register, stream and release one fleet work on the pool.

    A generator yielding results in task order: every slice is
    submitted up front and each result is yielded as soon as it (and
    its predecessors) finish, so callers fold early slices into their
    per-member arrays while straggler slices are still running instead
    of waiting at a full-fleet barrier.  Callers must ``close()`` the
    generator (or exhaust it) so the work is unregistered promptly.
    """
    handle = pool.register(work)
    try:
        stream = pool.stream(handle)
        try:
            seqs = [stream.submit(payload) for payload in tasks]
            for seq in seqs:
                yield stream.collect(seq)
        finally:
            stream.close()
    finally:
        pool.unregister(handle)


# ----------------------------------------------------------------------
# SRS curve screening (one threshold grid per member)
# ----------------------------------------------------------------------

def validate_grids(grids, k: int) -> list:
    """Per-member raw threshold grids: non-empty, positive, ascending.

    Shared input validation for every grid-shaped entry point
    (:func:`screen_fleet_curves` and the engine's
    ``durability_curves``); returns the grids as tuples of floats.
    """
    if len(grids) != k:
        raise ValueError(f"{len(grids)} threshold grids for {k} members")
    validated = []
    for member, grid in enumerate(grids):
        values = [float(b) for b in grid]
        if not values:
            raise ValueError(f"member {member} has an empty grid")
        if values[0] <= 0.0:
            raise ValueError(
                f"member {member} thresholds must be positive, got "
                f"{values[0]}")
        for lo, hi in zip(values, values[1:]):
            if lo >= hi:
                raise ValueError(
                    f"member {member} thresholds must be strictly "
                    f"ascending, got {lo} before {hi}")
        validated.append(tuple(values))
    return validated


def _fold_maxima(counts, owners, best, grids, k: int) -> None:
    """Credit surviving rows' running maxima against their owners' grids."""
    for member in range(k):
        rows = owners == member
        if not rows.any():
            continue
        member_best = best[rows]
        grid = np.asarray(grids[member])
        counts[member] += (member_best[:, None]
                           >= grid[None, :]).sum(axis=0)


def _curve_members(fused: FusedBatch, z, grids, horizon: int,
                   quality, max_steps, max_roots, batch_roots: int,
                   adaptive: bool, max_round_roots: int, rng):
    """One fused pass answering every member's whole threshold grid.

    A row stays live until it clears its owner's **top** threshold (or
    the horizon).  A live row reaches the top at step ``t`` exactly
    when its score at ``t`` does (otherwise it would have retired
    already), so retirement reads the current scores.  Only when some
    grid has a level below its top do rows also carry a *running
    maximum*, whose final value credits a survivor's lower levels.
    Returns ``(level_counts, n_paths, steps, rounds)``.
    """
    k = fused.n_members
    tops = np.asarray([grid[-1] for grid in grids], dtype=np.float64)
    has_lower = any(len(grid) > 1 for grid in grids)
    counts = [np.zeros(len(grid), dtype=np.int64) for grid in grids]
    n_paths = np.zeros(k, dtype=np.int64)
    steps = np.zeros(k, dtype=np.int64)
    done = np.zeros(k, dtype=bool)
    round_roots = np.full(k, batch_roots, dtype=np.int64)
    rounds = 0
    lead = fused.members[0]

    while not done.all():
        cohort = _round_counts(done, round_roots, n_paths, steps,
                               horizon, max_steps, max_roots)
        done |= cohort == 0
        if done.all():
            break
        rounds += 1

        # Owners, top thresholds and member parameters stay row-aligned
        # *outside* the state array: parameters are gathered once per
        # round, the hot loop steps a contiguous core buffer in place,
        # and per-member step accounting is a k-length add of live
        # counts.  Retiring rows filter their side arrays together.
        owners = np.repeat(np.arange(k), cohort)
        states = fused.initial_core_rows(owners)
        row_params = fused.row_params(owners)
        row_tops = tops[owners]
        best = np.zeros(len(owners), dtype=np.float64) if has_lower \
            else None
        live = cohort.copy()
        for t in range(1, horizon + 1):
            if not len(states):
                break
            states = lead.fused_step_batch(row_params, states, t, rng,
                                           out=states)
            steps += live
            scores = batch_z_values(z, states)
            if best is not None:
                np.maximum(best, scores, out=best)
            reached = scores >= row_tops
            n_reached = int(np.count_nonzero(reached))
            if n_reached:
                live -= np.bincount(owners[reached], minlength=k)
                keep = ~reached
                states = states[keep]
                owners = owners[keep]
                row_tops = row_tops[keep]
                if best is not None:
                    best = best[keep]
                row_params = {name: values[keep]
                              for name, values in row_params.items()}
        # Rows retire only at their owner's top threshold, so the
        # retired rows hit every level of their owner's grid at once.
        topped = cohort - live
        for member in np.nonzero(topped)[0]:
            counts[member] += topped[member]
        if best is not None:
            _fold_maxima(counts, owners, best, grids, k)
        n_paths += cohort

        if quality is not None:
            alive = ~done & (n_paths > 0)
            for member in np.nonzero(alive)[0]:
                n = int(n_paths[member])
                met = True
                worst_projection = None
                for level_hits in counts[member]:
                    probability = level_hits / n
                    if not quality.is_met(
                            probability, srs_variance(probability, n),
                            int(level_hits), n):
                        met = False
                        projected = quality.projected_roots(
                            probability, int(level_hits), n)
                        if projected is not None:
                            worst_projection = max(
                                worst_projection or 0, projected)
                if met:
                    done[member] = True
                else:
                    _grow_round(adaptive, round_roots, member,
                                worst_projection, int(n_paths[member]),
                                batch_roots, max_round_roots)
    return counts, n_paths, steps, rounds


def screen_fleet_curves(fused: FusedBatch, z, grids, horizon: int,
                        quality: Optional[QualityTarget] = None,
                        max_steps: Optional[int] = None,
                        max_roots: Optional[int] = None,
                        batch_roots: int = 500,
                        seed: Optional[int] = None,
                        adaptive: bool = True,
                        max_round_roots: int = DEFAULT_MAX_ROUND_ROOTS,
                        pool=None,
                        members_per_task: int = DEFAULT_MEMBERS_PER_TASK
                        ) -> list:
    """Answer every member's whole durability curve from one fused pass.

    Each member's answer is a
    :class:`~repro.core.estimates.DurabilityCurve` whose estimates
    share that member's sample paths — individually unbiased,
    positively correlated across thresholds, exactly like
    :meth:`~repro.core.srs.SRSSampler.run_curve` — while the whole
    fleet shares one frontier.

    Parameters
    ----------
    fused:
        The stacked fleet (one member per entity).
    z:
        The shared state evaluation; scored row-wise via the batch-``z``
        registry, so fused rows evaluate in one call.
    grids:
        One ascending, positive raw-threshold grid per member (grids
        may differ in values *and* length).
    horizon:
        Shared query horizon ``s``.
    quality / max_steps / max_roots:
        The stopping rule, applied **per member** exactly as a separate
        :class:`~repro.core.srs.SRSSampler` run would apply it (budgets
        are per-entity, not fleet-wide); at least one must be given.
        A quality target must hold at **every** grid level of a member
        before that member stops early.  As in the SRS sampler, budgets
        are enforced at cohort granularity — every started path runs to
        its top-level hit or the horizon — so ``max_steps`` can
        overshoot by at most one cohort per member.
    batch_roots:
        Baseline paths *per member* between stopping-rule checks (and
        the floor of adaptive rounds).
    seed:
        Seed of the NumPy generator driving the fused frontier (pooled
        runs derive one per member slice).
    adaptive / max_round_roots:
        Grow each unmet member's next round toward its quality target
        (see the module docstring) instead of crawling in fixed
        batches; ``max_round_roots`` caps a single round.
    pool / members_per_task:
        Shard the fleet into fixed member slices over a
        :class:`~repro.core.pool.WorkerPool`; results are invariant
        under the pool's worker count.
    """
    _require_stopping_rule(quality, max_steps, max_roots)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    k = fused.n_members
    grids = validate_grids(grids, k)
    started = time.perf_counter()

    if pool is not None and k > 1:
        tasks = _slice_tasks(k, members_per_task, seed)
        work = FleetWork(
            mode="curves", processes=fused.members, z=z, horizon=horizon,
            grids=tuple(grids), quality=quality, max_steps=max_steps,
            max_roots=max_roots, batch_roots=batch_roots,
            adaptive=adaptive, max_round_roots=max_round_roots)
        counts = [None] * k
        n_paths = np.zeros(k, dtype=np.int64)
        steps = np.zeros(k, dtype=np.int64)
        rounds = 0
        results = _run_fleet_pooled(pool, work, tasks)
        try:
            for (lo, hi, _), result in zip(tasks, results):
                slice_counts, slice_n, slice_steps, slice_rounds = result
                for offset, member_counts in enumerate(slice_counts):
                    counts[lo + offset] = np.asarray(member_counts,
                                                     dtype=np.int64)
                n_paths[lo:hi] = slice_n
                steps[lo:hi] = slice_steps
                rounds = max(rounds, slice_rounds)
        finally:
            results.close()
    else:
        counts, n_paths, steps, rounds = _curve_members(
            fused, z, grids, horizon, quality, max_steps, max_roots,
            batch_roots, adaptive, max_round_roots,
            np.random.default_rng(seed))

    elapsed = time.perf_counter() - started
    curves = []
    for member in range(k):
        grid = grids[member]
        top = grid[-1]
        paths = int(n_paths[member])
        member_steps = int(steps[member])
        estimates = []
        for level_hits in counts[member]:
            probability = level_hits / paths if paths else 0.0
            estimates.append(DurabilityEstimate(
                probability=probability,
                variance=srs_variance(probability, paths),
                n_roots=paths, hits=int(level_hits), steps=member_steps,
                method="srs", elapsed_seconds=elapsed,
                details={"shared_pass": True, "fused": True},
            ))
        curves.append(DurabilityCurve(
            thresholds=grid,
            levels=tuple(b / top for b in grid),
            estimates=tuple(estimates), method="srs", n_roots=paths,
            steps=member_steps, elapsed_seconds=elapsed,
            details={"fused": True, "fleet_size": k, "rounds": rounds},
        ))
    return curves


def screen_fleet(fused: FusedBatch, z, betas: Sequence[float], horizon: int,
                 quality: Optional[QualityTarget] = None,
                 max_steps: Optional[int] = None,
                 max_roots: Optional[int] = None,
                 batch_roots: int = 500,
                 seed: Optional[int] = None,
                 adaptive: bool = True,
                 max_round_roots: int = DEFAULT_MAX_ROUND_ROOTS,
                 pool=None,
                 members_per_task: int = DEFAULT_MEMBERS_PER_TASK) -> list:
    """SRS-answer ``Pr[z >= beta_i within horizon]`` for every member.

    The fused screen is :func:`screen_fleet_curves` on the one-threshold
    grids ``(beta_i,)``: ``betas`` holds one positive raw threshold per
    member, and every other parameter is that function's.  Returns one
    :class:`DurabilityEstimate` per member, in member order, each
    tagged with ``details["fused"]``, the fleet size and the round
    count.
    """
    k = fused.n_members
    if len(betas) != k:
        raise ValueError(f"{len(betas)} thresholds for {k} fleet members")
    curves = screen_fleet_curves(
        fused, z, [(beta,) for beta in betas], horizon, quality=quality,
        max_steps=max_steps, max_roots=max_roots, batch_roots=batch_roots,
        seed=seed, adaptive=adaptive, max_round_roots=max_round_roots,
        pool=pool, members_per_task=members_per_task)
    return [dataclasses.replace(curve.estimates[0], details=curve.details)
            for curve in curves]


# ----------------------------------------------------------------------
# Fused MLSS screening (rare-event fleets, one splitting forest)
# ----------------------------------------------------------------------

class FleetThresholdValue:
    """Per-owner normalized threshold value over fused state rows.

    The fused analogue of :class:`~repro.core.value_functions.
    ThresholdValueFunction`: row ``i`` scores
    ``clip(z(core_i) / beta_owner(i), 0, 1)``, so one fused splitting
    forest runs every member against *its own* threshold under a shared
    normalized level partition.
    """

    def __init__(self, z, betas):
        self.z = z
        self.betas = np.asarray(betas, dtype=np.float64)

    def batch(self, states, t) -> np.ndarray:
        states = np.asarray(states)
        owners = states[:, -1].astype(np.intp)
        raw = batch_z_values(self.z, states)
        return np.clip(raw / self.betas[owners], 0.0, TARGET_VALUE)

    def __call__(self, state, t) -> float:
        row = np.asarray(state, dtype=np.float64).reshape(1, -1)
        return float(self.batch(row, t)[0])


def cluster_members_by_initial(scores, tolerance: float = 0.1) -> list:
    """Cluster fleet members by normalized initial score.

    One shared partition pruned against the *worst* member's normalized
    initial score strips the low boundaries from every other member —
    members far below the worst lose their whole lower ladder.
    Clustering fixes that: members whose normalized initial scores lie
    within ``tolerance`` of a cluster's lowest score share a cluster
    (greedy sweep over the sorted scores), and each cluster gets its
    own partition pruned only against *its* worst member.

    Returns a list of member-index lists — each ascending, clusters
    ordered by their first member — covering every member exactly once.
    The grouping depends only on ``scores`` and ``tolerance``, so it is
    deterministic across runs and worker counts.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return []
    order = np.argsort(scores, kind="stable")
    clusters = []
    current = [int(order[0])]
    base = float(scores[order[0]])
    for raw in order[1:]:
        index = int(raw)
        if float(scores[index]) - base > tolerance:
            clusters.append(sorted(current))
            current = [index]
            base = float(scores[index])
        else:
            current.append(index)
    clusters.append(sorted(current))
    clusters.sort(key=lambda members: members[0])
    return clusters


class _FleetQuery:
    """Duck-typed query over a fused batch for the forest runner.

    ``initial_value`` is the *maximum* normalized initial score over
    members: every member's boundaries must exceed its own start, and
    the shared partition must therefore clear the worst one.
    """

    def __init__(self, fused: FusedBatch, value_function, horizon: int):
        self.process = fused
        self.value_function = value_function
        self.horizon = horizon

    def initial_value(self) -> float:
        rows = self.process.initial_states(self.process.n_members)
        return float(batch_values(self.value_function, rows, 0).max())


#: First per-member root count at which the MLSS stopping rule (and
#: its bootstrap) is evaluated; later checks grow geometrically.
_FIRST_CHECK_ROOTS = 200


def _mlss_members(fused: FusedBatch, z, betas, partition: LevelPartition,
                  ratio, horizon: int, quality, max_steps, max_roots,
                  batch_roots: int, bootstrap_rounds: int,
                  seed: Optional[int], adaptive: bool = True,
                  max_round_roots: int = DEFAULT_MAX_ROUND_ROOTS) -> list:
    """Grow one fused splitting forest; per-member g-MLSS folds.

    With ``adaptive=True`` each round's cohort is composed per member:
    an unmet member contributes a root run sized by
    :meth:`~repro.core.quality.QualityTarget.projected_roots` fed its
    *measured* bootstrap variance (doubling when no projection is
    available), clamped to ``[batch_roots, max_round_roots]``; met
    members (and members out of budget) contribute nothing.  The
    cohort's state rows come from
    :meth:`~repro.processes.base.FusedBatch.initial_states_for`, laid
    out as contiguous owner runs, and fold back per owner via
    :func:`~repro.core.records.fold_records_by_owner` — so every
    member's aggregate is exactly what its own forest would have
    produced, only the interleaving of draws differs.

    With ``adaptive=False`` root trees are allocated *uniformly*
    (``batch_roots`` per member per round) and every member keeps
    riding the shared frontier until the whole slice stops — the
    pre-variance-directed behaviour, kept as the benchmark baseline.

    Returns one ``(probability, variance, n_roots, hits, steps)``
    tuple per member.
    """
    from .bootstrap import bootstrap_variance
    from .forest import VectorizedForestRunner
    from .gmlss import gmlss_point_estimate

    k = fused.n_members
    ratios = normalize_ratios(ratio, partition.num_levels)
    value_fn = FleetThresholdValue(z, betas)
    query = _FleetQuery(fused, value_fn, horizon)
    runner = VectorizedForestRunner(query, partition, ratios,
                                    np.random.default_rng(seed))
    aggregates = [ForestAggregate(partition.num_levels) for _ in range(k)]
    boot_base = random.Random(seed).randrange(2 ** 31)

    if adaptive:
        checked = _mlss_grow_adaptive(fused, runner, aggregates, quality,
                                      max_steps, max_roots, batch_roots,
                                      max_round_roots, bootstrap_rounds,
                                      boot_base, ratios)
    else:
        checked = _mlss_grow_uniform(runner, aggregates, quality,
                                     max_steps, max_roots, batch_roots,
                                     bootstrap_rounds, boot_base, ratios)

    rows = []
    for member, aggregate in enumerate(aggregates):
        probability = gmlss_point_estimate(aggregate, ratios)
        # Report the bootstrap variance from the member's *last stopping
        # check* when the aggregate has not grown since: a member that
        # stopped because its target was met must report the draw that
        # justified stopping, or borderline members flip to "unmet" on a
        # fresh resample of the identical aggregate.
        stored = checked.get(member)
        if aggregate.n_roots <= 1:
            variance = 0.0
        elif stored is not None and stored[0] == aggregate.n_roots:
            variance = stored[1]
        else:
            variance = bootstrap_variance(
                aggregate, ratios, n_boot=bootstrap_rounds,
                seed=(boot_base + 7919 * member) % (2 ** 31)).variance
        rows.append((float(probability), float(variance),
                     aggregate.n_roots, aggregate.hits, aggregate.steps))
    return rows


def _mlss_grow_uniform(runner, aggregates, quality, max_steps, max_roots,
                       batch_roots: int, bootstrap_rounds: int,
                       boot_base: int, ratios) -> dict:
    """Uniform allocation: ``batch_roots`` per member until all stop.

    Returns each member's last stopping-check bootstrap, as
    ``{member: (n_roots_at_check, variance)}`` — the caller reports the
    checked variance when the aggregate has not grown since.
    """
    from .bootstrap import bootstrap_variance
    from .gmlss import gmlss_point_estimate

    checked = {}
    next_check = _FIRST_CHECK_ROOTS
    evaluations = 0
    while True:
        per_member = batch_roots
        if max_roots is not None:
            per_member = min(per_member,
                             max_roots - aggregates[0].n_roots)
        if max_steps is not None and all(
                aggregate.steps >= max_steps for aggregate in aggregates):
            break
        if per_member <= 0:
            break
        # FusedBatch.initial_states spreads a cohort of per_member * k
        # roots as contiguous equal runs per member, so root j belongs
        # to member j // per_member.
        records = runner.run_cohort(per_member * len(aggregates))
        for member, aggregate in enumerate(aggregates):
            aggregate.extend(
                records[member * per_member:(member + 1) * per_member])
        if quality is not None and aggregates[0].n_roots >= next_check:
            evaluations += 1

            def _is_met(member, aggregate):
                variance = bootstrap_variance(
                    aggregate, ratios, n_boot=bootstrap_rounds,
                    seed=(boot_base + 7919 * member
                          + evaluations) % (2 ** 31)).variance
                checked[member] = (aggregate.n_roots, variance)
                return quality.is_met(
                    gmlss_point_estimate(aggregate, ratios), variance,
                    aggregate.hits, aggregate.n_roots)

            if all(_is_met(member, aggregate)
                   for member, aggregate in enumerate(aggregates)):
                break
            next_check = max(next_check + 1, int(next_check * 1.5))
    return checked


def _mlss_grow_adaptive(fused: FusedBatch, runner, aggregates, quality,
                        max_steps, max_roots, batch_roots: int,
                        max_round_roots: int, bootstrap_rounds: int,
                        boot_base: int, ratios) -> dict:
    """Variance-directed allocation: per-member rounds, checks, growth.

    Returns each member's last stopping-check bootstrap, as
    ``{member: (n_roots_at_check, variance)}`` — the caller reports the
    checked variance when the aggregate has not grown since (a met
    member's aggregate never grows after the check that met it).
    """
    from .bootstrap import bootstrap_variance
    from .gmlss import gmlss_point_estimate

    checked = {}
    k = len(aggregates)
    done = np.zeros(k, dtype=bool)
    round_roots = np.full(k, batch_roots, dtype=np.int64)
    next_check = np.full(k, _FIRST_CHECK_ROOTS, dtype=np.int64)
    evaluations = np.zeros(k, dtype=np.int64)

    while not done.all():
        counts = np.where(done, 0, round_roots)
        for member in range(k):
            if counts[member] == 0:
                continue
            if max_roots is not None:
                counts[member] = min(
                    counts[member],
                    max(max_roots - aggregates[member].n_roots, 0))
            if max_steps is not None \
                    and aggregates[member].steps >= max_steps:
                counts[member] = 0
        done |= counts == 0
        if done.all():
            break
        owners = np.repeat(np.arange(k), counts)
        records = runner.run_cohort(
            int(counts.sum()),
            initial_states=fused.initial_states_for(counts))
        fold_records_by_owner(records, owners, aggregates)
        if quality is None:
            continue
        for member in range(k):
            if done[member]:
                continue
            aggregate = aggregates[member]
            if aggregate.n_roots < next_check[member]:
                continue
            evaluations[member] += 1
            probability = gmlss_point_estimate(aggregate, ratios)
            variance = bootstrap_variance(
                aggregate, ratios, n_boot=bootstrap_rounds,
                seed=(boot_base + 7919 * member
                      + int(evaluations[member])) % (2 ** 31)).variance
            checked[member] = (aggregate.n_roots, variance)
            if quality.is_met(probability, variance, aggregate.hits,
                              aggregate.n_roots):
                done[member] = True
                continue
            next_check[member] = max(next_check[member] + 1,
                                     int(next_check[member] * 1.5))
            _grow_round(True, round_roots, member,
                        quality.projected_roots(
                            probability, aggregate.hits,
                            aggregate.n_roots, variance=variance),
                        aggregate.n_roots, batch_roots, max_round_roots)
    return checked


def screen_fleet_mlss(fused: FusedBatch, z, betas: Sequence[float],
                      partition: LevelPartition, horizon: int, ratio=3,
                      quality: Optional[QualityTarget] = None,
                      max_steps: Optional[int] = None,
                      max_roots: Optional[int] = None,
                      batch_roots: int = 100,
                      bootstrap_rounds: int = 200,
                      seed: Optional[int] = None,
                      adaptive: bool = True,
                      max_round_roots: int = DEFAULT_MAX_ROUND_ROOTS,
                      pool=None,
                      members_per_task: int = DEFAULT_MEMBERS_PER_TASK
                      ) -> list:
    """g-MLSS-answer a rare-event fleet through one fused splitting forest.

    ``partition`` is a *normalized* level plan shared by every member
    (each member's raw boundaries are ``beta_member * level``); its
    boundaries must exceed every member's normalized initial score —
    prune with ``partition.pruned_above(...)`` against the worst
    member, as the engine does (or cluster members by normalized
    initial score with :func:`cluster_members_by_initial` and screen
    each cluster under its own pruned plan).  ``max_roots`` counts
    root trees *per member*.

    ``adaptive`` (default) makes root allocation variance-directed:
    each unmet member's next round is sized by its quality target's
    :meth:`~repro.core.quality.QualityTarget.projected_roots` fed the
    member's measured bootstrap variance, within
    ``[batch_roots, max_round_roots]``, and members that meet their
    target stop consuming roots.  ``adaptive=False`` restores uniform
    allocation (``batch_roots`` per member per round, everyone riding
    until the whole fleet stops — the hardest member's demand bounds
    the run).  Either way estimates are per-member g-MLSS with
    bootstrap variances, exchangeable with per-entity forests.

    With a pool the fleet shards into fixed member slices, each slice
    growing its own fused forest on a worker with adaptive allocation
    applied *within* the slice (results invariant under the worker
    count).
    """
    _require_stopping_rule(quality, max_steps, max_roots)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    k = fused.n_members
    betas = tuple(float(b) for b in betas)
    if len(betas) != k:
        raise ValueError(f"{len(betas)} thresholds for {k} fleet members")
    # Fail fast on an unusable plan before any worker sees it.
    from .forest import validate_plan
    validate_plan(_FleetQuery(fused, FleetThresholdValue(z, betas),
                              horizon), partition)
    started = time.perf_counter()

    if pool is not None and k > 1:
        tasks = _slice_tasks(k, members_per_task, seed)
        work = FleetWork(
            mode="mlss", processes=fused.members, z=z, horizon=horizon,
            betas=betas, partition=partition, ratio=ratio,
            quality=quality, max_steps=max_steps, max_roots=max_roots,
            batch_roots=batch_roots, bootstrap_rounds=bootstrap_rounds,
            adaptive=adaptive, max_round_roots=max_round_roots)
        rows = [None] * k
        results = _run_fleet_pooled(pool, work, tasks)
        try:
            for (lo, hi, _), result in zip(tasks, results):
                rows[lo:hi] = result
        finally:
            results.close()
    else:
        rows = _mlss_members(
            fused, z, betas, partition, ratio, horizon, quality,
            max_steps, max_roots, batch_roots, bootstrap_rounds, seed,
            adaptive=adaptive, max_round_roots=max_round_roots)

    elapsed = time.perf_counter() - started
    estimates = []
    for probability, variance, n_roots, hits, steps in rows:
        estimates.append(DurabilityEstimate(
            probability=probability, variance=variance,
            n_roots=n_roots, hits=hits, steps=steps, method="gmlss",
            elapsed_seconds=elapsed,
            details={"fused": True, "fleet_size": k,
                     "partition": partition},
        ))
    return estimates
