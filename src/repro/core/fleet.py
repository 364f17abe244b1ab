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
  SRS: the fleet's rows (:class:`~repro.core.srs.FleetRows`) run the
  one SRS kernel of :mod:`repro.core.srs`, every live path of every
  entity advancing in a single fused step per time step (a fused block
  of time steps per call once few rows are live), so one pass answers
  every member's whole durability curve.
* :func:`screen_fleet` — one threshold per member: the fused screen
  *is* the curve pass on one-threshold grids (it draws the same random
  numbers in the same order as any grids with those tops).
* :func:`screen_fleet_mlss` — rare-event fleets: all members' splitting
  trees grow inside **one fused splitting forest** (a
  :class:`~repro.core.forest.VectorizedForestRunner` whose process is
  the fused batch and whose value function normalizes each row by its
  owner's threshold) under a shared normalized level partition.  The
  forest grows in the one MLSS round loop,
  :meth:`~repro.core.gmlss.GMLSSSampler._pass`, which keeps one
  aggregate per member (a single query is a fleet of one), checks each
  member on the sampler's schedule with the sampler's bootstrap seeds,
  and reads the same options as a single g-MLSS answer.  Root
  allocation is **variance-directed** by default: each round's cohort
  gives every unmet member a root count sized from its *measured*
  bootstrap variance via
  :meth:`~repro.core.quality.QualityTarget.projected_roots`, so
  converged members stop consuming roots while hard members keep
  splitting (``adaptive=False`` keeps the uniform
  everyone-rides-until-all-met allocation, the benchmark baseline).
  Per-member counters fold into per-member g-MLSS estimates exactly as
  separate forests would; a one-member screen with ``adaptive=False``
  equals :meth:`~repro.core.gmlss.GMLSSSampler.run` byte for byte.

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
available, doubling otherwise, always within ``[batch_roots,
DEFAULT_MAX_ROUND_ROOTS]`` (:func:`~repro.core.srs.grow_round`).
Projections are advisory — the stopping decision is always ``is_met``
on real counters.

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
import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import FusedBatch, batch_z_values
from .estimates import DurabilityEstimate
from .levels import LevelPartition
from .pool import DEFAULT_MEMBERS_PER_TASK, FleetWork, derive_task_seed
from .quality import QualityTarget
from .srs import FleetRows, build_srs_curve, run_rows
from .value_functions import TARGET_VALUE, batch_values, threshold_grid


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _require_stopping_rule(quality, max_steps, max_roots) -> None:
    if quality is None and max_steps is None and max_roots is None:
        raise ValueError(
            "provide a quality target, max_steps or max_roots; "
            "otherwise the screening pass would never stop"
        )


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
    """Per-member raw threshold grids: non-empty, finite, positive,
    strictly ascending (the :func:`~repro.core.value_functions.
    threshold_grid` rule, without its sorting); returns the grids as
    tuples of floats."""
    if len(grids) != k:
        raise ValueError(f"{len(grids)} threshold grids for {k} members")
    validated = []
    for member, grid in enumerate(grids):
        values = tuple(float(b) for b in grid)
        try:
            betas, _ = threshold_grid(values)
        except ValueError as exc:
            raise ValueError(f"member {member}: {exc}") from None
        if betas != values:
            raise ValueError(
                f"member {member} thresholds must be strictly "
                f"ascending, got {list(values)}")
        validated.append(values)
    return validated


def screen_fleet_curves(fused: FusedBatch, z, grids, horizon: int,
                        quality: Optional[QualityTarget] = None,
                        max_steps: Optional[int] = None,
                        max_roots: Optional[int] = None,
                        batch_roots: int = 500,
                        seed: Optional[int] = None,
                        adaptive: bool = True,
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
    adaptive:
        Grow each unmet member's next round toward its quality target
        (see the module docstring) instead of crawling in fixed
        batches.
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
            adaptive=adaptive)
        counts, n_paths, steps = [None] * k, [0] * k, [0] * k
        rounds = 0
        results = _run_fleet_pooled(pool, work, tasks)
        try:
            for (lo, hi, _), result in zip(tasks, results):
                (counts[lo:hi], n_paths[lo:hi], steps[lo:hi],
                 slice_rounds) = result
                rounds = max(rounds, slice_rounds)
        finally:
            results.close()
    else:
        counts, n_paths, steps, rounds = run_rows(
            FleetRows(fused, z, grids), horizon, np.random.default_rng(seed),
            quality, max_steps, max_roots, batch_roots, adaptive)

    elapsed = time.perf_counter() - started
    curves = []
    for member, grid in enumerate(grids):
        curve = build_srs_curve(
            grid, tuple(b / grid[-1] for b in grid), counts[member],
            n_paths[member], steps[member], elapsed)
        for estimate in curve.estimates:
            estimate.details["fused"] = True
        curve.details.update(fused=True, fleet_size=k, rounds=rounds)
        curves.append(curve)
    return curves


def screen_fleet(fused: FusedBatch, z, betas: Sequence[float], horizon: int,
                 quality: Optional[QualityTarget] = None,
                 max_steps: Optional[int] = None,
                 max_roots: Optional[int] = None,
                 batch_roots: int = 500,
                 seed: Optional[int] = None,
                 adaptive: bool = True,
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
        seed=seed, adaptive=adaptive, pool=pool,
        members_per_task=members_per_task)
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


def _mlss_rows(sampler, fused: FusedBatch, z, betas, horizon: int,
               quality, max_steps, max_roots, seed: Optional[int],
               adaptive: bool) -> list:
    """Grow one fused splitting forest in ``sampler``'s round loop.

    Every member is a forest of the loop (see
    :meth:`~repro.core.gmlss.GMLSSSampler._pass`), gated on the top
    level, so each member's counters fold into its own g-MLSS estimate
    exactly as its own forest's would.  Returns one ``(probability,
    variance, n_roots, hits, steps)`` tuple per member.
    """
    query = _FleetQuery(fused, FleetThresholdValue(z, betas), horizon)
    aggregates, variances, _, _ = sampler._pass(
        query, (sampler.partition.num_levels - 1,), quality, max_steps,
        max_roots, seed, None, members=fused.n_members, adaptive=adaptive)
    return [(sampler._prefixes(aggregate)[-1], float(variance[-1]),
             aggregate.n_roots, aggregate.hits, aggregate.steps)
            for aggregate, variance in zip(aggregates, variances)]


def screen_fleet_mlss(fused: FusedBatch, z, betas: Sequence[float],
                      partition: LevelPartition, horizon: int, ratio=3,
                      quality: Optional[QualityTarget] = None,
                      max_steps: Optional[int] = None,
                      max_roots: Optional[int] = None,
                      batch_roots: int = 100,
                      bootstrap_rounds: int = 200,
                      first_check_roots: int = 200,
                      check_growth: float = 1.5,
                      seed: Optional[int] = None,
                      adaptive: bool = True,
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

    The forest grows in :class:`~repro.core.gmlss.GMLSSSampler`'s round
    loop, built from ``ratio``, ``batch_roots``, ``bootstrap_rounds``,
    ``first_check_roots`` and ``check_growth``: each member is checked
    on the sampler's schedule with the sampler's bootstrap seeds, so a
    one-member screen with ``adaptive=False`` answers exactly as
    :meth:`~repro.core.gmlss.GMLSSSampler.run` on the member's query.
    ``adaptive`` (default) makes root allocation variance-directed:
    each unmet member's next round is sized by its quality target's
    :meth:`~repro.core.quality.QualityTarget.projected_roots` fed the
    member's measured bootstrap variance, within ``[batch_roots,
    DEFAULT_MAX_ROUND_ROOTS]``, and members that meet their target stop
    consuming roots.  ``adaptive=False`` keeps uniform allocation
    (every member riding until all meet the target together, each
    round running straight to the members' next check — the hardest
    member's demand bounds the run).  Either way estimates are
    per-member g-MLSS with bootstrap variances, exchangeable with
    per-entity forests.

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
    # Fail fast on an unusable plan or option before any worker sees it.
    from .forest import validate_plan
    from .gmlss import GMLSSSampler
    validate_plan(_FleetQuery(fused, FleetThresholdValue(z, betas),
                              horizon), partition)
    sampler = GMLSSSampler(partition, ratio, batch_roots=batch_roots,
                           bootstrap_rounds=bootstrap_rounds,
                           first_check_roots=first_check_roots,
                           check_growth=check_growth)
    started = time.perf_counter()

    if pool is not None and k > 1:
        tasks = _slice_tasks(k, members_per_task, seed)
        work = FleetWork(
            mode="mlss", processes=fused.members, z=z, horizon=horizon,
            betas=betas, sampler=sampler, quality=quality,
            max_steps=max_steps, max_roots=max_roots, adaptive=adaptive)
        rows = [None] * k
        results = _run_fleet_pooled(pool, work, tasks)
        try:
            for (lo, hi, _), result in zip(tasks, results):
                rows[lo:hi] = result
        finally:
            results.close()
    else:
        rows = _mlss_rows(sampler, fused, z, betas, horizon, quality,
                          max_steps, max_roots, seed, adaptive)

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
