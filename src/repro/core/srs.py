"""Simple Random Sampling — the standard Monte Carlo baseline (§2.2).

SRS simulates ``n`` independent sample paths, labels each by whether it
satisfies the query condition before the horizon, and returns the hit
fraction:

    tau_hat = sum(l(SP_i)) / n,     Var_hat = tau_hat (1 - tau_hat) / n.

A path stops as soon as it hits the target (the durability query only
asks about the *first* hitting time), so the cost of a successful path
is its hitting time, not the full horizon.

Every SRS pass steps its paths in one kernel, :func:`advance_rows`: a
query's point answer and curve (:class:`SRSSampler`, unpooled and in
each pooled ``CurveWork`` task), a fused fleet's screen and curves
(:mod:`repro.core.fleet`, unpooled and in each ``FleetWork`` slice)
and the balanced pilot (:mod:`repro.core.balanced`).  A round of rows
advances until each row reaches its owner's *top* level or the
horizon; survivors' running maxima (kept only when some grid has a
level below its top) credit the lower levels, so one pass answers a
whole grid (see :class:`repro.core.estimates.DurabilityCurve`).
:func:`run_rows` wraps the kernel in stopping-rule rounds with
per-member budgets, quality checks and round sizes.  Two row kinds feed
it:

* :class:`QueryRows` — one query's rows: its process steps them
  (through :func:`repro.processes.base.step_into`; a process without
  ``step_batch`` runs inside a ``ScalarFallback``) and its value
  function scores them against normalized levels.  They carry no side
  arrays.
* :class:`FleetRows` — a :class:`~repro.processes.base.FusedBatch`
  fleet's rows, scored by the shared raw ``z`` against each owner's raw
  grid; owners, tops and per-member parameters stay row-aligned beside
  the state array and are filtered when rows retire.

A query is a fleet of one: a one-member fused screen draws the same
random numbers in the same order as :meth:`SRSSampler.run` and returns
the same answer.  A point answer is the pass on the one-level grid
``(1.0,)``, exactly the paper's SRS.

Block stepping.  A small cohort is bound by interpreter dispatch, not
arithmetic, so when the rows have a ``block`` (the family's
``step_block`` or ``fused_step_block``; see
:mod:`repro.processes.base`) one kernel call advances the live rows
:func:`block_width` steps: ``min(BLOCK_CELLS // live, remaining)``,
taken only when it is at least ``MIN_BLOCK_WIDTH`` (blocks run while at
most 2,048 rows are live).  The width depends only on the live count
and the remaining horizon, so a query and its one-member fleet take the
same branches.  The kernel scores the time-major block whole, retires
each row at its first passage and charges it that hit time, so step
counts keep their meaning.  Wide cohorts step one time step per call;
a block there costs more than it saves.  A block draws every row's
numbers for its whole width, including the steps after a row's first
passage, which the per-step branch never draws.  So from the first
retirement inside a block on, the random stream (and the answer bytes)
differ from a per-step run, while each row remains an independent path
of the process.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import as_vectorized, batch_z_values, step_into
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .pool import (CurveWork, DEFAULT_ROOTS_PER_TASK,
                   DEFAULT_TASKS_PER_ROUND, RoundPipeline, StepBudgetError,
                   cut_tasks)
from .quality import QualityTarget
from .value_functions import (TARGET_VALUE, DurabilityQuery,
                              ThresholdValueFunction, batch_values)


def srs_variance(probability: float, n_paths: int) -> float:
    """The SRS variance estimator ``tau_hat (1 - tau_hat) / n``."""
    if n_paths <= 0:
        return 0.0
    return probability * (1.0 - probability) / n_paths


def validate_curve_levels(levels: Sequence[float]) -> tuple:
    """Validate a normalized curve grid: ascending, inside ``(0, 1]``."""
    values = tuple(float(v) for v in levels)
    if not values:
        raise ValueError("empty curve grid")
    for v in values:
        if not 0.0 < v <= TARGET_VALUE:
            raise ValueError(
                f"curve level {v} must lie in (0, {TARGET_VALUE}]"
            )
    for lo, hi in zip(values, values[1:]):
        if lo >= hi:
            raise ValueError(
                f"curve levels must be strictly ascending, got {lo} "
                f"before {hi}"
            )
    return values


def prepare_curve_grid(levels, thresholds,
                       quality: Optional[QualityTarget],
                       max_steps: Optional[int],
                       max_roots: Optional[int]) -> tuple:
    """Shared ``run_curve`` preamble for every sampler.

    Enforces the stopping-rule contract, validates the normalized grid
    and aligns the raw-threshold labels (defaulting to the levels
    themselves).  Returns ``(levels, thresholds)`` as tuples.
    """
    if quality is None and max_steps is None and max_roots is None:
        raise ValueError(
            "provide a quality target, max_steps or max_roots; "
            "otherwise the sampler would never stop"
        )
    levels = validate_curve_levels(levels)
    if thresholds is None:
        thresholds = levels
    thresholds = tuple(float(b) for b in thresholds)
    if len(thresholds) != len(levels):
        raise ValueError(
            f"{len(thresholds)} thresholds for {len(levels)} curve levels"
        )
    return levels, thresholds


def build_srs_curve(thresholds, levels, counts, n_paths: int, steps: int,
                    elapsed: float) -> DurabilityCurve:
    """Fold shared-pass maxima counts into a :class:`DurabilityCurve`."""
    estimates = []
    for hits in counts:
        probability = hits / n_paths if n_paths else 0.0
        estimates.append(DurabilityEstimate(
            probability=probability,
            variance=srs_variance(probability, n_paths),
            n_roots=n_paths, hits=hits, steps=steps, method="srs",
            elapsed_seconds=elapsed, details={"shared_pass": True},
        ))
    return DurabilityCurve(
        thresholds=tuple(thresholds), levels=tuple(levels),
        estimates=tuple(estimates), method="srs", n_roots=n_paths,
        steps=steps, elapsed_seconds=elapsed,
    )


# ----------------------------------------------------------------------
# The kernel and its two row kinds
# ----------------------------------------------------------------------

#: A block holds at most ``BLOCK_CELLS`` (time step, row) cells, and a
#: block narrower than ``MIN_BLOCK_WIDTH`` steps is not taken, so blocks
#: run while at most 2,048 rows are live (see :func:`block_width`).
BLOCK_CELLS = 16384
MIN_BLOCK_WIDTH = 8


def block_width(live: int, remaining: int) -> int:
    """Time steps one kernel call advances ``live`` rows that have
    ``remaining`` steps to the horizon: 1 (the per-step branch) unless
    a block of at least ``MIN_BLOCK_WIDTH`` steps fits the cell budget."""
    width = min(BLOCK_CELLS // live, remaining)
    return width if width >= MIN_BLOCK_WIDTH else 1


class QueryRows:
    """One query's rows, scored against its normalized ``levels`` grid.

    The per-step work is the process call and the value-function call,
    bound once here so the kernel adds no Python frame per step; every
    step reaches ``process.step_batch`` through the instance.  ``block``
    is the process's ``step_block`` when it has one and the value
    function is a :class:`ThresholdValueFunction`, whose scores ignore
    the time index, so a flattened block scores exactly; otherwise
    ``None``.  With ``from_start`` the running maximum starts at the
    time-0 score clipped to the target (the balanced pilot's per-path
    maxima); otherwise it starts at 0, and only when the grid has lower
    levels.
    """

    owners = None
    retire = None

    def __init__(self, query: DurabilityQuery, levels,
                 from_start: bool = False):
        self.process = as_vectorized(query.process)
        self.step = functools.partial(step_into, self.process)
        self.score = functools.partial(batch_values, query.value_function)
        self.block = (getattr(self.process, "step_block", None)
                      if isinstance(query.value_function,
                                    ThresholdValueFunction) else None)
        self.grids = (tuple(levels),)
        self.lowers = ([(0, np.asarray(levels[:-1], dtype=np.float64))]
                       if len(levels) > 1 else [])
        self.from_start = from_start

    def start(self, cohort):
        n = cohort[0]
        states = self.process.initial_states(n)
        if self.from_start:
            best = np.minimum(self.score(states, 0), TARGET_VALUE)
        else:
            best = np.zeros(n, dtype=np.float64) if self.lowers else None
        return states, best, self.grids[0][-1]


class FleetRows:
    """A fused fleet's rows, scored by ``z`` against raw per-member grids.

    Each round's owners, tops and member parameters are gathered once
    and stay row-aligned outside the state array, so the kernel steps a
    contiguous core buffer in place; :meth:`retire` filters them
    together and tallies retired rows per owner.
    """

    def __init__(self, fused, z, grids):
        self.fused = fused
        self.lead = fused.members[0]
        self.block = (self.step_block
                      if getattr(self.lead, "fused_step_block", None)
                      else None)
        self.z = z
        self.grids = tuple(grids)
        self.tops = np.asarray([grid[-1] for grid in grids],
                               dtype=np.float64)
        self.lowers = [(member, np.asarray(grid[:-1], dtype=np.float64))
                       for member, grid in enumerate(grids) if len(grid) > 1]

    def start(self, cohort):
        k = len(cohort)
        self.owners = np.repeat(np.arange(k), cohort)
        self.params = self.fused.row_params(self.owners)
        self.row_tops = self.tops[self.owners]
        self.topped = np.zeros(k, dtype=np.int64)
        self.spent = np.zeros(k, dtype=np.int64)
        best = (np.zeros(len(self.owners), dtype=np.float64)
                if self.lowers else None)
        return self.fused.initial_core_rows(self.owners), best, self.row_tops

    def step(self, states, t, rng):
        return self.lead.fused_step_batch(self.params, states, t, rng,
                                          out=states)

    def step_block(self, states, t, width, rng):
        return self.lead.fused_step_block(self.params, states, t, width, rng)

    def score(self, states, t):
        return batch_z_values(self.z, states)

    def retire(self, reached, keep, times):
        """Drop the rows that reached their tops at ``times`` (one time
        for all of them, or one per reached row); returns the live
        tops."""
        owners = self.owners[reached]
        retired = np.bincount(owners, minlength=len(self.tops))
        self.topped += retired
        if isinstance(times, int):
            self.spent += retired * times
        else:
            self.spent += np.bincount(owners, times, len(self.tops)).astype(
                np.int64)
        self.owners = self.owners[keep]
        self.params = {name: values[keep]
                       for name, values in self.params.items()}
        self.row_tops = self.row_tops[keep]
        return self.row_tops


def advance_rows(rows, cohort, horizon: int, rng) -> tuple:
    """Advance one round of rows to their owners' tops or the horizon.

    ``cohort[m]`` fresh rows start for member ``m`` of ``rows`` (a
    :class:`QueryRows` or :class:`FleetRows`).  Returns ``(topped,
    steps, best)``: per-member lists of the rows that reached their
    owner's top and of the steps spent, and the survivors' running
    maxima in row order (``None`` when the rows track none).

    While :func:`block_width` allows it and the rows have a ``block``,
    one call advances the live rows ``width`` steps: the block is
    scored whole, each row retires at its first passage and is charged
    its own hit time, and survivors' block maxima feed their running
    maxima.  Otherwise the rows advance one step per call.
    """
    states, best, top = rows.start(cohort)
    step, score, retire, block = rows.step, rows.score, rows.retire, rows.block
    topped = spent = t = 0
    if best is not None:
        # A row whose running maximum starts at the top (a pilot row
        # already at the target at time 0) retires before any step.
        reached = best >= top
        if reached.any():
            topped = int(np.count_nonzero(reached))
            keep = ~reached
            states, best = states[keep], best[keep]
            if retire is not None:
                top = retire(reached, keep, 0)
    while t < horizon and len(states):
        width = block_width(len(states), horizon - t) if block else 1
        if width > 1:
            frames = block(states, t + 1, width, rng)
            values = score(frames.reshape((-1,) + frames.shape[2:]),
                           t + 1).reshape(width, -1)
            if best is not None:
                np.maximum(best, values.max(axis=0), out=best)
            hits = values >= top
            reached = hits.any(axis=0)
            states = frames[-1]
        else:
            states = step(states, t + 1, rng)
            values = score(states, t + 1)
            if best is not None:
                np.maximum(best, values, out=best)
            reached = values >= top
        n_reached = int(np.count_nonzero(reached))
        if n_reached:
            keep = ~reached
            states = states[keep]
            if best is not None:
                best = best[keep]
            # Each row is charged its first-passage time.
            times = (t + 1 + hits[:, reached].argmax(axis=0)
                     if width > 1 else t + 1)
            if retire is None:
                topped += n_reached
                spent += (int(times.sum()) if width > 1
                          else n_reached * times)
            else:
                top = retire(reached, keep, times)
        t += width
    if retire is None:
        topped, spent = [topped], [spent]
    else:
        topped, spent = rows.topped.tolist(), rows.spent.tolist()
    steps = [s + (n - hit) * horizon
             for s, n, hit in zip(spent, cohort, topped)]
    return topped, steps, best


def grow_round(projected, n_observed: int, size: int, batch_roots: int,
               max_round_roots: int) -> int:
    """A member's next adaptive round size after ``n_observed`` roots:
    the ``projected`` shortfall within ``[batch_roots,
    max_round_roots]``, or without a projection twice ``size``."""
    if projected is None:
        return min(size * 2, max_round_roots)
    return int(min(max(projected - n_observed, batch_roots),
                   max_round_roots))


def unmet_levels(quality: QualityTarget, counts, n_paths: int) -> list:
    """The hit counts of the grid levels whose quality target is unmet."""
    return [hits for hits in counts
            if not quality.is_met(hits / n_paths,
                                  srs_variance(hits / n_paths, n_paths),
                                  hits, n_paths)]


def run_rows(rows, horizon: int, rng, quality, max_steps, max_roots,
             batch_roots: int, adaptive: bool = False,
             max_round_roots: Optional[int] = None,
             on_round=None) -> tuple:
    """Stopping-rule rounds of :func:`advance_rows` until every member stops.

    Budgets and the quality target apply per member, as separate runs
    would apply them.  Budgets are cohort-granular: every started path
    runs to its top-level hit or the horizon (truncating mid-flight
    would bias the hit fraction), so ``max_steps`` can be overshot by
    at most one round, which is shrunk to what the budget can fund.  A
    member stops once its target holds at *every* level of its grid.
    Rounds hold ``batch_roots`` paths per member; with ``adaptive`` an
    unmet member's next round grows (:func:`grow_round`).
    ``on_round(counts, n_paths, steps)`` runs after every round.
    Returns ``(level_counts, n_paths, steps, rounds)``: per-member
    lists of plain ints.
    """
    k = len(rows.grids)
    counts = [[0] * len(grid) for grid in rows.grids]
    n_paths = [0] * k
    steps = [0] * k
    done = [False] * k
    sizes = [batch_roots] * k
    rounds = 0
    while True:
        cohort = [0] * k
        for member in range(k):
            if done[member]:
                continue
            size = sizes[member]
            if max_roots is not None:
                size = min(size, max_roots - n_paths[member])
            if max_steps is not None:
                remaining = max_steps - steps[member]
                size = min(size, remaining // horizon + 1) \
                    if remaining > 0 else 0
            if size > 0:
                cohort[member] = size
            else:
                done[member] = True
        if all(done):
            break
        rounds += 1
        topped, spent, best = advance_rows(rows, cohort, horizon, rng)
        # Rows retire only at their owner's top level, so a retired row
        # hits every level of its owner's grid at once.
        for member in range(k):
            if topped[member]:
                counts[member] = [c + topped[member]
                                  for c in counts[member]]
            n_paths[member] += cohort[member]
            steps[member] += spent[member]
        if best is not None and len(best):
            # Survivors keep their owners' order, so each member's rows
            # are one run of ``best``; their maxima credit lower levels.
            edges = ((0, len(best)) if rows.owners is None else
                     np.searchsorted(rows.owners, np.arange(k + 1)))
            for member, lower in rows.lowers:
                below = (best[edges[member]:edges[member + 1], None]
                         >= lower).sum(axis=0)
                counts[member][:-1] = [c + int(b) for c, b
                                       in zip(counts[member], below)]
        if on_round is not None:
            on_round(counts, n_paths, steps)
        if quality is None:
            continue
        for member in range(k):
            if done[member]:
                continue
            n = n_paths[member]
            unmet = unmet_levels(quality, counts[member], n)
            if not unmet:
                done[member] = True
            elif adaptive:
                projections = [quality.projected_roots(hits / n, hits, n)
                               for hits in unmet]
                projections = [p for p in projections if p is not None]
                sizes[member] = grow_round(
                    max(projections) if projections else None, n,
                    sizes[member], batch_roots, max_round_roots)
    return counts, n_paths, steps, rounds


class SRSSampler:
    """Batched SRS with budget and quality-target stopping.

    Parameters
    ----------
    batch_roots:
        Cohort size: paths simulated as one batch between
        stopping-rule checks.
    record_trace:
        When True, :meth:`run` records a :class:`TracePoint` at every
        check; the trace lands in ``estimate.details["trace"]`` (used
        for the convergence study, Figure 8).
    pool / roots_per_task:
        With a :class:`~repro.core.pool.WorkerPool`, paths shard over
        its workers in fixed-size tasks whose seeds derive from the
        task index, so pooled estimates are invariant under the worker
        count (see :mod:`repro.core.pool`).  Each stopping-rule round
        covers at least :data:`~repro.core.pool.DEFAULT_TASKS_PER_ROUND`
        tasks of ``roots_per_task`` paths, pipelined through a
        :class:`~repro.core.pool.RoundPipeline`.
    """

    method_name = "srs"

    def __init__(self, batch_roots: int = 500, record_trace: bool = False,
                 pool=None,
                 roots_per_task: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.pool = pool
        self.roots_per_task = roots_per_task or DEFAULT_ROOTS_PER_TASK

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        """Estimate the query answer; stop on quality target or budget.

        The curve pass on the one-level grid ``(1.0,)``.  ``details``
        stay empty unless ``record_trace`` is set (``"trace"``: one
        :class:`TracePoint` per round) or a pool is used
        (``"parallel"``: worker count, pool mode and tasks cut).
        """
        levels, _ = prepare_curve_grid((TARGET_VALUE,), None, quality,
                                       max_steps, max_roots)
        trace = [] if self.record_trace else None
        started = time.perf_counter()
        counts, n_paths, steps, tasks = self._curve_pass(
            query, levels, quality, max_steps, max_roots, seed, trace)
        details = {}
        if self.pool is not None:
            details["parallel"] = {"n_workers": self.pool.n_workers,
                                   "mode": self.pool.mode,
                                   "tasks": tasks}
        if trace is not None:
            details["trace"] = trace
        curve = build_srs_curve(levels, levels, counts, n_paths, steps,
                                time.perf_counter() - started)
        return dataclasses.replace(curve.estimates[0], details=details)

    def run_curve(self, query: DurabilityQuery, levels: Sequence[float],
                  thresholds: Optional[Sequence[float]] = None,
                  quality: Optional[QualityTarget] = None,
                  max_steps: Optional[int] = None,
                  max_roots: Optional[int] = None,
                  seed: Optional[int] = None) -> DurabilityCurve:
        """Answer a whole grid of value levels from one simulation pass.

        Instead of one run per threshold, every path records its
        *running maximum* value-function score; the estimate for level
        ``v`` is then the fraction of paths whose maximum reached ``v``
        — simultaneously, for every grid point, from the same paths.
        A path stops early only once it reaches the *top* level, so the
        pass costs about as much as a single run against the hardest
        threshold, not ``K`` runs.

        Parameters
        ----------
        query:
            The durability query; its value function defines the scale
            of ``levels`` (for a grid of raw thresholds, rebase the
            query onto the largest one — see
            :meth:`repro.core.value_functions.DurabilityQuery.with_threshold`).
        levels:
            Normalized grid, strictly ascending, each in ``(0, 1]``.
        thresholds:
            Optional raw-threshold labels for the result (defaults to
            ``levels``).
        quality:
            Stopping target, required to hold at *every* grid level
            (the rarest level is the binding one).
        max_steps / max_roots / seed:
            As in :meth:`run`; at least one stopping criterion must be
            given.
        """
        levels, thresholds = prepare_curve_grid(
            levels, thresholds, quality, max_steps, max_roots)
        started = time.perf_counter()
        counts, n_paths, steps, _ = self._curve_pass(
            query, levels, quality, max_steps, max_roots, seed, None)
        return build_srs_curve(thresholds, levels, counts, n_paths, steps,
                               time.perf_counter() - started)

    def _curve_pass(self, query, levels, quality, max_steps, max_roots,
                    seed, trace):
        """The one SRS pass: pooled when the sampler has a pool.

        Returns ``(level_counts, n_paths, steps, tasks)``; ``tasks`` is
        the number of pool tasks cut (0 without a pool).  With a
        ``trace`` list, one :class:`TracePoint` of the top level is
        appended per round.  Unpooled, the pass is :func:`run_rows`
        over the query's rows in fixed rounds of ``batch_roots`` paths.
        """
        if self.pool is not None:
            return self._curve_pass_pooled(query, levels, quality,
                                           max_steps, max_roots, seed,
                                           trace)
        on_round = None
        if trace is not None:
            started = time.perf_counter()

            def on_round(counts, n_paths, steps):
                _trace_round(trace, started, steps[0], counts[0][-1],
                             n_paths[0])

        counts, n_paths, steps, _ = run_rows(
            QueryRows(query, levels), query.horizon,
            np.random.default_rng(seed), quality, max_steps, max_roots,
            self.batch_roots, on_round=on_round)
        return counts[0], n_paths[0], steps[0], 0

    def _round_cohort(self, n_paths: int, steps: int, horizon: int,
                      max_steps: Optional[int],
                      max_roots: Optional[int]) -> int:
        """Next pooled round's path budget under the stopping budgets.

        Non-positive means "stop".  Unlike the unpooled rounds of
        :func:`run_rows` (cohort-granular by documented design), the
        pooled ``max_steps`` budget is *strict*: a path costs at most
        ``horizon`` steps, so admitting only ``remaining // horizon``
        more paths guarantees pooled step counts never exceed the cap.
        """
        cohort = max(self.batch_roots,
                     self.roots_per_task * DEFAULT_TASKS_PER_ROUND)
        if max_roots is not None:
            cohort = min(cohort, max_roots - n_paths)
        if max_steps is not None:
            if steps >= max_steps:
                return 0
            cohort = min(cohort, (max_steps - steps) // horizon)
        return cohort

    def _curve_pass_pooled(self, query, levels, quality, max_steps,
                           max_roots, seed, trace=None):
        """Paths shard over the worker pool in fixed-size tasks.

        Rounds run quality checks between merges while the next round's
        tasks are already in flight (see
        :class:`~repro.core.pool.RoundPipeline`).  Task seeds come from
        :func:`~repro.core.pool.derive_task_seed` and per-level counts
        merge in task order, so the answer is byte-identical for any
        ``n_workers`` and pool mode.  A strict ``max_steps`` below one
        path's cost (the horizon) raises
        :class:`~repro.core.pool.StepBudgetError` before any work is
        registered.
        """
        horizon = query.horizon
        if max_steps is not None and max_steps < horizon:
            raise StepBudgetError(
                f"max_steps={max_steps} cannot fund one SRS path of "
                f"{horizon} steps (the horizon) under the strict pooled "
                f"budget")
        pool = self.pool
        handle = pool.register(CurveWork(query=query, levels=tuple(levels)))
        rounds = RoundPipeline(pool, handle)
        counts = [0] * len(levels)
        n_paths = 0
        steps = 0
        task_index = 0
        started = time.perf_counter()
        try:
            while True:
                cohort = self._round_cohort(n_paths, steps, horizon,
                                            max_steps, max_roots)
                if cohort <= 0:
                    break
                tasks, task_index = cut_tasks(cohort, self.roots_per_task,
                                              seed, task_index)
                predicted = None
                if max_steps is None:
                    # Under max_steps the next round depends on this
                    # round's measured spend, so there is nothing
                    # sound to speculate.
                    ahead = self._round_cohort(n_paths + cohort, steps,
                                               horizon, None, max_roots)
                    if ahead > 0:
                        predicted, _ = cut_tasks(
                            ahead, self.roots_per_task, seed, task_index)
                for task_counts, task_n, task_steps in rounds.run_round(
                        tasks, predicted):
                    counts = [c + n for c, n in zip(counts, task_counts)]
                    n_paths += task_n
                    steps += task_steps
                if trace is not None:
                    _trace_round(trace, started, steps, counts[-1], n_paths)
                if quality is not None and not unmet_levels(
                        quality, counts, n_paths):
                    break
        finally:
            rounds.close()
            pool.unregister(handle)
        return counts, n_paths, steps, task_index


def _trace_round(trace: list, started: float, steps: int, hits: int,
                 n_paths: int) -> None:
    """Append one round's top-level convergence snapshot."""
    probability = hits / n_paths
    trace.append(TracePoint(
        steps=steps, elapsed_seconds=time.perf_counter() - started,
        probability=probability,
        variance=srs_variance(probability, n_paths),
        n_roots=n_paths, hits=hits,
    ))
