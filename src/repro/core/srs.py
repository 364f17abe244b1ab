"""Simple Random Sampling — the standard Monte Carlo baseline (§2.2).

SRS simulates ``n`` independent sample paths, labels each by whether it
satisfies the query condition before the horizon, and returns the hit
fraction:

    tau_hat = sum(l(SP_i)) / n,     Var_hat = tau_hat (1 - tau_hat) / n.

A path stops as soon as it hits the target (the durability query only
asks about the *first* hitting time), so the cost of a successful path
is its hitting time, not the full horizon.

Whole cohorts of paths advance through
:meth:`VectorizedProcess.step_batch` array operations; paths that hit
the target drop out of the batch, so early stopping is preserved.  A
process without ``step_batch`` runs the same loop inside a
:class:`~repro.processes.base.ScalarFallback`, which calls its ``step``
row by row.  Cost is one ``g`` invocation per live path per step
either way.  The loops step through :func:`repro.processes.base.
step_into`, so processes with the in-place ``step_batch(..., out=...)``
fast path overwrite their cohort buffer instead of allocating a fresh
state array every time step.

There is one pass.  :meth:`SRSSampler.run_curve` answers a whole
*grid* of thresholds from the same paths: each path records its running
maximum score, so the hit indicator for every grid level is read off
one simulation (see :class:`repro.core.estimates.DurabilityCurve`).  A
point answer is that pass on the one-level grid ``(1.0,)``:
:meth:`SRSSampler.run` labels each path by whether it reached the
target, exactly the paper's SRS, and draws the same random numbers in
the same order as any curve whose top level is the target.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import as_vectorized, step_into
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .pool import (CurveWork, DEFAULT_ROOTS_PER_TASK,
                   DEFAULT_TASKS_PER_ROUND, RoundPipeline, StepBudgetError,
                   cut_tasks)
from .quality import QualityTarget
from .value_functions import TARGET_VALUE, DurabilityQuery, batch_values


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


def curve_quality_met(quality: QualityTarget, counts, n_paths: int) -> bool:
    """True when the stopping target holds at *every* grid level."""
    if n_paths == 0:
        return False
    for hits in counts:
        probability = hits / n_paths
        if not quality.is_met(probability, srs_variance(probability, n_paths),
                              hits, n_paths):
            return False
    return True


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
    pool / roots_per_task / tasks_per_round:
        With a :class:`~repro.core.pool.WorkerPool`, paths shard over
        its workers in fixed-size tasks whose seeds derive from the
        task index, so pooled estimates are invariant under the worker
        count (see :mod:`repro.core.pool`).  Each stopping-rule round
        covers at least ``tasks_per_round`` tasks of
        ``roots_per_task`` paths, pipelined through a
        :class:`~repro.core.pool.RoundPipeline`.
    """

    method_name = "srs"

    def __init__(self, batch_roots: int = 500, record_trace: bool = False,
                 pool=None,
                 roots_per_task: Optional[int] = None,
                 tasks_per_round: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.pool = pool
        self.roots_per_task = roots_per_task or DEFAULT_ROOTS_PER_TASK
        self.tasks_per_round = tasks_per_round or DEFAULT_TASKS_PER_ROUND

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
        hits = counts[0]
        probability = hits / n_paths if n_paths else 0.0
        details = {}
        if self.pool is not None:
            details["parallel"] = {"n_workers": self.pool.n_workers,
                                   "mode": self.pool.mode,
                                   "tasks": tasks}
        if trace is not None:
            details["trace"] = trace
        return DurabilityEstimate(
            probability=probability,
            variance=srs_variance(probability, n_paths),
            n_roots=n_paths, hits=hits, steps=steps,
            method=self.method_name,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )

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
        appended per round.
        """
        run_pass = (self._curve_pass_vectorized if self.pool is None
                    else self._curve_pass_pooled)
        return run_pass(query, levels, quality, max_steps, max_roots, seed,
                        trace)

    def _curve_pass_vectorized(self, query, levels, quality, max_steps,
                               max_roots, seed, trace=None):
        """Cohorts advance as NumPy batches between stopping checks.

        Budgets are enforced at cohort granularity: every started path
        runs to its top-level hit or the horizon (truncating mid-flight
        would bias the hit fraction), so ``max_steps`` can be overshot
        by at most one cohort.  The cohort is shrunk when the remaining
        budget cannot fill it, keeping that overshoot small.

        A live path reaches the top level at step ``t`` exactly when
        its value at ``t`` does (otherwise it would have left the
        frontier already), so the top level is read off the current
        values; running maxima are kept only for levels below it.
        """
        rng = np.random.default_rng(seed)
        process = as_vectorized(query.process)
        value_fn = query.value_function
        horizon = query.horizon
        top = levels[-1]
        lower = (np.asarray(levels[:-1], dtype=np.float64)
                 if len(levels) > 1 else None)

        counts = [0] * len(levels)
        n_paths = 0
        steps = 0
        started = time.perf_counter()

        while True:
            cohort = self.batch_roots
            if max_roots is not None:
                cohort = min(cohort, max_roots - n_paths)
            if max_steps is not None:
                if steps >= max_steps:
                    break
                cohort = min(cohort, (max_steps - steps) // horizon + 1)
            if cohort <= 0:
                break

            states = process.initial_states(cohort)
            best = (np.zeros(cohort, dtype=np.float64)
                    if lower is not None else None)
            topped = 0
            t = 0
            while t < horizon and len(states):
                t += 1
                states = step_into(process, states, t, rng)
                steps += len(states)
                values = batch_values(value_fn, states, t)
                if best is not None:
                    np.maximum(best, values, out=best)
                reached = values >= top
                n_reached = int(np.count_nonzero(reached))
                if n_reached:
                    topped += n_reached
                    keep = ~reached
                    states = states[keep]
                    if best is not None:
                        best = best[keep]
            # Paths that reached the top level hit every grid point;
            # survivors hit exactly the lower levels below their maximum.
            counts = [c + topped for c in counts]
            if best is not None and len(best):
                below = (best[:, None] >= lower[None, :]).sum(axis=0)
                counts[:-1] = [c + int(b) for c, b in zip(counts, below)]
            n_paths += cohort

            if trace is not None:
                _trace_round(trace, started, steps, counts[-1], n_paths)
            if quality is not None and curve_quality_met(
                    quality, counts, n_paths):
                break
        return counts, n_paths, steps, 0

    def _round_cohort(self, n_paths: int, steps: int, horizon: int,
                      max_steps: Optional[int],
                      max_roots: Optional[int]) -> int:
        """Next pooled round's path budget under the stopping budgets.

        Non-positive means "stop".  Unlike the single-process
        vectorized loop (cohort-granular by documented design), the
        pooled ``max_steps`` budget is *strict*: a path costs at most
        ``horizon`` steps, so admitting only ``remaining // horizon``
        more paths guarantees pooled step counts never exceed the cap.
        """
        cohort = max(self.batch_roots,
                     self.roots_per_task * self.tasks_per_round)
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
                if quality is not None and curve_quality_met(
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
