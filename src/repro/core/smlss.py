"""s-MLSS: the simple Multi-Level Splitting estimator (Section 3).

Under the *no level-skipping* assumption, the counters of the splitting
forest yield

    tau_hat = N_m / (N_0 * r^(m-1)),                        (Eq. 3)

or, with per-level ratios, ``N_m / (N_0 * prod_i r_i)``.  The variance
follows from the per-root hit counts (Eq. 5-6):

    Var_hat = sigma^2 / (N_0 * r^(2(m-1))),
    sigma^2 = sample variance of N_m^<k> over root paths k.

The estimator is read straight off the forest counters; when the
underlying process *does* skip levels, the same formulas silently
produce biased answers — this is the "blind application" the paper
demonstrates in Table 6, and :class:`SMLSSSampler` flags it via
``details["skipping_detected"]``.

There is one pass.  Read level by level, the same counters give every
boundary-crossing probability (:func:`smlss_prefix_estimates`) and its
variance (:func:`smlss_prefix_variances`), and the target level is
Eq. 3 and Eq. 5-6 themselves.  :meth:`SMLSSSampler.run` and
:meth:`SMLSSSampler.run_curve` share one round loop that differs only
in which levels gate the quality target: the point answer is the
curve's top level.

Both MLSS samplers get their forest from :func:`make_forest_runner`:
one batched :class:`~repro.core.forest.VectorizedForestRunner`, or its
pooled counterpart when a worker pool is given.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .forest import VectorizedForestRunner
from .levels import LevelPartition, normalize_ratios
from .quality import QualityTarget
from .records import ForestAggregate
from .srs import prepare_curve_grid
from .value_functions import DurabilityQuery


def make_forest_runner(query: DurabilityQuery,
                       partition: LevelPartition, ratios,
                       seed: Optional[int],
                       pool=None,
                       roots_per_task: Optional[int] = None):
    """Build the forest runner for one sampler run.

    Without a pool, whole cohorts run through
    :class:`VectorizedForestRunner` (a NumPy generator, buffered
    frontiers, and in-place stepping for processes that support
    ``out=``).  With a :class:`~repro.core.pool.WorkerPool`, cohorts
    shard over the pool's workers instead, in pipelined rounds
    (:class:`~repro.core.pool.PooledForestRunner`).  Both runners
    expose the same ``accumulate`` interface, so samplers are
    parallelism-agnostic past this point; pooled runners additionally
    expose ``close()``, which samplers call when a run finishes.
    """
    if pool is not None:
        from .pool import DEFAULT_ROOTS_PER_TASK, PooledForestRunner
        return PooledForestRunner(
            pool, query, partition, ratios, seed,
            roots_per_task=roots_per_task or DEFAULT_ROOTS_PER_TASK)
    return VectorizedForestRunner(query, partition, ratios,
                                  np.random.default_rng(seed))


def close_runner(runner) -> None:
    """Release a runner's pooled resources, if it holds any."""
    close = getattr(runner, "close", None)
    if close is not None:
        close()


def ratio_product(ratios: tuple) -> int:
    """``prod_i r_i`` over the splittable levels (``r^(m-1)`` if fixed)."""
    return math.prod(ratios[1:])


def smlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Boundary-crossing probabilities under the no-skipping assumption.

    The s-MLSS analogue of Eq. 3 for every prefix: without level
    skipping, the expected number of landings in ``L_i`` is
    ``N_0 * prod_{k<i} r_k * Pr[cross beta_i]``, so one forest yields
    ``Pr[cross beta_i] = landings[i] / (N_0 * prod_{k<i} r_k)`` for all
    boundaries at once.  Returns ``[Pr[cross beta_1], ...,
    Pr[cross beta_{m-1}], Pr[hit target]]`` (length ``m``).  The last
    entry is the point estimate, Eq. 3.  Like it, the prefixes are
    biased when the process does skip levels.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    prefixes = []
    scale = float(n0)
    for i in range(1, m):
        prefixes.append(aggregate.landings[i] / scale if n0 else 0.0)
        scale *= ratios[i]
    prefixes.append(aggregate.hits / scale if n0 else 0.0)
    return prefixes


def smlss_prefix_variances(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Per-boundary variances for :func:`smlss_prefix_estimates`.

    Each prefix is a mean of i.i.d. per-root counts scaled by a
    constant, so the Eq. 5-6 argument applies level by level: the
    sample variance of the per-root landing (or hit) counts, divided by
    ``n_roots`` and the squared split factor.  The counts' variances
    come from running sums, so this costs O(m) however many roots have
    run.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    if n0 < 2:
        return [0.0] * m
    variances = []
    scale = 1
    for i in range(1, m):
        variances.append(aggregate.landing_count_variance(i)
                         / (n0 * scale * scale))
        scale *= ratios[i]
    variances.append(aggregate.hit_count_variance() / (n0 * scale * scale))
    return variances


def level_estimates(sampler, aggregate: ForestAggregate, prefixes,
                    variances, elapsed: float) -> tuple:
    """One :class:`DurabilityEstimate` per curve level of an MLSS pass.

    The last one is the sampler's point answer; ``sampler`` supplies
    the method name and each level's observation count.
    """
    return tuple(
        DurabilityEstimate(
            probability=prefixes[i], variance=float(variances[i]),
            n_roots=aggregate.n_roots,
            hits=sampler._level_hits(aggregate, i),
            steps=aggregate.steps, method=sampler.method_name,
            elapsed_seconds=elapsed, details={"shared_pass": True},
        )
        for i in range(aggregate.num_levels))


class SMLSSSampler:
    """Batched s-MLSS with budget and quality-target stopping.

    Parameters
    ----------
    partition:
        The level partition plan ``B``.
    ratio:
        Fixed splitting ratio ``r`` (paper default 3) or per-level
        ratios.
    batch_roots:
        Cohort size: root trees simulated as one batch between
        stopping-rule checks.
    record_trace:
        Record convergence snapshots in ``details["trace"]``.
    pool / roots_per_task:
        With a :class:`~repro.core.pool.WorkerPool`, root trees shard
        over its workers in fixed-size tasks, rounds pipelined
        (results are invariant under the worker count; see
        :mod:`repro.core.pool`).
    """

    method_name = "smlss"

    def __init__(self, partition: LevelPartition, ratio=3,
                 batch_roots: int = 100, record_trace: bool = False,
                 pool=None,
                 roots_per_task: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.partition = partition
        self.ratios = normalize_ratios(ratio, partition.num_levels)
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.pool = pool
        self.roots_per_task = roots_per_task

    def _make_runner(self, query: DurabilityQuery, seed: Optional[int]):
        return make_forest_runner(
            query, self.partition, self.ratios, seed, pool=self.pool,
            roots_per_task=self.roots_per_task)

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        """The top level of :meth:`run_curve`'s pass, gated on it alone.

        The quality target is checked at the target level only, so the
        run stops no later than the curve and, when both stop at the
        same root count, answers with the curve's top level byte for
        byte.
        """
        prepare_curve_grid(self.partition.boundaries + (1.0,), None,
                           quality, max_steps, max_roots)
        trace = [] if self.record_trace else None
        started = time.perf_counter()
        aggregate = self._pass(query, (self.partition.num_levels - 1,),
                               quality, max_steps, max_roots, seed, trace)
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            "skipping_detected": aggregate.total_skips > 0,
        }
        if trace is not None:
            details["trace"] = trace
        estimate = level_estimates(
            self, aggregate, smlss_prefix_estimates(aggregate, self.ratios),
            smlss_prefix_variances(aggregate, self.ratios),
            time.perf_counter() - started)[-1]
        estimate.details = details
        return estimate

    def run_curve(self, query: DurabilityQuery,
                  thresholds: Optional[Sequence[float]] = None,
                  quality: Optional[QualityTarget] = None,
                  max_steps: Optional[int] = None,
                  max_roots: Optional[int] = None,
                  seed: Optional[int] = None) -> DurabilityCurve:
        """Answer the partition's whole boundary grid from one forest.

        The s-MLSS counterpart of :meth:`GMLSSSampler.run_curve`:
        boundary-crossing probabilities are read off the landing
        counters level by level (:func:`smlss_prefix_estimates`), valid
        under the same no-level-skipping assumption as the point
        estimate.  ``quality`` must hold at every level; like the point
        answer's, it is checked after every batch.  Budgets behave as
        in :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        started = time.perf_counter()
        aggregate = self._pass(query, range(len(levels)), quality,
                               max_steps, max_roots, seed, None)
        elapsed = time.perf_counter() - started
        return DurabilityCurve(
            thresholds=thresholds, levels=levels,
            estimates=level_estimates(
                self, aggregate,
                smlss_prefix_estimates(aggregate, self.ratios),
                smlss_prefix_variances(aggregate, self.ratios), elapsed),
            method=self.method_name, n_roots=aggregate.n_roots,
            steps=aggregate.steps, elapsed_seconds=elapsed,
            details={
                "partition": self.partition,
                "ratios": self.ratios[1:],
                "level_reach": aggregate.level_reach_counts(),
                "skipping_detected": aggregate.total_skips > 0,
            },
        )

    def _pass(self, query: DurabilityQuery, gated, quality, max_steps,
              max_roots, seed, trace) -> ForestAggregate:
        """The one s-MLSS round loop behind :meth:`run` and
        :meth:`run_curve`.

        Grows the forest ``batch_roots`` trees at a time until a budget
        runs out or, checked after every batch, ``quality`` holds at
        every curve level index in ``gated``.  With a ``trace`` list,
        each batch appends one :class:`TracePoint` of the top level.
        """
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        started = time.perf_counter()
        try:
            while not runner.accumulate(aggregate, self.batch_roots,
                                        max_steps=max_steps,
                                        max_roots=max_roots):
                if aggregate.n_roots == 0:
                    break
                if quality is None and trace is None:
                    continue
                prefixes = smlss_prefix_estimates(aggregate, self.ratios)
                variances = smlss_prefix_variances(aggregate, self.ratios)
                if trace is not None:
                    trace.append(TracePoint(
                        steps=aggregate.steps,
                        elapsed_seconds=time.perf_counter() - started,
                        probability=prefixes[-1], variance=variances[-1],
                        n_roots=aggregate.n_roots, hits=aggregate.hits,
                    ))
                if quality is not None and all(
                        quality.is_met(prefixes[i], variances[i],
                                       self._level_hits(aggregate, i),
                                       aggregate.n_roots)
                        for i in gated):
                    break
        finally:
            close_runner(runner)
        return aggregate

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level."""
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return aggregate.landings[index + 1]
