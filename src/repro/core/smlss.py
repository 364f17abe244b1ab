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
                       roots_per_task: Optional[int] = None,
                       tasks_per_round: Optional[int] = None):
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
        from .pool import (DEFAULT_ROOTS_PER_TASK, DEFAULT_TASKS_PER_ROUND,
                           PooledForestRunner)
        return PooledForestRunner(
            pool, query, partition, ratios, seed,
            roots_per_task=roots_per_task or DEFAULT_ROOTS_PER_TASK,
            tasks_per_round=tasks_per_round or DEFAULT_TASKS_PER_ROUND)
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


def smlss_point_estimate(aggregate: ForestAggregate, ratios: tuple) -> float:
    """Eq. 3: ``N_m / (N_0 * prod r_i)``."""
    if aggregate.n_roots == 0:
        return 0.0
    return aggregate.hits / (aggregate.n_roots * ratio_product(ratios))


def smlss_variance(aggregate: ForestAggregate, ratios: tuple) -> float:
    """Eq. 5-6: per-root hit-count variance scaled by the split factor."""
    n0 = aggregate.n_roots
    if n0 < 2:
        return 0.0
    sigma_sq = aggregate.hit_count_variance()
    denominator = ratio_product(ratios)
    return sigma_sq / (n0 * denominator * denominator)


def smlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Boundary-crossing probabilities under the no-skipping assumption.

    The s-MLSS analogue of Eq. 3 for every prefix: without level
    skipping, the expected number of landings in ``L_i`` is
    ``N_0 * prod_{k<i} r_k * Pr[cross beta_i]``, so one forest yields
    ``Pr[cross beta_i] = landings[i] / (N_0 * prod_{k<i} r_k)`` for all
    boundaries at once.  Returns ``[Pr[cross beta_1], ...,
    Pr[cross beta_{m-1}], Pr[hit target]]`` (length ``m``); like the
    point estimate, the prefixes are biased when the process does skip
    levels.
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
    ``n_roots`` and the squared split factor.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    if n0 < 2:
        return [0.0] * m
    landings, _, _, hits = aggregate.per_root_matrices()
    variances = []
    scale = 1.0
    for i in range(1, m):
        sigma_sq = float(landings[:, i].var(ddof=1))
        variances.append(sigma_sq / (n0 * scale * scale))
        scale *= ratios[i]
    variances.append(float(hits.var(ddof=1)) / (n0 * scale * scale))
    return variances


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
    pool / roots_per_task / tasks_per_round:
        With a :class:`~repro.core.pool.WorkerPool`, root trees shard
        over its workers in fixed-size tasks, rounds pipelined
        (results are invariant under the worker count; see
        :mod:`repro.core.pool`).
    """

    method_name = "smlss"

    def __init__(self, partition: LevelPartition, ratio=3,
                 batch_roots: int = 100, record_trace: bool = False,
                 pool=None,
                 roots_per_task: Optional[int] = None,
                 tasks_per_round: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.partition = partition
        self.ratios = normalize_ratios(ratio, partition.num_levels)
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.pool = pool
        self.roots_per_task = roots_per_task
        self.tasks_per_round = tasks_per_round

    def _make_runner(self, query: DurabilityQuery, seed: Optional[int]):
        return make_forest_runner(
            query, self.partition, self.ratios, seed, pool=self.pool,
            roots_per_task=self.roots_per_task,
            tasks_per_round=self.tasks_per_round)

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        if quality is None and max_steps is None and max_roots is None:
            raise ValueError(
                "provide a quality target, max_steps or max_roots; "
                "otherwise the sampler would never stop"
            )
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        trace = []
        started = time.perf_counter()

        try:
            done = False
            while not done:
                done = runner.accumulate(aggregate, self.batch_roots,
                                         max_steps=max_steps,
                                         max_roots=max_roots)
                if done or aggregate.n_roots == 0:
                    break
                probability = smlss_point_estimate(aggregate, self.ratios)
                variance = smlss_variance(aggregate, self.ratios)
                if self.record_trace:
                    trace.append(TracePoint(
                        steps=aggregate.steps,
                        elapsed_seconds=time.perf_counter() - started,
                        probability=probability, variance=variance,
                        n_roots=aggregate.n_roots, hits=aggregate.hits,
                    ))
                if quality is not None and quality.is_met(
                        probability, variance, aggregate.hits,
                        aggregate.n_roots):
                    break
        finally:
            close_runner(runner)

        probability = smlss_point_estimate(aggregate, self.ratios)
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            "skipping_detected": aggregate.total_skips > 0,
        }
        if self.record_trace:
            details["trace"] = trace
        return DurabilityEstimate(
            probability=probability,
            variance=smlss_variance(aggregate, self.ratios),
            n_roots=aggregate.n_roots, hits=aggregate.hits,
            steps=aggregate.steps, method=self.method_name,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )

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
        estimate.  ``quality`` must hold at every level; it is
        evaluated on a geometric root-count schedule (the per-level
        variances read the whole per-root history, so checking every
        batch would cost quadratic time).  Budgets behave as in
        :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        next_check = max(2 * self.batch_roots, 100)
        started = time.perf_counter()

        try:
            done = False
            while not done:
                done = runner.accumulate(aggregate, self.batch_roots,
                                         max_steps=max_steps,
                                         max_roots=max_roots)
                if done or aggregate.n_roots == 0:
                    break
                if quality is not None and aggregate.n_roots >= next_check:
                    prefixes = smlss_prefix_estimates(aggregate, self.ratios)
                    variances = smlss_prefix_variances(aggregate,
                                                       self.ratios)
                    if all(quality.is_met(prefixes[i], variances[i],
                                          self._level_hits(aggregate, i),
                                          aggregate.n_roots)
                           for i in range(len(levels))):
                        break
                    next_check = max(next_check + 1,
                                     math.ceil(next_check * 1.5))
        finally:
            close_runner(runner)

        prefixes = smlss_prefix_estimates(aggregate, self.ratios)
        variances = smlss_prefix_variances(aggregate, self.ratios)
        elapsed = time.perf_counter() - started
        estimates = tuple(
            DurabilityEstimate(
                probability=prefixes[i], variance=variances[i],
                n_roots=aggregate.n_roots,
                hits=self._level_hits(aggregate, i),
                steps=aggregate.steps, method=self.method_name,
                elapsed_seconds=elapsed, details={"shared_pass": True},
            )
            for i in range(len(levels)))
        return DurabilityCurve(
            thresholds=thresholds, levels=levels, estimates=estimates,
            method=self.method_name, n_roots=aggregate.n_roots,
            steps=aggregate.steps, elapsed_seconds=elapsed,
            details={
                "partition": self.partition,
                "ratios": self.ratios[1:],
                "level_reach": aggregate.level_reach_counts(),
                "skipping_detected": aggregate.total_skips > 0,
            },
        )

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level."""
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return aggregate.landings[index + 1]
