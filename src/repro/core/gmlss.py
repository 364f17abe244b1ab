"""g-MLSS: the general Multi-Level Splitting estimator (Section 4).

Without the no-level-skipping assumption, the target probability
decomposes over boundary *crossings* (Eq. 8):

    tau = prod_i pi_i,   pi_i = Pr[cross beta_i | crossed beta_{i-1}].

Each ``pi`` is estimated from the forest counters (Eq. 9):

    pi_hat_1     = (|H_1| + n_skip_1) / N_0
    pi_hat_{i+1} = (sum_{h in H_i} mu(h) + n_skip_i) / (|H_i| + n_skip_i)

where ``mu(h)`` is the fraction of the split state's direct offspring
that crossed the next boundary and ``n_skip_i`` counts paths that passed
``beta_{i+1}`` without landing in ``L_i`` (those crossed deterministically).
With per-level ratios ``sum mu(h) = crossings[i] / r_i``.

The paper proves the estimator unbiased in general (Proposition 2).
Measured, it is not when a process can jump over a level: a path that
skips ``L_1`` reaches ``beta_2`` with split weight 1, an ``L_1``
offspring with weight ``1 / r``, and Eq. 9 counts ``|H_i| + n_skip_i``
with equal weight, so the product no longer telescopes.  Processes that
move one lattice step at a time either always land in a level or
always skip it, and are unaffected.

Its variance has no closed form, so :class:`GMLSSSampler` estimates it
by bootstrapping the per-root counters (Section 4.2); the bootstrap is
evaluated on a conservative geometric schedule, following the paper's
rule of thumb that "sometimes overrunning the simulation a little"
beats frequent bootstrapping.

There is one fold.  :func:`gmlss_pi_hat_rows` computes Eq. 9 over
counter-total rows; the running product of a row is the prefix curve
(:func:`gmlss_prefix_estimates`), and the point estimate is its last
entry.  The bootstrap refolds every replicate through the same
function, so one resampling pass gives every prefix's variance.

This module also holds the one MLSS round loop,
:meth:`GMLSSSampler._pass`.  It grows one forest per member: a query
is a fleet of one, and a fused g-MLSS fleet
(:func:`~repro.core.fleet.screen_fleet_mlss`, unpooled and in each
pooled member slice) runs the same loop over its members, each with
its own aggregate, check schedule and bootstrap seeds, and member 0
drawing a single answer's seeds.  So one set of options
(``batch_roots``, ``bootstrap_rounds``, ``first_check_roots``,
``check_growth``) means the same on both paths, and a one-member
screen with uniform allocation equals :meth:`GMLSSSampler.run`.  Only
fleets size rounds from their measured variance (``adaptive``).
:meth:`GMLSSSampler.run` and :meth:`GMLSSSampler.run_curve` share the
pass and differ only in which levels gate the quality target: the
point answer is the curve's top level.  Both splitting estimators grow
the same forest (from :func:`make_forest_runner`), so s-MLSS
(:class:`~repro.core.smlss.SMLSSSampler`) subclasses
:class:`GMLSSSampler` and overrides only how the counters fold (Eq. 3
against Eq. 9), how the variance is estimated (Eq. 5-6 against the
bootstrap), when the loop checks, how many observations back a level
and which facts its ``details`` report.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

import numpy as np

from .bootstrap import bootstrap_variance
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .forest import VectorizedForestRunner
from .levels import LevelPartition, normalize_ratios
from .quality import QualityTarget
from .records import ForestAggregate
from .srs import DEFAULT_MAX_ROUND_ROOTS, grow_round, prepare_curve_grid
from .value_functions import DurabilityQuery


def gmlss_pi_hat_rows(landings, skips, crossings, hits, n_roots: float,
                      ratios: tuple) -> np.ndarray:
    """Eq. 9 over counter-total rows: the one g-MLSS fold.

    Every argument carries a leading row axis: ``(B, m)`` level
    matrices (index 0 unused) and ``(B,)`` hits, one row per counter
    set — a forest's totals, or one bootstrap replicate's resampled
    sums.  Returns the ``(B, m)`` factors ``[pi_hat_1, ..., pi_hat_m]``
    of the Eq. 8 product.  Their running product along a row
    (``np.cumprod``) is the prefix curve, whose last column is the
    point estimate.  A zero denominator yields a zero factor, which
    zeroes every later prefix.  With no interior boundaries
    (``m == 1``) g-MLSS degenerates to SRS, ``hits / n_roots``.
    """
    landings = np.asarray(landings, dtype=np.float64)
    hits = np.asarray(hits, dtype=np.float64)
    factors = np.zeros(landings.shape, dtype=np.float64)
    if n_roots <= 0:
        return factors
    if landings.shape[1] == 1:
        factors[:, 0] = hits / n_roots
        return factors
    skips = np.asarray(skips, dtype=np.float64)
    crossings = np.asarray(crossings, dtype=np.float64)
    factors[:, 0] = (landings[:, 1] + skips[:, 1]) / n_roots
    denominators = landings[:, 1:] + skips[:, 1:]
    numerators = (crossings[:, 1:] / np.asarray(ratios[1:], dtype=np.float64)
                  + skips[:, 1:])
    np.divide(numerators, denominators, out=factors[:, 1:],
              where=denominators > 0)
    return factors


def _pi_hats(aggregate: ForestAggregate, ratios: tuple) -> np.ndarray:
    """:func:`gmlss_pi_hat_rows` on a forest's own totals (one row)."""
    return gmlss_pi_hat_rows(
        [aggregate.landings], [aggregate.skips], [aggregate.crossings],
        [aggregate.hits], aggregate.n_roots, ratios)[0]


def gmlss_pi_hats(aggregate: ForestAggregate, ratios: tuple) -> list:
    """The per-level advancement estimates ``[pi_hat_1, ..., pi_hat_m]``.

    Levels that no path ever crossed report 0.0 advancement.  Also used
    by the greedy plan search, which bisects the level with the smallest
    advancement probability.
    """
    return _pi_hats(aggregate, ratios).tolist()


def gmlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """All boundary-crossing probabilities from one set of counters.

    The g-MLSS product (Eq. 8) factorizes over boundaries, so its
    *prefixes* are themselves unbiased estimates: the ``i``-th prefix
    estimates ``Pr[cross beta_{i+1}]`` (reach a value-function score of
    at least ``beta_{i+1}`` within the horizon), and the last entry —
    the full product — is the target probability.  Returns a list of
    length ``m``: ``[Pr[cross beta_1], ..., Pr[cross beta_{m-1}],
    Pr[hit target]]``.  This is what lets one splitting forest answer a
    whole threshold grid whose normalized thresholds sit on the
    partition boundaries.
    """
    return np.cumprod(_pi_hats(aggregate, ratios)).tolist()


def gmlss_point_estimate(aggregate: ForestAggregate, ratios: tuple) -> float:
    """The g-MLSS estimate (Eq. 9-10): the last prefix."""
    return gmlss_prefix_estimates(aggregate, ratios)[-1]


def _trace_point(aggregate: ForestAggregate, prefixes, variances,
                 started: float) -> TracePoint:
    """The top curve level of a pass as a convergence snapshot."""
    return TracePoint(
        steps=aggregate.steps, elapsed_seconds=time.perf_counter() - started,
        probability=prefixes[-1], variance=float(variances[-1]),
        n_roots=aggregate.n_roots, hits=aggregate.hits)


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
    (:class:`~repro.core.pool.PooledForestRunner`, one member only).
    Both runners expose the same ``accumulate(aggregates, sizes, ...)``
    interface, so the round loop is parallelism-agnostic past this
    point; pooled runners additionally expose ``close()``, which the
    loop calls when a run finishes.
    """
    if pool is not None:
        from .pool import DEFAULT_ROOTS_PER_TASK, PooledForestRunner
        return PooledForestRunner(
            pool, query, partition, ratios, seed,
            roots_per_task=roots_per_task or DEFAULT_ROOTS_PER_TASK)
    return VectorizedForestRunner(query, partition, ratios,
                                  np.random.default_rng(seed))


class GMLSSSampler:
    """Batched g-MLSS with bootstrap variance and conservative checks,
    and the one MLSS round loop (:class:`~repro.core.smlss.SMLSSSampler`
    narrows the constructor and overrides only the methods below
    :meth:`_level_estimates`; fused g-MLSS fleets run the loop over
    their members with these same options).

    Parameters
    ----------
    partition:
        The level partition plan ``B``.
    ratio:
        Fixed splitting ratio or per-level ratios (g-MLSS supports a
        dynamic ratio, Section 4.1).
    batch_roots:
        The round granularity: every round grows a whole number of
        cohorts of ``batch_roots`` root trees, so a check falls at the
        first multiple of ``batch_roots`` at or past its scheduled root
        count.
    bootstrap_rounds:
        Bootstrap resamples per variance evaluation (paper's ``N``).
    first_check_roots / check_growth:
        The stopping rule is evaluated when ``n_roots`` first reaches
        ``first_check_roots`` and then every time it grows by
        ``check_growth`` — the "conservative bootstrapping" policy.
    record_trace:
        Record convergence snapshots in ``details["trace"]``, one per
        check; the last one is the answer.
    pool / roots_per_task:
        With a :class:`~repro.core.pool.WorkerPool`, root trees shard
        over its workers in fixed-size tasks, rounds pipelined
        (results are invariant under the worker count; see
        :mod:`repro.core.pool`).
    """

    method_name = "gmlss"

    def __init__(self, partition: LevelPartition, ratio=3,
                 batch_roots: int = 100, bootstrap_rounds: int = 200,
                 first_check_roots: int = 200, check_growth: float = 1.5,
                 record_trace: bool = False,
                 pool=None, roots_per_task: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        if bootstrap_rounds < 2:
            raise ValueError(
                f"bootstrap_rounds must be >= 2, got {bootstrap_rounds}"
            )
        if check_growth <= 1.0:
            raise ValueError(
                f"check_growth must be > 1, got {check_growth}"
            )
        self.partition = partition
        self.ratios = normalize_ratios(ratio, partition.num_levels)
        self.batch_roots = batch_roots
        self.bootstrap_rounds = bootstrap_rounds
        self.first_check_roots = first_check_roots
        self.check_growth = check_growth
        self.record_trace = record_trace
        self.pool = pool
        self.roots_per_task = roots_per_task

    def _make_runner(self, query: DurabilityQuery, seed):
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
        byte.  ``details`` carries the level counters and the
        estimator's own facts (:meth:`_estimator_details`).
        """
        prepare_curve_grid(self.partition.boundaries + (1.0,), None,
                           quality, max_steps, max_roots)
        trace = [] if self.record_trace else None
        started = time.perf_counter()
        (aggregate,), (variances,), eval_seconds, (evals,) = self._pass(
            query, (self.partition.num_levels - 1,), quality, max_steps,
            max_roots, seed, trace)
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            **self._estimator_details(aggregate, eval_seconds, evals,
                                      point=True),
        }
        if trace is not None:
            details["trace"] = trace
        estimate = self._level_estimates(
            aggregate, variances, time.perf_counter() - started)[-1]
        estimate.details = details
        return estimate

    def run_curve(self, query: DurabilityQuery,
                  thresholds: Optional[Sequence[float]] = None,
                  quality: Optional[QualityTarget] = None,
                  max_steps: Optional[int] = None,
                  max_roots: Optional[int] = None,
                  seed: Optional[int] = None) -> DurabilityCurve:
        """Answer the partition's whole boundary grid from one forest.

        The curve levels are the sampler's interior boundaries plus the
        target: one splitting forest yields ``Pr[cross beta_i]`` for
        every boundary simultaneously via the prefixes of the fold
        (for g-MLSS the prefix products of Eq. 8, see
        :func:`gmlss_prefix_estimates`), with per-level variances from
        the same evaluation as :meth:`run`.  To answer a grid of raw
        thresholds, build the partition from the normalized grid and
        rebase the query onto the largest threshold (the engine's
        ``durability_curve`` does exactly that).

        ``quality`` must hold at every level before the run stops early;
        budgets behave as in :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        started = time.perf_counter()
        (aggregate,), (variances,), eval_seconds, (evals,) = self._pass(
            query, range(len(levels)), quality, max_steps, max_roots, seed,
            None)
        elapsed = time.perf_counter() - started
        return DurabilityCurve(
            thresholds=thresholds, levels=levels,
            estimates=self._level_estimates(aggregate, variances, elapsed),
            method=self.method_name, n_roots=aggregate.n_roots,
            steps=aggregate.steps, elapsed_seconds=elapsed,
            details={
                "partition": self.partition,
                "ratios": self.ratios[1:],
                "level_reach": aggregate.level_reach_counts(),
                **self._estimator_details(aggregate, eval_seconds, evals,
                                          point=False),
            },
        )

    def _pass(self, query, gated, quality, max_steps, max_roots, seed,
              trace, members: int = 1, adaptive: bool = False):
        """The one MLSS round loop, behind :meth:`run`,
        :meth:`run_curve` and every fused g-MLSS fleet
        (:func:`~repro.core.fleet.screen_fleet_mlss`).

        Grows one forest per member (more than one only for a fleet,
        whose ``query`` steps a :class:`~repro.processes.base.
        FusedBatch`), every round one cohort of the riding members'
        trees, until each member's budget runs out or, at one of its
        checks (scheduled by :meth:`_next_check` on its own root count),
        ``quality`` holds at every curve level index in ``gated``.  The
        round that exhausts a member's budget is not checked.

        Rounds grow whole cohorts of ``batch_roots`` trees.  Without
        ``adaptive`` every member rides until all of them meet the
        target at once, each round running straight to the member's
        next check (:meth:`_round_roots`), at most
        ``DEFAULT_MAX_ROUND_ROOTS`` trees over the riding members (but
        ``batch_roots`` each): the checks fall where ``batch_roots``
        rounds would put them, at a fraction of the rounds.  With
        ``adaptive`` a member that meets the target stops riding, and
        one that misses it grows its next rounds toward the target's
        projection (:func:`~repro.core.srs.grow_round`).

        Each check evaluates every prefix's variance once; with a
        ``trace`` list (one member), it appends one :class:`TracePoint`
        of the top level.  Without ``adaptive``, once a due member
        misses the target the round's later due members are not
        evaluated (nobody would read them) but their schedules advance.
        A member's variances come from its last check when its forest
        has not grown since, and from one more evaluation otherwise,
        which also ends the trace at the answer.
        Evaluation ``e`` of member ``j`` gets the seed ``base_j + e``,
        where ``base_j`` is the ``j``-th draw of ``random.Random(seed)``,
        so member 0 draws the seeds of a single answer.  Returns
        ``(aggregates, variances, variance seconds, evaluations)``, one
        entry per member but for the seconds.
        """
        draws = random.Random(seed)
        bases = [draws.randrange(2 ** 31) for _ in range(members)]
        runner = self._make_runner(query, seed)
        m = self.partition.num_levels
        aggregates = [ForestAggregate(m) for _ in range(members)]
        variances = [np.zeros(m)] * members
        evals = [0] * members
        checked = [0] * members  # each member's roots at its last check
        sizes = [self.batch_roots] * members
        next_check = [self._next_check(quality, trace, None)] * members
        exhausted = [False] * members
        met = [False] * members
        eval_seconds = 0.0
        started = time.perf_counter()

        def evaluate(member):
            nonlocal eval_seconds
            aggregate = aggregates[member]
            eval_started = time.perf_counter()
            variances[member] = self._variances(
                aggregate, bases[member] + evals[member])
            eval_seconds += time.perf_counter() - eval_started
            evals[member] += 1
            checked[member] = aggregate.n_roots

        try:
            while not all(out or ok for out, ok in zip(exhausted, met)):
                riding = [not (out or (adaptive and ok))
                          for out, ok in zip(exhausted, met)]
                if not adaptive:
                    most = DEFAULT_MAX_ROUND_ROOTS // (self.batch_roots
                                                       * sum(riding))
                    sizes = [self._round_roots(aggregate, due, max_steps, most)
                             for aggregate, due in zip(aggregates, next_check)]
                spent = runner.accumulate(
                    aggregates,
                    [size if ride else 0 for size, ride in zip(sizes, riding)],
                    max_steps=max_steps, max_roots=max_roots)
                missed = False
                for member, aggregate in enumerate(aggregates):
                    if not riding[member]:
                        continue
                    met[member] = False
                    exhausted[member] = spent[member]
                    if spent[member] or aggregate.n_roots < next_check[member]:
                        continue
                    next_check[member] = self._next_check(
                        quality, trace, next_check[member])
                    if missed and not adaptive:
                        continue
                    prefixes = self._prefixes(aggregate)
                    evaluate(member)
                    checked_variances = variances[member]
                    if trace is not None:
                        trace.append(_trace_point(aggregate, prefixes,
                                                  checked_variances,
                                                  started))
                    met[member] = quality is not None and all(
                        quality.is_met(prefixes[i], checked_variances[i],
                                       self._level_hits(aggregate, i),
                                       aggregate.n_roots)
                        for i in gated)
                    missed = missed or not met[member]
                    if adaptive and not met[member]:
                        sizes[member] = grow_round(
                            quality.projected_roots(
                                prefixes[-1], aggregate.hits,
                                aggregate.n_roots,
                                variance=float(checked_variances[-1])),
                            aggregate.n_roots, sizes[member],
                            self.batch_roots)
        finally:
            close = getattr(runner, "close", None)
            if close is not None:
                close()

        for member, aggregate in enumerate(aggregates):
            if checked[member] == aggregate.n_roots:
                continue
            if aggregate.n_roots > 1:
                evaluate(member)
            if trace is not None:
                trace.append(_trace_point(aggregate, self._prefixes(aggregate),
                                          variances[member], started))
        return aggregates, variances, eval_seconds, evals

    def _round_roots(self, aggregate: ForestAggregate, next_check,
                     max_steps: Optional[int], most: int) -> int:
        """A uniform round's trees for one member: whole cohorts of
        ``batch_roots`` up to its check at ``next_check`` roots, at most
        ``most`` of them, and under ``max_steps`` no more than
        :meth:`~repro.core.records.ForestAggregate.roots_funded`
        rounded up to whole cohorts.  Always one cohort at least (so
        one before any step was measured), and exactly one with no
        check ahead."""
        batch = self.batch_roots
        if next_check == math.inf:
            return batch
        cohorts = min(math.ceil((next_check - aggregate.n_roots) / batch),
                      most)
        if max_steps is not None:
            funded = aggregate.roots_funded(max_steps, math.inf)
            cohorts = min(cohorts, math.ceil(funded / batch))
        return max(cohorts, 1) * batch

    def _level_estimates(self, aggregate: ForestAggregate, variances,
                         elapsed: float) -> tuple:
        """One :class:`DurabilityEstimate` per curve level of a pass;
        the last one is the point answer."""
        prefixes = self._prefixes(aggregate)
        return tuple(
            DurabilityEstimate(
                probability=prefixes[i], variance=float(variances[i]),
                n_roots=aggregate.n_roots,
                hits=self._level_hits(aggregate, i),
                steps=aggregate.steps, method=self.method_name,
                elapsed_seconds=elapsed, details={"shared_pass": True},
            )
            for i in range(aggregate.num_levels))

    # --- what the estimators differ in -------------------------------

    def _prefixes(self, aggregate: ForestAggregate) -> list:
        """Every curve level's estimate: Eq. 9's prefix products."""
        return gmlss_prefix_estimates(aggregate, self.ratios)

    def _variances(self, aggregate: ForestAggregate, seed: int):
        """Every curve level's variance: the Section 4.2 bootstrap."""
        # Called through this module's binding, which benchmarks
        # rebind to time the bootstrap.
        return bootstrap_variance(aggregate, self.ratios,
                                  n_boot=self.bootstrap_rounds, seed=seed)

    def _next_check(self, quality: Optional[QualityTarget], trace,
                    previous: Optional[int]) -> float:
        """The root count of the check after the one at ``previous``
        (``None`` before the first): against a quality target only, at
        ``first_check_roots`` and then every ``check_growth``-fold."""
        if quality is None:
            return math.inf
        if previous is None:
            return self.first_check_roots
        return max(previous + 1, math.ceil(previous * self.check_growth))

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level.

        Interior boundaries count the paths observed crossing them
        (landings plus skips); the last level counts target hits.
        """
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return (aggregate.landings[index + 1] + aggregate.skips[index + 1])

    def _estimator_details(self, aggregate: ForestAggregate,
                           eval_seconds: float, evals: int,
                           point: bool) -> dict:
        """The ``details`` facts only this estimator reports: the
        advancement estimates (point answers only) and the bootstrap's
        cost."""
        facts = {"pi_hats": gmlss_pi_hats(aggregate, self.ratios),
                 "bootstrap_seconds": eval_seconds} if point else {}
        return dict(facts, bootstrap_evals=evals)
