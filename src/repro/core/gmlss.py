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

There is one pass and one fold.  :func:`gmlss_pi_hat_rows` computes
Eq. 9 over counter-total rows; the running product of a row is the
prefix curve (:func:`gmlss_prefix_estimates`), and the point estimate
is its last entry.  The bootstrap refolds every replicate through the
same function, so one resampling pass gives every prefix's variance.
:meth:`GMLSSSampler.run` and :meth:`GMLSSSampler.run_curve` share one
round loop that differs only in which levels gate the quality target:
the point answer is the curve's top level.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

import numpy as np

from .bootstrap import bootstrap_variance
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .levels import LevelPartition, normalize_ratios
from .quality import QualityTarget
from .records import ForestAggregate
from .smlss import close_runner, level_estimates, make_forest_runner
from .srs import prepare_curve_grid
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


class GMLSSSampler:
    """Batched g-MLSS with bootstrap variance and conservative checks.

    Parameters
    ----------
    partition:
        The level partition plan ``B``.
    ratio:
        Fixed splitting ratio or per-level ratios (g-MLSS supports a
        dynamic ratio, Section 4.1).
    batch_roots:
        Root trees between budget checks.
    bootstrap_rounds:
        Bootstrap resamples per variance evaluation (paper's ``N``).
    first_check_roots / check_growth:
        The stopping rule is evaluated when ``n_roots`` first reaches
        ``first_check_roots`` and then every time it grows by
        ``check_growth`` — the "conservative bootstrapping" policy.
    record_trace:
        Record convergence snapshots (taken at bootstrap evaluations).
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
        byte.  ``details`` carries the level counters, the advancement
        estimates and the bootstrap's cost.
        """
        prepare_curve_grid(self.partition.boundaries + (1.0,), None,
                           quality, max_steps, max_roots)
        trace = [] if self.record_trace else None
        started = time.perf_counter()
        aggregate, variances, boot_seconds, boot_evals = self._pass(
            query, (self.partition.num_levels - 1,), quality, max_steps,
            max_roots, seed, trace)
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            "pi_hats": gmlss_pi_hats(aggregate, self.ratios),
            "bootstrap_seconds": boot_seconds,
            "bootstrap_evals": boot_evals,
        }
        if trace is not None:
            details["trace"] = trace
        estimate = level_estimates(
            self, aggregate, gmlss_prefix_estimates(aggregate, self.ratios),
            variances, time.perf_counter() - started)[-1]
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
        every boundary simultaneously via the prefix products of the
        g-MLSS decomposition (see :func:`gmlss_prefix_estimates`), with
        per-level variances from the same bootstrap as :meth:`run`.  To
        answer a grid of raw thresholds, build the partition from the
        normalized grid and rebase the query onto the largest threshold
        (the engine's ``durability_curve`` does exactly that).

        ``quality`` must hold at every level before the run stops early;
        budgets behave as in :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        started = time.perf_counter()
        aggregate, variances, _, boot_evals = self._pass(
            query, range(len(levels)), quality, max_steps, max_roots, seed,
            None)
        elapsed = time.perf_counter() - started
        return DurabilityCurve(
            thresholds=thresholds, levels=levels,
            estimates=level_estimates(
                self, aggregate,
                gmlss_prefix_estimates(aggregate, self.ratios), variances,
                elapsed),
            method=self.method_name, n_roots=aggregate.n_roots,
            steps=aggregate.steps, elapsed_seconds=elapsed,
            details={
                "partition": self.partition,
                "ratios": self.ratios[1:],
                "level_reach": aggregate.level_reach_counts(),
                "bootstrap_evals": boot_evals,
            },
        )

    def _pass(self, query: DurabilityQuery, gated, quality, max_steps,
              max_roots, seed, trace):
        """The one g-MLSS round loop behind :meth:`run` and
        :meth:`run_curve`.

        Grows the forest ``batch_roots`` trees at a time until a budget
        runs out or, at a check on the conservative schedule, ``quality``
        holds at every curve level index in ``gated``.  Each check
        bootstraps every prefix once; with a ``trace`` list, it appends
        one :class:`TracePoint` of the top level.  Returns ``(aggregate,
        prefix variances, bootstrap seconds, bootstrap evaluations)``;
        the variances come from the last check when the forest has not
        grown since, and from one more bootstrap otherwise.
        """
        boot_seed = random.Random(seed).randrange(2 ** 31)
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        boot_seconds = 0.0
        boot_evals = 0
        booted_roots = 0
        variances = np.zeros(self.partition.num_levels)
        next_check = self.first_check_roots
        started = time.perf_counter()

        def evaluate_bootstrap():
            nonlocal boot_seconds, boot_evals, booted_roots
            boot_started = time.perf_counter()
            # Called through this module's binding, which benchmarks
            # rebind to time the bootstrap.
            result = bootstrap_variance(
                aggregate, self.ratios, n_boot=self.bootstrap_rounds,
                seed=boot_seed + boot_evals)
            boot_seconds += time.perf_counter() - boot_started
            boot_evals += 1
            booted_roots = aggregate.n_roots
            return result

        try:
            while not runner.accumulate(aggregate, self.batch_roots,
                                        max_steps=max_steps,
                                        max_roots=max_roots):
                if aggregate.n_roots == 0:
                    break
                if quality is None or aggregate.n_roots < next_check:
                    continue
                prefixes = gmlss_prefix_estimates(aggregate, self.ratios)
                variances = evaluate_bootstrap()
                if trace is not None:
                    trace.append(TracePoint(
                        steps=aggregate.steps,
                        elapsed_seconds=time.perf_counter() - started,
                        probability=prefixes[-1],
                        variance=float(variances[-1]),
                        n_roots=aggregate.n_roots, hits=aggregate.hits,
                    ))
                if all(quality.is_met(prefixes[i], variances[i],
                                      self._level_hits(aggregate, i),
                                      aggregate.n_roots)
                       for i in gated):
                    break
                next_check = max(next_check + 1,
                                 math.ceil(next_check * self.check_growth))
        finally:
            close_runner(runner)

        if booted_roots != aggregate.n_roots and aggregate.n_roots > 1:
            variances = evaluate_bootstrap()
        return aggregate, variances, boot_seconds, boot_evals

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level.

        Interior boundaries count the paths observed crossing them
        (landings plus skips); the last level counts target hits.
        """
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return (aggregate.landings[index + 1] + aggregate.skips[index + 1])
