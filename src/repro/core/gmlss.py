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

The estimator is unbiased in general (Proposition 2).  Its variance has
no closed form, so :class:`GMLSSSampler` estimates it by bootstrapping
the per-root records (Section 4.2); the bootstrap is evaluated on a
conservative geometric schedule, following the paper's rule of thumb
that "sometimes overrunning the simulation a little" beats frequent
bootstrapping.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

import numpy as np

from .bootstrap import bootstrap_curve_variances, bootstrap_variance
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .levels import LevelPartition, normalize_ratios
from .quality import QualityTarget
from .records import ForestAggregate
from .smlss import close_runner, make_forest_runner
from .srs import prepare_curve_grid
from .value_functions import DurabilityQuery


def gmlss_estimate_from_totals(landings: Sequence[float],
                               skips: Sequence[float],
                               crossings: Sequence[float],
                               hits: float, n_roots: float,
                               ratios: tuple) -> float:
    """Fold aggregated counters into the g-MLSS estimate (Eq. 9-10).

    Accepts any indexables of per-level totals (length ``m``, index 0
    unused), so the bootstrap can reuse it on resampled sums.
    """
    m = len(landings)
    if n_roots <= 0:
        return 0.0
    if m == 1:
        # No interior boundaries: g-MLSS degenerates to SRS.
        return hits / n_roots
    estimate = (landings[1] + skips[1]) / n_roots
    if estimate == 0.0:
        return 0.0
    for i in range(1, m):
        denominator = landings[i] + skips[i]
        if denominator == 0:
            return 0.0
        numerator = crossings[i] / ratios[i] + skips[i]
        estimate *= numerator / denominator
    return estimate


def gmlss_point_estimate(aggregate: ForestAggregate, ratios: tuple) -> float:
    """The g-MLSS estimate from a forest aggregate."""
    return gmlss_estimate_from_totals(
        aggregate.landings, aggregate.skips, aggregate.crossings,
        aggregate.hits, aggregate.n_roots, ratios)


def gmlss_prefix_estimates_from_totals(landings, skips, crossings,
                                       hits: float, n_roots: float,
                                       ratios: tuple) -> list:
    """All boundary-crossing probabilities from one set of counters.

    The g-MLSS product (Eq. 8) factorizes over boundaries, so its
    *prefixes* are themselves unbiased estimates: the ``i``-th prefix
    estimates ``Pr[cross beta_{i+1}]`` (reach a value-function score of
    at least ``beta_{i+1}`` within the horizon), and the last entry —
    the full product — is the target probability.  Returns a list of
    length ``m = len(landings)``: ``[Pr[cross beta_1], ...,
    Pr[cross beta_{m-1}], Pr[hit target]]``.  This is what lets one
    splitting forest answer a whole threshold grid whose normalized
    thresholds sit on the partition boundaries.
    """
    m = len(landings)
    prefixes = [0.0] * m
    if n_roots <= 0:
        return prefixes
    if m == 1:
        prefixes[0] = hits / n_roots
        return prefixes
    estimate = (landings[1] + skips[1]) / n_roots
    prefixes[0] = estimate
    for i in range(1, m):
        if estimate == 0.0:
            break
        denominator = landings[i] + skips[i]
        if denominator == 0:
            break
        estimate *= (crossings[i] / ratios[i] + skips[i]) / denominator
        prefixes[i] = estimate
    return prefixes


def gmlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Boundary-crossing probabilities from a forest aggregate."""
    return gmlss_prefix_estimates_from_totals(
        aggregate.landings, aggregate.skips, aggregate.crossings,
        aggregate.hits, aggregate.n_roots, ratios)


def _row_factors(landings: np.ndarray, skips: np.ndarray,
                 crossings: np.ndarray, ratios: tuple) -> np.ndarray:
    """Per-level advancement factors for many counter rows at once.

    ``landings``/``skips``/``crossings`` have shape ``(B, m)`` — one
    row per bootstrap replicate.  Returns the ``(B, m - 1)`` factors of
    the Eq. 9 product for levels ``1 .. m-1``; a zero denominator
    yields a zero factor, which zeroes the running product exactly as
    the scalar fold's early return does.
    """
    denominators = landings[:, 1:] + skips[:, 1:]
    numerators = (crossings[:, 1:] / np.asarray(ratios[1:], dtype=np.float64)
                  + skips[:, 1:])
    return np.divide(numerators, denominators,
                     out=np.zeros_like(numerators),
                     where=denominators > 0)


def gmlss_estimates_from_total_rows(landings, skips, crossings, hits,
                                    n_roots: float, ratios: tuple
                                    ) -> np.ndarray:
    """Vectorized :func:`gmlss_estimate_from_totals` over counter rows.

    Every argument carries a leading replicate axis (``(B, m)`` level
    matrices, ``(B,)`` hits); the whole bootstrap evaluates as one
    gather + fold instead of a Python loop per replicate.  Returns the
    ``(B,)`` estimates — numerically equal to folding each row through
    the scalar function up to floating-point association (the scalar
    fold multiplies factors left-to-right; this one takes ``first *
    prod(factors)``, which can differ in the last ulp).
    """
    landings = np.asarray(landings, dtype=np.float64)
    hits = np.asarray(hits, dtype=np.float64)
    if n_roots <= 0:
        return np.zeros(len(landings), dtype=np.float64)
    if landings.shape[1] == 1:
        return hits / n_roots
    skips = np.asarray(skips, dtype=np.float64)
    first = (landings[:, 1] + skips[:, 1]) / n_roots
    factors = _row_factors(landings, skips,
                           np.asarray(crossings, dtype=np.float64), ratios)
    return first * factors.prod(axis=1)


def gmlss_prefix_estimates_from_total_rows(landings, skips, crossings,
                                           hits, n_roots: float,
                                           ratios: tuple) -> np.ndarray:
    """Vectorized :func:`gmlss_prefix_estimates_from_totals` over rows.

    Returns a ``(B, m)`` matrix of prefix products — all boundary-
    crossing estimates for all replicates — from one cumulative
    product.  Zero factors propagate forward exactly like the scalar
    fold's early ``break``.
    """
    landings = np.asarray(landings, dtype=np.float64)
    hits = np.asarray(hits, dtype=np.float64)
    n_rows, m = landings.shape
    if n_roots <= 0:
        return np.zeros((n_rows, m), dtype=np.float64)
    if m == 1:
        return (hits / n_roots)[:, None]
    skips = np.asarray(skips, dtype=np.float64)
    first = (landings[:, 1] + skips[:, 1]) / n_roots
    factors = _row_factors(landings, skips,
                           np.asarray(crossings, dtype=np.float64), ratios)
    prefixes = np.empty((n_rows, m), dtype=np.float64)
    prefixes[:, 0] = first
    prefixes[:, 1:] = first[:, None] * np.cumprod(factors, axis=1)
    return prefixes


def gmlss_pi_hats(aggregate: ForestAggregate, ratios: tuple) -> list:
    """The per-level advancement estimates ``[pi_hat_1, ..., pi_hat_m]``.

    Levels that no path ever crossed report 0.0 advancement.  Also used
    by the greedy plan search, which bisects the level with the smallest
    advancement probability.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    if m == 1:
        return [aggregate.hits / n0 if n0 else 0.0]
    pis = []
    first = (aggregate.landings[1] + aggregate.skips[1]) / n0 if n0 else 0.0
    pis.append(first)
    for i in range(1, m):
        denominator = aggregate.landings[i] + aggregate.skips[i]
        if denominator == 0:
            pis.append(0.0)
            continue
        numerator = aggregate.crossings[i] / ratios[i] + aggregate.skips[i]
        pis.append(numerator / denominator)
    return pis


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
    pool / roots_per_task / tasks_per_round:
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
                 pool=None, roots_per_task: Optional[int] = None,
                 tasks_per_round: Optional[int] = None):
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
        self.tasks_per_round = tasks_per_round

    def _make_runner(self, query: DurabilityQuery, seed):
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
        boot_seed = random.Random(seed).randrange(2 ** 31)
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        trace = []
        bootstrap_seconds = 0.0
        bootstrap_evals = 0
        next_check = self.first_check_roots
        variance = 0.0
        variance_fresh = False
        started = time.perf_counter()

        def evaluate_bootstrap() -> float:
            nonlocal bootstrap_seconds, bootstrap_evals
            boot_started = time.perf_counter()
            result = bootstrap_variance(
                aggregate, self.ratios, n_boot=self.bootstrap_rounds,
                seed=boot_seed + bootstrap_evals)
            bootstrap_seconds += time.perf_counter() - boot_started
            bootstrap_evals += 1
            return result.variance

        try:
            done = False
            while not done:
                roots_before = aggregate.n_roots
                done = runner.accumulate(aggregate, self.batch_roots,
                                         max_steps=max_steps,
                                         max_roots=max_roots)
                if aggregate.n_roots > roots_before:
                    variance_fresh = False
                if aggregate.n_roots == 0:
                    break
                if done:
                    break
                if quality is not None and aggregate.n_roots >= next_check:
                    probability = gmlss_point_estimate(aggregate,
                                                       self.ratios)
                    variance = evaluate_bootstrap()
                    variance_fresh = True
                    if self.record_trace:
                        trace.append(TracePoint(
                            steps=aggregate.steps,
                            elapsed_seconds=time.perf_counter() - started,
                            probability=probability, variance=variance,
                            n_roots=aggregate.n_roots, hits=aggregate.hits,
                        ))
                    if quality.is_met(probability, variance,
                                      aggregate.hits, aggregate.n_roots):
                        break
                    next_check = max(
                        next_check + 1,
                        math.ceil(next_check * self.check_growth))
        finally:
            close_runner(runner)

        probability = gmlss_point_estimate(aggregate, self.ratios)
        if not variance_fresh and aggregate.n_roots > 1:
            variance = evaluate_bootstrap()
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            "pi_hats": gmlss_pi_hats(aggregate, self.ratios),
            "bootstrap_seconds": bootstrap_seconds,
            "bootstrap_evals": bootstrap_evals,
        }
        if self.record_trace:
            details["trace"] = trace
        return DurabilityEstimate(
            probability=probability, variance=variance,
            n_roots=aggregate.n_roots, hits=aggregate.hits,
            steps=aggregate.steps, method=self.method_name,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level.

        Interior boundaries count the paths observed crossing them
        (landings plus skips); the last level counts target hits.
        """
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return (aggregate.landings[index + 1] + aggregate.skips[index + 1])

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
        per-level variances from a single shared bootstrap pass.  To
        answer a grid of raw thresholds, build the partition from the
        normalized grid and rebase the query onto the largest threshold
        (the engine's ``durability_curve`` does exactly that).

        ``quality`` must hold at every level before the run stops early;
        budgets behave as in :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        boot_seed = random.Random(seed).randrange(2 ** 31)
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        bootstrap_evals = 0
        next_check = self.first_check_roots
        variances = None
        variances_fresh = False
        started = time.perf_counter()

        def evaluate_bootstrap():
            nonlocal bootstrap_evals
            result = bootstrap_curve_variances(
                aggregate, self.ratios, n_boot=self.bootstrap_rounds,
                seed=boot_seed + bootstrap_evals)
            bootstrap_evals += 1
            return result

        try:
            done = False
            while not done:
                roots_before = aggregate.n_roots
                done = runner.accumulate(aggregate, self.batch_roots,
                                         max_steps=max_steps,
                                         max_roots=max_roots)
                if aggregate.n_roots > roots_before:
                    variances_fresh = False
                if aggregate.n_roots == 0 or done:
                    break
                if quality is not None and aggregate.n_roots >= next_check:
                    prefixes = gmlss_prefix_estimates(aggregate,
                                                      self.ratios)
                    variances = evaluate_bootstrap()
                    variances_fresh = True
                    if all(quality.is_met(prefixes[i], variances[i],
                                          self._level_hits(aggregate, i),
                                          aggregate.n_roots)
                           for i in range(len(levels))):
                        break
                    next_check = max(
                        next_check + 1,
                        math.ceil(next_check * self.check_growth))
        finally:
            close_runner(runner)

        prefixes = gmlss_prefix_estimates(aggregate, self.ratios)
        if not variances_fresh and aggregate.n_roots > 1:
            variances = evaluate_bootstrap()
        if variances is None:
            variances = [0.0] * len(levels)
        elapsed = time.perf_counter() - started
        estimates = tuple(
            DurabilityEstimate(
                probability=prefixes[i], variance=float(variances[i]),
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
                "bootstrap_evals": bootstrap_evals,
            },
        )
