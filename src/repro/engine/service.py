"""The stateful query-answering service: :class:`DurabilityEngine`.

Answering one query is plan search, simulation, estimate.  The engine
runs that pipeline and amortizes work across queries, which is what
the paper's headline scenarios (ranking durable stocks, screening
server fleets against SLA thresholds, charting ``Pr[hit <= horizon]``
against a threshold grid) actually need:

* :meth:`DurabilityEngine.answer` — one query, with level plans
  memoized in a :class:`~repro.engine.cache.PlanCache` so repeated
  query shapes skip the greedy search entirely;
* :meth:`DurabilityEngine.answer_batch` — many queries; compatible ones
  (same horizon and state evaluation, different thresholds) are grouped
  into *cohorts* that share a single simulation pass.  Grouping is
  **structural**: queries over the same process object share a curve
  pass, and queries over *different processes of one fusible family*
  (a fleet with per-entity parameters) share a fused SRS screening
  pass — the whole fleet advances as one
  :class:`~repro.processes.base.FusedBatch` frontier, one
  ``step_batch`` per time step (see
  :func:`repro.core.fleet.screen_fleet`).  The rest run individually
  (with plan caching).  Cost accounting is unchanged throughout: a
  shared or fused pass still counts one invocation of ``g`` per live
  path per time step, attributed to the entity that owns the path;
* :meth:`DurabilityEngine.durability_curve` — an entire threshold grid
  from **one** pass: running path maxima under SRS, per-level root
  counters (prefix products of Eq. 8) under MLSS — a measured order of
  magnitude cheaper than one run per threshold at the same
  per-threshold accuracy (see ``benchmarks/bench_engine_api.py``).

"What to ask" stays in :class:`~repro.core.value_functions.
DurabilityQuery`; "how to run it" lives in an immutable, serializable
:class:`~repro.engine.policy.ExecutionPolicy` that the engine holds as
a default and accepts per call (plus keyword overrides)::

    engine = DurabilityEngine(ExecutionPolicy(max_steps=500_000, seed=7))
    estimate = engine.answer(query)                       # default policy
    fast = engine.answer(query, max_steps=50_000)         # override
    curve = engine.durability_curve(query, thresholds=range(10, 26))
    answers = engine.answer_batch(queries)                # cohorts + cache
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import Optional, Sequence

from ..core.balanced import balanced_growth_partition
from ..core.estimates import DurabilityCurve, DurabilityEstimate
from ..core.fleet import (FleetThresholdValue, cluster_members_by_initial,
                          screen_fleet, screen_fleet_curves,
                          screen_fleet_mlss)
from ..core.forest import LevelPlanError
from ..core.gmlss import GMLSSSampler
from ..core.greedy import adaptive_greedy_partition
from ..core.levels import LevelPartition, uniform_partition
from ..core.pool import WorkerPool
from ..core.smlss import SMLSSSampler
from ..core.srs import SRSSampler
from ..core.value_functions import (DurabilityQuery, ThresholdValueFunction,
                                    threshold_grid)
from ..processes.base import FusedBatch, StochasticProcess
from .cache import PlanCache, _callable_identity, grid_plan_kind
from .policy import ExecutionPolicy

#: The ``sampler_options`` keys each sampler class takes (see
#: :data:`repro.engine.policy.SAMPLER_OPTIONS`).  Fused g-MLSS fleets
#: read the g-MLSS keys plus ``adaptive`` and ``cluster_tolerance``;
#: fused SRS fleets and fleet curves read ``batch_roots``.
_SAMPLER_OPTION_KEYS = {
    SRSSampler: ("batch_roots",),
    SMLSSSampler: ("batch_roots",),
    GMLSSSampler: ("batch_roots", "bootstrap_rounds", "first_check_roots",
                   "check_growth"),
}


def _sampler_options(policy: ExecutionPolicy, keys) -> dict:
    """The policy's ``sampler_options`` restricted to ``keys``."""
    options = policy.sampler_options or {}
    return {key: options[key] for key in keys if key in options}


class UnservableGridError(ValueError):
    """A threshold grid the MLSS curve pass cannot serve.

    Raised when a normalized grid level does not exceed the initial
    state's value (splitting boundaries must); distinct from other
    ``ValueError``s so batch cohorting can fall back on exactly this
    case without masking real configuration errors.
    """


def plan_kind(num_levels: Optional[int], grid=None):
    """The :class:`PlanCache` kind a plan resolution files under.

    The single mapping from policy shape to cache kind — balanced
    pilots are per-level-count, greedy plans share one kind, and a
    read-out ``grid`` wraps either in a grid-shaped kind
    (:func:`~repro.engine.cache.grid_plan_kind`).  Shared by
    :func:`resolve_plan`, the engine's provenance introspection and
    the proactive warmer, so "which cache entry would this query use?"
    has exactly one answer.
    """
    base = "greedy" if num_levels is None else ("balanced", num_levels)
    return grid_plan_kind(base, grid) if grid else base


def resolve_plan(query: DurabilityQuery,
                 partition: Optional[LevelPartition],
                 num_levels: Optional[int],
                 ratio, trial_steps: int,
                 seed: Optional[int],
                 plan_cache: Optional[PlanCache] = None,
                 pool=None,
                 grid=None):
    """Choose the level plan: explicit > cached > balanced pilot > greedy.

    The single source of truth for plan precedence.  Returns
    ``(partition, search_details_or_None, cache_status_or_None,
    cache_origin_or_None)``; ``cache_status`` is ``"hit"``/``"miss"``
    when a plan cache participated, and ``cache_origin`` reports where
    a hit entry came from (``"search"``, ``"store"``, ``"warmed"`` —
    see :attr:`~repro.engine.cache.CachedPlan.origin`).  With ``pool``
    (a :class:`~repro.core.pool.WorkerPool`), pilot simulations
    (balanced-growth pilots and greedy candidate trials) shard over its
    workers and — because trial and pilot seeds are structural — return
    exactly the plan the parent-only search would.

    ``grid`` makes the resolution *curve-aware*: a strictly ascending
    tuple of normalized threshold levels that must appear verbatim in
    the plan (a ``durability_curve``'s read-out boundaries).  The
    balanced pilot distributes its remaining boundaries into the
    survival gaps between grid levels; the greedy search seeds its
    plan with the grid and only adds refinements that beat serving the
    grid as-is.  Curve-aware plans are cached under grid-shaped keys
    (:func:`~repro.engine.cache.grid_plan_kind`), so they never
    collide with point plans.
    """
    initial_value = query.initial_value()
    if partition is not None:
        return partition.pruned_above(initial_value), None, None, None
    grid = tuple(float(g) for g in grid) if grid else None
    hits_before = plan_cache.hits if plan_cache is not None else 0
    if num_levels is not None:
        plan = balanced_growth_partition(
            query, num_levels,
            pilot_paths=max(trial_steps // query.horizon, 200),
            seed=seed, plan_cache=plan_cache, pool=pool, grid=grid,
            cache_kind=(grid_plan_kind(("balanced", num_levels), grid)
                        if grid else None))
        search_details = None
    else:
        result = adaptive_greedy_partition(
            query, ratio=ratio, trial_steps=trial_steps, seed=seed,
            plan_cache=plan_cache, pool=pool, grid=grid,
            cache_kind=(grid_plan_kind("greedy", grid)
                        if grid else None))
        plan = result.partition
        search_details = {
            "search_steps": result.search_steps,
            "search_rounds": result.num_rounds,
            "pooled_estimate": result.pooled_estimate,
            "pooled_roots": result.pooled_roots,
            "partition": result.partition,
            "from_cache": result.from_cache,
        }
    cache_status = None
    cache_origin = None
    if plan_cache is not None:
        cache_status = "hit" if plan_cache.hits > hits_before else "miss"
        entry = plan_cache.peek(query, plan_kind(num_levels, grid))
        if entry is not None:
            cache_origin = entry.origin
    return plan, search_details, cache_status, cache_origin


class DurabilityEngine:
    """A stateful durability-prediction query service.

    **Concurrency:** one engine may be driven by many threads at once
    (the serving tier runs every request on an executor thread).  The
    shared mutable state is the :class:`PlanCache` (internally locked),
    and the lazily created :class:`WorkerPool` (thread-safe task
    streams; creation/teardown single-flighted under ``_pool_lock``,
    so concurrent first calls build exactly one pool and
    :meth:`close` is idempotent and safe against in-progress
    ``_get_pool`` calls).  Estimates themselves are per-call values —
    nothing is shared between two in-flight ``answer`` calls beyond
    those two structures.

    Parameters
    ----------
    policy:
        Default :class:`ExecutionPolicy` for all calls; every entry
        point also takes a per-call policy and/or keyword overrides.
    plan_cache:
        The :class:`PlanCache` that memoizes level plans across calls;
        a fresh bounded cache by default.  Pass a shared instance to
        pool plans across engines, or one built with ``store=`` (a
        :class:`~repro.db.plan_store.PlanStore`) to persist plans
        across restarts — answers resolved from a persisted plan
        report ``details["plan_source"] == "store"``.
    workload_log:
        Optional :class:`~repro.forecast.log.WorkloadLog` (any object
        with its ``record`` signature).  Every public entry point —
        :meth:`answer`, :meth:`answer_batch`, :meth:`durability_curve`,
        :meth:`durability_curves` — appends one arrival record per
        query answered, tagged with the measured plan-search cost, so
        forecasters can predict tomorrow's shapes and the
        :class:`~repro.forecast.warmer.PlanWarmer` can rank them.
        Nested internal calls (batch cohorts answering through
        ``durability_curve``) are not double-counted.
    """

    def __init__(self, policy: Optional[ExecutionPolicy] = None,
                 plan_cache: Optional[PlanCache] = None,
                 workload_log=None):
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.workload_log = workload_log
        self._pool: Optional[WorkerPool] = None
        self._pool_config = None
        # Engines may be driven from several threads (the same reason
        # PlanCache locks its LRU); pool creation/teardown must not
        # race or two pools could be built and one leak its workers.
        self._pool_lock = threading.Lock()
        # Re-entrancy guard for workload recording: answer_batch
        # cohorts answer through durability_curve / answer, but an
        # arrival must be logged once, at the entry point the caller
        # used.  Thread-local, because one engine serves many threads.
        self._recording = threading.local()

    # ------------------------------------------------------------------
    # Policy plumbing
    # ------------------------------------------------------------------

    def _resolve_policy(self, policy: Optional[ExecutionPolicy],
                        overrides: dict) -> ExecutionPolicy:
        base = policy if policy is not None else self.policy
        if overrides:
            base = base.replace(**overrides)
        return base.validate()

    def cache_stats(self) -> dict:
        """Plan-cache hit/miss counters (service observability)."""
        return self.plan_cache.stats()

    # ------------------------------------------------------------------
    # Workload recording
    # ------------------------------------------------------------------

    def _record_start(self) -> bool:
        """Claim the arrival-recording slot for this entry point.

        Returns True when this call is the outermost public entry
        point and a workload log is attached — exactly the calls that
        should append arrival records.  Cohort internals that re-enter
        ``answer``/``durability_curve`` find the slot taken and stay
        silent, so one user-visible query is one arrival.
        """
        if self.workload_log is None:
            return False
        if getattr(self._recording, "active", False):
            return False
        self._recording.active = True
        return True

    def _record_end(self) -> None:
        self._recording.active = False

    @staticmethod
    def _search_steps(details) -> int:
        """Measured plan-search cost carried by an estimate's details."""
        search = (details or {}).get("plan_search") or {}
        return int(search.get("search_steps", 0) or 0)

    def _record_arrival(self, query, grid=None, details=None) -> None:
        self.workload_log.record(
            query, grid=grid, search_steps=self._search_steps(details))

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------

    def _get_pool(self, policy: ExecutionPolicy) -> Optional[WorkerPool]:
        """The engine-owned persistent pool for this policy, if any.

        Created on first parallel call and reused across queries —
        that persistence (workers, registered substrates) is the whole
        point of the pool.  A policy asking for a different worker
        count or pool mode replaces it.
        """
        parallel = policy.parallel
        if parallel is None:
            return None
        config = (parallel.n_workers, parallel.pool,
                  parallel.max_worker_restarts, parallel.task_retry_limit,
                  parallel.task_timeout_seconds)
        with self._pool_lock:
            if self._pool is not None and (self._pool.closed
                                           or self._pool_config != config):
                self._pool.close()
                self._pool = None
                self._pool_config = None
            if self._pool is None:
                self._pool = WorkerPool(
                    n_workers=parallel.n_workers, pool=parallel.pool,
                    max_worker_restarts=parallel.max_worker_restarts,
                    task_retry_limit=parallel.task_retry_limit,
                    task_timeout_seconds=parallel.task_timeout_seconds)
                self._pool_config = config
            return self._pool

    def close(self) -> None:
        """Shut down the engine's worker pool (idempotent).

        The engine remains usable afterwards — the next parallel call
        simply starts a fresh pool.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
                self._pool_config = None

    def resilience_stats(self) -> dict:
        """Supervision counters of the current pool (zeros when none).

        ``worker_restarts`` / ``tasks_recovered`` count workers the
        pool supervisor respawned and in-flight tasks it re-ran
        deterministically (see :mod:`repro.core.pool`); the serving
        tier surfaces them in ``/metrics``.
        """
        with self._pool_lock:
            pool = self._pool
            if pool is None:
                return {"worker_restarts": 0, "tasks_recovered": 0}
            return {"worker_restarts": pool.worker_restarts,
                    "tasks_recovered": pool.tasks_recovered}

    def __enter__(self) -> "DurabilityEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Single query
    # ------------------------------------------------------------------

    def answer(self, query: DurabilityQuery,
               policy: Optional[ExecutionPolicy] = None,
               partition: Optional[LevelPartition] = None,
               **overrides) -> DurabilityEstimate:
        """Answer one durability query under the resolved policy.

        ``partition`` short-circuits plan resolution with an explicit
        plan (pruned against the initial state, as always); otherwise
        MLSS plans come from the cache, the balanced pilot
        (``policy.num_levels``) or the greedy search, in that order of
        preference.
        """
        policy = self._resolve_policy(policy, overrides)
        recording = self._record_start()
        try:
            sampler, extra = self._build_sampler(query, policy, partition)
            estimate = sampler.run(
                query, quality=policy.quality, max_steps=policy.max_steps,
                max_roots=policy.max_roots, seed=policy.seed)
            estimate.details.update(extra)
            if recording:
                self._record_arrival(query, details=estimate.details)
            return estimate
        finally:
            if recording:
                self._record_end()

    def _make_sampler(self, sampler_class, policy: ExecutionPolicy,
                      *args, **kwargs):
        """Construct a sampler with the policy's options and pool.

        The single place `answer` and `durability_curve` build
        samplers, so construction cannot drift between entry points.
        Of ``sampler_options`` the class gets only the keys it takes.
        """
        kwargs.update(_sampler_options(
            policy, _SAMPLER_OPTION_KEYS[sampler_class]))
        kwargs["record_trace"] = policy.record_trace
        parallel = policy.parallel
        if parallel is not None:
            kwargs.update(pool=self._get_pool(policy),
                          roots_per_task=parallel.roots_per_task)
        return sampler_class(*args, **kwargs)

    @staticmethod
    def _mlss_class(method: str):
        return SMLSSSampler if method == "smlss" else GMLSSSampler

    def _build_sampler(self, query: DurabilityQuery,
                       policy: ExecutionPolicy,
                       partition: Optional[LevelPartition]):
        """One construction path for every method.

        Returns ``(sampler, extra_details)`` — resolves the plan and
        picks the sampler class, so no per-method branch repeats the
        boilerplate.
        """
        if policy.method == "srs":
            return self._make_sampler(SRSSampler, policy), {}

        plan, search_details, cache_status, cache_origin = \
            self._resolve_plan(query, partition, policy)
        extra = {}
        if search_details is not None:
            extra["plan_search"] = search_details
        if cache_status is not None:
            extra["plan_cache"] = cache_status
        if partition is not None:
            extra["plan_source"] = "explicit"
        elif cache_status == "hit":
            # A hit on a store-hydrated entry is the persistence layer
            # paying off — report it as its own source so restarts are
            # observable; warmed/search-born entries stay "cache".
            extra["plan_source"] = ("store" if cache_origin == "store"
                                    else "cache")
            extra["plan_origin"] = cache_origin
        else:
            extra["plan_source"] = "search"
        sampler = self._make_sampler(self._mlss_class(policy.method),
                                     policy, plan, ratio=policy.ratio)
        return sampler, extra

    def _resolve_plan(self, query: DurabilityQuery,
                      partition: Optional[LevelPartition],
                      policy: ExecutionPolicy):
        """Plan precedence from :func:`resolve_plan`, plus the cache.

        With :attr:`ExecutionPolicy.parallel` set, plan search (greedy
        candidate trials, balanced pilots) shards over the engine's
        persistent pool — the cold-query path parallelizes along with
        the sampling it feeds.
        """
        cache = self.plan_cache if policy.use_plan_cache else None
        return resolve_plan(
            query, partition, policy.num_levels, policy.ratio,
            policy.trial_steps, policy.seed, plan_cache=cache,
            pool=self._get_pool(policy))

    def warm_plan(self, query: DurabilityQuery,
                  policy: Optional[ExecutionPolicy] = None,
                  thresholds=None, **overrides) -> dict:
        """Resolve (and memoize) a query's level plan without sampling.

        The proactive warmer's entry point: runs exactly the plan
        resolution a future :meth:`answer` (or, with ``thresholds``, a
        curve-aware :meth:`durability_curve`) would run — same policy,
        same seed, same cache kind — so the warmed plan is the very
        plan the on-path search would have found, and the later answer
        is byte-identical to the cold-search one.  A freshly learned
        plan is retagged ``origin="warmed"`` (and, with a persistent
        store attached to the cache, written through).

        Returns a report dict: ``warmable`` (False for SRS policies,
        disabled caches, grids that need no search), ``cache_status``,
        ``origin``, ``search_steps`` spent, and the cache ``kind``.
        """
        policy = self._resolve_policy(policy, overrides)
        if policy.method == "srs":
            return {"warmable": False, "reason": "srs_needs_no_plan",
                    "search_steps": 0}
        if not policy.use_plan_cache:
            return {"warmable": False, "reason": "plan_cache_disabled",
                    "search_steps": 0}
        target = query
        grid = None
        if thresholds:
            betas, levels = threshold_grid(thresholds)
            target = query.with_threshold(betas[-1])
            initial_value = target.initial_value()
            if any(level <= initial_value and level < 1.0
                   for level in levels):
                return {"warmable": False, "reason": "unservable_grid",
                        "search_steps": 0}
            interior = tuple(levels[:-1])
            if (policy.num_levels is None
                    or policy.num_levels <= len(interior) + 1):
                # The read-out grid *is* the plan — nothing to search,
                # nothing worth persisting.
                return {"warmable": False, "reason": "grid_is_plan",
                        "search_steps": 0}
            grid = interior
        kind = plan_kind(policy.num_levels, grid)
        _, search_details, cache_status, origin = resolve_plan(
            target, None, policy.num_levels, policy.ratio,
            policy.trial_steps, policy.seed, plan_cache=self.plan_cache,
            pool=self._get_pool(policy), grid=grid)
        search_steps = (search_details or {}).get("search_steps", 0)
        if cache_status == "miss":
            self.plan_cache.retag(target, kind, "warmed")
            origin = "warmed"
            if search_details is None:
                # Balanced pilots are not step-metered; charge the
                # trial budget so sweep accounting stays conservative.
                search_steps = policy.trial_steps
        return {"warmable": True, "kind": kind,
                "cache_status": cache_status, "origin": origin,
                "search_steps": int(search_steps)}

    # ------------------------------------------------------------------
    # Threshold grids: one pass, many answers
    # ------------------------------------------------------------------

    def durability_curve(self, query: DurabilityQuery, thresholds,
                         policy: Optional[ExecutionPolicy] = None,
                         **overrides) -> DurabilityCurve:
        """Answer ``Pr[z >= beta_j within the horizon]`` for a whole grid.

        One simulation pass covers every threshold: under SRS each path
        records its running maximum score, under MLSS the normalized
        grid *is* the level partition and the answers are the prefix
        products of the splitting decomposition.  The pass costs about
        as much as a single run against the hardest threshold — not
        ``K`` runs — at matched per-threshold accuracy (estimates share
        paths, so they are correlated across thresholds but
        individually unbiased).

        ``query`` must be a threshold query (its ``value_function`` a
        :class:`ThresholdValueFunction`); its own ``beta`` is ignored in
        favour of the grid.  MLSS methods additionally need every
        normalized threshold to exceed the initial state's score — use
        ``method="srs"`` for grids that straddle the starting value.
        Convergence traces (``record_trace``) are not recorded for
        curve passes.
        """
        policy = self._resolve_policy(policy, overrides)
        recording = self._record_start()
        try:
            curve = self._curve_impl(query, thresholds, policy)
            if recording:
                self._record_arrival(query, grid=curve.thresholds,
                                     details=curve.details)
            return curve
        finally:
            if recording:
                self._record_end()

    def _curve_impl(self, query: DurabilityQuery, thresholds,
                    policy: ExecutionPolicy) -> DurabilityCurve:
        """The curve pass behind :meth:`durability_curve` (resolved
        policy, no workload recording)."""
        if not isinstance(query.value_function, ThresholdValueFunction):
            raise TypeError(
                "durability_curve needs a threshold query (value_function "
                f"must be a ThresholdValueFunction, got "
                f"{type(query.value_function).__name__})"
            )
        betas, levels = threshold_grid(thresholds)
        base_query = query.with_threshold(betas[-1])

        if policy.method == "srs":
            curve = self._make_sampler(SRSSampler, policy).run_curve(
                base_query, levels, thresholds=betas,
                quality=policy.quality, max_steps=policy.max_steps,
                max_roots=policy.max_roots, seed=policy.seed)
        else:
            initial_value = base_query.initial_value()
            blocked = [beta for beta, level in zip(betas, levels)
                       if level <= initial_value and level < 1.0]
            if blocked:
                raise UnservableGridError(
                    f"thresholds {blocked} normalize to at most the "
                    f"initial state's value {initial_value:.4g}; MLSS "
                    f"boundaries must exceed it — drop them or use "
                    f"method='srs'"
                )
            interior = tuple(levels[:-1])
            partition = LevelPartition(interior)
            plan_source = "grid"
            cache_status = None
            cache_origin = None
            if (policy.num_levels is not None
                    and policy.num_levels > len(interior) + 1):
                # Curve-aware plan: the policy asks for more levels than
                # the read-out grid alone provides, so the balanced
                # pilot places the extra boundaries into the survival
                # gaps *between* grid levels (grid-shaped cache keys —
                # see resolve_plan).  The grid itself always survives,
                # so every read-out level stays a boundary.
                cache = self.plan_cache if policy.use_plan_cache else None
                partition, _, cache_status, cache_origin = resolve_plan(
                    base_query, None, policy.num_levels, policy.ratio,
                    policy.trial_steps, policy.seed, plan_cache=cache,
                    pool=self._get_pool(policy), grid=interior)
                plan_source = "curve_aware"
            sampler = self._make_sampler(self._mlss_class(policy.method),
                                         policy, partition,
                                         ratio=policy.ratio)
            if partition.boundaries != interior:
                curve = self._run_refined_curve(sampler, base_query,
                                                betas, levels, policy)
            else:
                curve = sampler.run_curve(
                    base_query, thresholds=betas, quality=policy.quality,
                    max_steps=policy.max_steps,
                    max_roots=policy.max_roots, seed=policy.seed)
            curve.details["plan_source"] = plan_source
            if cache_status is not None:
                curve.details["plan_cache"] = cache_status
            if cache_status == "hit" and cache_origin is not None:
                curve.details["plan_origin"] = cache_origin
        return curve

    def _run_refined_curve(self, sampler, base_query, betas, levels,
                           policy: ExecutionPolicy) -> DurabilityCurve:
        """Run a refined (curve-aware) plan and subset to the grid.

        The sampler's partition holds the read-out grid *plus*
        refinement boundaries; one forest answers all of them at once.
        Refinement boundaries get raw-threshold labels of ``level ×
        top`` for the intermediate curve, then only the requested
        grid's estimates are kept — callers never see the refinement
        levels, they only pay (and benefit from) their splitting.
        """
        label = dict(zip(levels, betas))
        top = betas[-1]
        full_labels = tuple(label.get(b, b * top)
                            for b in sampler.partition.boundaries) + (top,)
        full = sampler.run_curve(
            base_query, thresholds=full_labels, quality=policy.quality,
            max_steps=policy.max_steps, max_roots=policy.max_roots,
            seed=policy.seed)
        kept = [(label[level], level, estimate)
                for level, estimate in zip(full.levels, full.estimates)
                if level in label]
        return DurabilityCurve(
            thresholds=tuple(beta for beta, _, _ in kept),
            levels=tuple(level for _, level, _ in kept),
            estimates=tuple(estimate for _, _, estimate in kept),
            method=full.method, n_roots=full.n_roots, steps=full.steps,
            elapsed_seconds=full.elapsed_seconds,
            details=dict(full.details))

    # ------------------------------------------------------------------
    # Batches: cohort grouping + shared passes
    # ------------------------------------------------------------------

    @staticmethod
    def _z_identity(z):
        """A stable-ish identity for a state evaluation ``z``.

        Delegates to :func:`repro.engine.cache._callable_identity` (the
        single home of the named-function-vs-object-identity logic):
        named plain functions — the staticmethod ``z`` evaluations
        every substrate ships — are identified symbolically, so two
        instances of one family share it; lambdas, closures and bound
        methods fall back to object identity, trading sharing for
        never conflating genuinely different scores.
        """
        return _callable_identity(z)

    @classmethod
    def _cohort_key(cls, query: DurabilityQuery):
        """Grouping key: queries differing only in threshold — or only
        in threshold *and* same-family process parameters — share it.

        ``None`` means the query cannot join a cohort (non-threshold
        value function).  The process component is **structural**: a
        fusible process contributes its
        :meth:`~repro.processes.base.StochasticProcess.fusion_key`, so
        a fleet of per-entity GBM/AR/queue parameterisations lands in
        one cohort; non-fusible processes fall back to object identity,
        which still groups "the same model, many thresholds".
        """
        value_fn = query.value_function
        if not isinstance(value_fn, ThresholdValueFunction):
            return None
        fusion = query.process.fusion_key()
        process_key = (("family",) + fusion if fusion is not None
                       else ("object", id(query.process)))
        return (process_key, query.horizon, cls._z_identity(value_fn.z))

    @staticmethod
    def _process_digest(process):
        """A repr-stable digest of a process *instance* for seeding.

        Class path plus every scalar (and tuple-of-scalar) public
        attribute, recursing into nested processes — so two same-family
        entities with different parameters derive *different* seed
        streams (identical streams across a fleet would correlate the
        entities' hit indicators and silently inflate the variance of
        fleet-level aggregates).  Complex attributes (matrices, nested
        models) contribute their name only: their content has no
        repr-stable form, and colliding streams across genuinely
        different complex processes costs correlation, not bias.
        """
        params = []
        for name in sorted(vars(process)):
            if name.startswith("_"):
                continue
            value = vars(process)[name]
            if isinstance(value, (int, float, str, bool, type(None))):
                params.append((name, value))
            elif isinstance(value, tuple) and all(
                    isinstance(v, (int, float, str, bool, type(None)))
                    for v in value):
                params.append((name, value))
            elif isinstance(value, StochasticProcess):
                params.append(
                    (name, DurabilityEngine._process_digest(value)))
            else:
                params.append((name, "@opaque"))
        return (type(process).__module__, type(process).__qualname__,
                tuple(params))

    @classmethod
    def _seed_material(cls, query: DurabilityQuery):
        """Structural digest of a query for content-derived seeding.

        Built from the process instance's parameter digest, horizon,
        state evaluation and threshold — everything that identifies
        *what* is asked, and nothing that identifies *where in a
        batch* it was asked.  See :meth:`ExecutionPolicy.derive_seed`.
        """
        value_fn = query.value_function
        if isinstance(value_fn, ThresholdValueFunction):
            z_part = cls._z_identity(value_fn.z)
            beta = value_fn.beta
        else:
            z_part = cls._z_identity(value_fn)
            beta = None
        return (cls._process_digest(query.process), query.horizon,
                z_part, beta)

    def answer_batch(self, queries: Sequence[DurabilityQuery],
                     policy: Optional[ExecutionPolicy] = None,
                     **overrides) -> list:
        """Answer many queries, sharing work wherever possible.

        Compatible queries — same horizon and state evaluation ``z``,
        thresholds free to differ — form *cohorts*:

        * members over the **same process object** are answered by one
          :meth:`durability_curve` pass (one shared simulation);
        * members over **different processes of one fusible family**
          (``policy.fuse``, SRS screening) are answered by one *fused*
          pass — the whole fleet advances through a single
          :class:`~repro.processes.base.FusedBatch` frontier, one
          ``step_batch`` per time step, with per-entity parameters and
          thresholds broadcast per row (see
          :func:`repro.core.fleet.screen_fleet`).

        Remaining queries run individually, still sharing the engine's
        plan cache.  Returns estimates in input order; cohort members
        carry ``details["cohort_size"]`` and a ``details["cohort_id"]``
        identifying their shared pass (fused members additionally
        ``details["fused"]``).

        Per-query seeds are derived deterministically from
        ``policy.seed`` and the query's *structure* (process family,
        horizon, evaluation, threshold) — never its batch position — so
        a query's answer does not depend on what else happened to be in
        the batch or in what order.
        """
        policy = self._resolve_policy(policy, overrides)
        queries = list(queries)
        recording = self._record_start()
        try:
            results = self._answer_batch_impl(queries, policy)
            if recording:
                for query, estimate in zip(queries, results):
                    self._record_arrival(
                        query, details=getattr(estimate, "details", None))
            return results
        finally:
            if recording:
                self._record_end()

    def _answer_batch_impl(self, queries, policy) -> list:
        """Cohort grouping + dispatch behind :meth:`answer_batch`."""
        results: list = [None] * len(queries)

        groups: dict = {}
        for index, query in enumerate(queries):
            key = self._cohort_key(query)
            if key is None:
                self._answer_single(queries, results, index, policy)
                continue
            groups.setdefault(key, []).append(index)

        # One id per actual shared pass (curve or fused frontier), so
        # details["cohort_id"] uniquely attributes simulation work.
        cohort_ids = itertools.count()
        for members in groups.values():
            if len(members) < 2:
                for index in members:
                    self._answer_single(queries, results, index, policy)
                continue
            distinct = {id(queries[index].process) for index in members}
            if len(distinct) == 1:
                self._answer_cohort(queries, results, members, policy,
                                    next(cohort_ids))
            elif self._can_fuse(policy):
                self._answer_fleet(queries, results, members, policy,
                                   next(cohort_ids))
            elif self._can_fuse_mlss(policy):
                self._answer_fleet_mlss(queries, results, members, policy,
                                        cohort_ids)
            else:
                # Same family but fusion unavailable for this policy:
                # regroup per process object (the pre-fusion cohorts).
                self._answer_by_process(queries, results, members, policy,
                                        cohort_ids)
        return results

    def _answer_single(self, queries, results, index, policy) -> None:
        query = queries[index]
        member_policy = policy.replace(
            seed=policy.derive_seed(self._seed_material(query)))
        results[index] = self.answer(query, policy=member_policy)

    @staticmethod
    def _can_fuse(policy: ExecutionPolicy) -> bool:
        """Fused screening applies to SRS passes.

        The fused frontier is an SRS pass (per-entity plans for MLSS
        over *different* initial values are out of scope).  The cohort
        key already guarantees the members share a non-None fusion key.
        """
        return policy.fuse and policy.method == "srs"

    @staticmethod
    def _can_fuse_mlss(policy: ExecutionPolicy) -> bool:
        """Fused *splitting-forest* screening for rare-event fleets.

        Needs an explicit shared plan shape (``policy.num_levels`` —
        the fleet shares one normalized partition; per-entity plan
        search over a fused forest is out of scope) and the g-MLSS
        estimator (its per-member folds need no per-member no-skipping
        guarantees).
        """
        return (policy.fuse and policy.method == "gmlss"
                and policy.num_levels is not None)

    def _answer_by_process(self, queries, results, members, policy,
                           cohort_ids) -> None:
        """Per-process-object sub-cohorts of one structural group.

        Each sub-cohort is its own shared pass, so each draws its own
        id from the batch-wide ``cohort_ids`` counter.
        """
        by_process: dict = {}
        for index in members:
            by_process.setdefault(id(queries[index].process),
                                  []).append(index)
        for sub_members in by_process.values():
            if len(sub_members) < 2:
                for index in sub_members:
                    self._answer_single(queries, results, index, policy)
            else:
                self._answer_cohort(queries, results, sub_members, policy,
                                    next(cohort_ids))

    def _answer_cohort(self, queries, results, members, policy,
                       cohort_id) -> None:
        """One shared curve pass for a group of same-process queries."""
        betas = {}
        for index in members:
            beta = queries[index].value_function.beta
            betas.setdefault(beta, []).append(index)
        lead = queries[members[0]]
        cohort_policy = policy.replace(seed=policy.derive_seed(
            (self._seed_material(lead.with_threshold(max(betas))),
             tuple(sorted(betas)))))
        try:
            curve = self.durability_curve(
                lead, sorted(betas), policy=cohort_policy)
        except UnservableGridError:
            # MLSS grids that straddle the initial value fall back to
            # individual answers (which surface each member's own
            # error, if any); other errors propagate unmasked.
            for index in members:
                self._answer_single(queries, results, index, policy)
            return
        for beta, indices in betas.items():
            shared = curve.estimate_at(beta)
            for index in indices:
                # Each member gets its own estimate object (and details
                # dict), so callers can tag results independently; the
                # details schema matches individually-answered queries.
                estimate = dataclasses.replace(
                    shared, details=dict(shared.details))
                estimate.details["cohort_size"] = len(members)
                estimate.details["cohort_id"] = cohort_id
                results[index] = estimate

    def _fleet_pool_options(self, policy: ExecutionPolicy) -> dict:
        """Pool keywords shared by every fused fleet entry point."""
        parallel = policy.parallel
        if parallel is None:
            return {}
        return {"pool": self._get_pool(policy),
                "members_per_task": parallel.members_per_task}

    def _answer_fleet(self, queries, results, members, policy,
                      cohort_id) -> None:
        """One fused screening pass for same-family, multi-process
        members (see :func:`repro.core.fleet.screen_fleet`)."""
        fleet = [queries[index] for index in members]
        fused = FusedBatch([query.process for query in fleet])
        betas = [query.value_function.beta for query in fleet]
        seed = policy.derive_seed(
            (fused.key, fleet[0].horizon,
             self._z_identity(fleet[0].value_function.z),
             tuple(sorted(betas))))
        estimates = screen_fleet(
            fused, fleet[0].value_function.z, betas, fleet[0].horizon,
            quality=policy.quality, max_steps=policy.max_steps,
            max_roots=policy.max_roots, seed=seed,
            **_sampler_options(policy, ("batch_roots",)),
            **self._fleet_pool_options(policy))
        for index, estimate in zip(members, estimates):
            estimate.details["cohort_size"] = len(members)
            estimate.details["cohort_id"] = cohort_id
            results[index] = estimate

    def _answer_fleet_mlss(self, queries, results, members, policy,
                           cohort_ids) -> None:
        """Clustered fused *splitting-forest* passes for a rare-event fleet.

        Members are clustered by normalized initial score
        (:func:`~repro.core.fleet.cluster_members_by_initial`): each
        cluster runs its own fused forest under a normalized uniform
        plan with ``policy.num_levels`` levels, pruned against only
        *its* worst member — so a member far below the fleet's worst
        keeps its lower ladder instead of inheriting a stripped shared
        plan.  On processes that move one level at a time a plan changes
        only efficiency; on processes that skip levels Eq. 9 is
        measurably biased and its bias depends on the plan (see
        :mod:`repro.core.gmlss`), so there a member's cluster can move
        its answer by more than noise.  Each forest grows in the g-MLSS
        round loop and reads the same ``sampler_options`` as a single
        g-MLSS answer, plus the fleet-only ``adaptive``
        (variance-directed allocation per member, default True) and
        ``cluster_tolerance``.  Clusters whose plan degenerates (a
        member already at/above a boundary's reach) fall back to
        per-process answers.
        """
        fleet = [queries[index] for index in members]
        betas = [query.value_function.beta for query in fleet]
        z = fleet[0].value_function.z
        fused_all = FusedBatch([query.process for query in fleet])
        rows = fused_all.initial_states(fused_all.n_members)
        scores = FleetThresholdValue(z, betas).batch(rows, 0)
        options = policy.sampler_options or {}
        clusters = cluster_members_by_initial(
            scores.tolist(),
            tolerance=options.get("cluster_tolerance", 0.1))
        for cluster_index, local in enumerate(clusters):
            cluster_members = [members[i] for i in local]
            cluster_fleet = [fleet[i] for i in local]
            cluster_betas = [betas[i] for i in local]
            fused = FusedBatch(
                [query.process for query in cluster_fleet])
            initial = float(max(scores[i] for i in local))
            partition = uniform_partition(policy.num_levels) \
                .pruned_above(initial)
            # Seeds stay structural: a cluster's stream depends on what
            # it contains, never on batch position or sibling clusters.
            seed = policy.derive_seed(
                (fused.key, cluster_fleet[0].horizon,
                 self._z_identity(z), tuple(sorted(cluster_betas)),
                 "mlss"))
            try:
                estimates = screen_fleet_mlss(
                    fused, z, cluster_betas, partition,
                    cluster_fleet[0].horizon,
                    ratio=policy.ratio, quality=policy.quality,
                    max_steps=policy.max_steps,
                    max_roots=policy.max_roots, seed=seed,
                    **_sampler_options(
                        policy, _SAMPLER_OPTION_KEYS[GMLSSSampler]
                        + ("adaptive",)),
                    **self._fleet_pool_options(policy))
            except LevelPlanError:
                self._answer_by_process(queries, results,
                                        cluster_members, policy,
                                        cohort_ids)
                continue
            cohort_id = next(cohort_ids)
            for index, estimate in zip(cluster_members, estimates):
                estimate.details["cohort_size"] = len(cluster_members)
                estimate.details["cohort_id"] = cohort_id
                estimate.details["fleet_cluster"] = cluster_index
                estimate.details["fleet_clusters"] = len(clusters)
                estimate.details["plan_source"] = "uniform"
                results[index] = estimate

    # ------------------------------------------------------------------
    # Fleet curves: every member's whole grid, one fused pass
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_curve_grids(queries, thresholds) -> list:
        """Per-query raw grids from a shared grid or per-query grids,
        each sorted by :func:`threshold_grid` as
        :meth:`durability_curve` sorts its grid."""
        thresholds = list(thresholds)
        if thresholds and all(hasattr(grid, "__iter__")
                              and not isinstance(grid, str)
                              for grid in thresholds):
            if len(thresholds) != len(queries):
                raise ValueError(
                    f"{len(thresholds)} threshold grids for "
                    f"{len(queries)} queries")
            grids = thresholds
        else:
            grids = [thresholds] * len(queries)
        return [threshold_grid(grid)[0] for grid in grids]

    def durability_curves(self, queries: Sequence[DurabilityQuery],
                          thresholds,
                          policy: Optional[ExecutionPolicy] = None,
                          **overrides) -> list:
        """Whole durability curves for many queries, fused when possible.

        ``thresholds`` is either one ascending raw grid shared by every
        query or a sequence of per-query grids (one per query; lengths
        may differ).  Queries over *different processes of one fusible
        family* (SRS method, ``policy.fuse``) are
        answered by a single fused running-maxima pass —
        :func:`repro.core.fleet.screen_fleet_curves` — in which every
        member's whole grid rides the shared frontier; everything else
        falls back to per-query :meth:`durability_curve` passes.
        Returns one :class:`DurabilityCurve` per query, in input order;
        fused members carry ``details["cohort_id"]`` /
        ``details["cohort_size"]``.

        Seeds derive from query structure plus grid, so answers are
        independent of batch composition and order.
        """
        policy = self._resolve_policy(policy, overrides)
        queries = list(queries)
        for query in queries:
            if not isinstance(query.value_function,
                              ThresholdValueFunction):
                raise TypeError(
                    "durability_curves needs threshold queries "
                    "(value_function must be a ThresholdValueFunction, "
                    f"got {type(query.value_function).__name__})"
                )
        grids = self._normalize_curve_grids(queries, thresholds)
        recording = self._record_start()
        try:
            results = self._curves_impl(queries, grids, policy)
            if recording:
                for query, grid, curve in zip(queries, grids, results):
                    self._record_arrival(
                        query, grid=grid,
                        details=getattr(curve, "details", None))
            return results
        finally:
            if recording:
                self._record_end()

    def _curves_impl(self, queries, grids, policy) -> list:
        """Fused-vs-single dispatch behind :meth:`durability_curves`."""
        results: list = [None] * len(queries)

        groups: dict = {}
        for index, query in enumerate(queries):
            groups.setdefault(self._cohort_key(query), []).append(index)

        cohort_ids = itertools.count()
        for members in groups.values():
            distinct = {id(queries[index].process) for index in members}
            if (len(members) >= 2 and len(distinct) == len(members)
                    and self._can_fuse(policy)):
                self._curves_fleet(queries, grids, results, members,
                                   policy, next(cohort_ids))
            else:
                for index in members:
                    self._curve_single(queries, grids, results, index,
                                       policy)
        return results

    def _curve_single(self, queries, grids, results, index,
                      policy) -> None:
        query = queries[index]
        member_policy = policy.replace(seed=policy.derive_seed(
            (self._seed_material(query.with_threshold(grids[index][-1])),
             grids[index])))
        results[index] = self.durability_curve(query, grids[index],
                                               policy=member_policy)

    def _curves_fleet(self, queries, grids, results, members, policy,
                      cohort_id) -> None:
        """One fused running-maxima pass answering every member's grid."""
        fleet = [queries[index] for index in members]
        fused = FusedBatch([query.process for query in fleet])
        member_grids = [grids[index] for index in members]
        z = fleet[0].value_function.z
        seed = policy.derive_seed(
            (fused.key, fleet[0].horizon, self._z_identity(z),
             tuple(member_grids), "curves"))
        curves = screen_fleet_curves(
            fused, z, member_grids, fleet[0].horizon,
            quality=policy.quality, max_steps=policy.max_steps,
            max_roots=policy.max_roots, seed=seed,
            **_sampler_options(policy, ("batch_roots",)),
            **self._fleet_pool_options(policy))
        for index, curve in zip(members, curves):
            curve.details["cohort_size"] = len(members)
            curve.details["cohort_id"] = cohort_id
            results[index] = curve
