"""Plan caching: amortize level-plan search across repeated queries.

The greedy search (Algorithm 1) and the balanced-growth pilot both burn
tens of thousands of simulation steps to pick a partition plan.  For the
service workloads this package targets — ranking durable stocks,
screening server fleets, sweeping threshold grids — the *same shape* of
query arrives over and over: one process family, one horizon, thresholds
in a narrow band.  A plan found once is a good plan for all of them, so
:class:`PlanCache` memoizes plans under a deliberately coarse key:

``(kind, process family, horizon, initial-value bucket, threshold
bucket)``

* **kind** separates greedy plans from balanced plans (which are
  per-level-count);
* **process family** is the process class plus its scalar constructor
  parameters — two ``RandomWalkProcess(p_up=0.35)`` instances share
  plans, while non-scalar components (matrices, nested models) fall
  back to object identity;
* **initial-value bucket** quantizes the initial state's value-function
  score (default 0.05-wide buckets);
* **threshold bucket** quantizes ``log2(beta)`` of a threshold query
  (default quarter-octave buckets), so nearby thresholds — whose
  *normalized* dynamics are nearly identical — share a plan.  The
  ``z`` evaluation's identity is part of the bucket, so different state
  scores never collide.

Sharing a plan across a bucket is always *safe*: MLSS is unbiased under
any plan (Proposition 2); a slightly-off plan costs only efficiency.
Cached plans are re-pruned against each query's actual initial value
before use.

Eviction is LRU with a bounded entry count; ``hits``/``misses``/
``evictions`` counters make cache effectiveness (and capacity
pressure) observable (:meth:`PlanCache.stats`).

The plan searches know nothing of this cache: the engine's
:func:`~repro.engine.service.resolve_plan` is its only reader and
writer, with one :meth:`PlanCache.get` per answer and one
:meth:`PlanCache.put` per search, whose ``origin`` labels the entry
for good.  Admission control only probes membership
(``key_for(query, kind) in cache``), which moves no counter.
"""

from __future__ import annotations

import math
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..core.levels import LevelPartition
from ..core.value_functions import DurabilityQuery, ThresholdValueFunction
from ..processes.base import StochasticProcess

_SCALAR_TYPES = (int, float, str, bool, type(None))


def process_family(process) -> tuple:
    """A hashable key identifying a process *family*, not an instance.

    Built from the class path and the scalar constructor attributes, so
    two instances configured identically share plans.  Nested processes
    (an :class:`~repro.processes.volatile.ImpulseProcess` base, say)
    recurse structurally, so two identically-configured wrappers share
    plans too.  Anything else non-scalar (transition matrices, nested
    models, arrays) is replaced by the component's ``id`` — distinct
    complex processes never collide, at the price of cache sharing only
    through the same object (the common service pattern anyway).

    Underscore-prefixed attributes are skipped: they hold values
    *derived* from the public parameters (pre-computed constants,
    lazily-built adapters), so they add no discrimination but can make
    keys unstable (some are created or replaced after first use).
    """
    cls = type(process)
    params = []
    for name in sorted(vars(process)):
        if name.startswith("_"):
            continue
        value = vars(process)[name]
        if isinstance(value, _SCALAR_TYPES):
            params.append((name, value))
        elif isinstance(value, tuple) and all(
                isinstance(v, _SCALAR_TYPES) for v in value):
            params.append((name, value))
        elif isinstance(value, StochasticProcess):
            params.append((name, process_family(value)))
        else:
            params.append((name, f"@id:{id(value)}"))
    return (cls.__module__, cls.__qualname__, tuple(params))


def grid_plan_kind(base: object, grid) -> tuple:
    """A grid-shaped :class:`PlanCache` kind for curve-aware plans.

    Curve-aware plans (see
    :func:`repro.core.variance.curve_refined_boundaries`) are built
    *for a specific normalized read-out grid* — reusing one for a
    different grid would serve a curve from boundaries that do not
    contain its read-out levels.  Embedding the grid in the kind keeps
    curve plans from colliding with point plans or with each other;
    levels are rounded to 9 decimals so float repr jitter cannot split
    one grid over several keys.
    """
    return (base, "grid", tuple(round(float(g), 9) for g in grid))


def _callable_identity(fn) -> str:
    """A key component for a state evaluation / value function.

    Only *named* plain functions (including staticmethods like
    ``RandomWalkProcess.position``) get a purely symbolic identity, so
    equal-by-construction callables share plans.  Everything whose
    symbol does not pin down behaviour — lambdas and closures (their
    ``__qualname__`` collides across loop iterations), callable class
    instances (per-instance parameters), bound methods (per-object
    state) — includes an object ``id``, trading cache sharing for never
    reusing a plan across genuinely different scores.  The ids stay
    valid because cache entries pin their objects (see
    :attr:`CachedPlan.pins`).
    """
    if isinstance(fn, types.MethodType):
        owner = fn.__self__
        return (f"{type(owner).__module__}.{type(owner).__qualname__}"
                f".{fn.__name__}@self:{id(owner)}")
    qualname = getattr(fn, "__qualname__", None)
    if (isinstance(fn, (types.FunctionType, types.BuiltinFunctionType))
            and qualname and "<" not in qualname):
        return f"{getattr(fn, '__module__', '?')}.{qualname}"
    name = qualname or f"{type(fn).__module__}.{type(fn).__qualname__}"
    return f"{name}@id:{id(fn)}"


@dataclass
class CachedPlan:
    """A memoized level plan plus the metadata that produced it."""

    partition: LevelPartition
    kind: object
    score: float = math.inf
    #: Strong references to the objects whose ``id`` appears in this
    #: entry's key (process, value function).  Pinning them for the
    #: entry's lifetime guarantees a reused address can never alias an
    #: old key — id-based keys are identity-based, not address-based.
    pins: tuple = field(default=(), repr=False)
    #: Where the plan came from, fixed when the entry is created:
    #: ``"search"`` (found by this process's own plan search on an
    #: answer's cache miss), ``"store"`` (hydrated from a persistent
    #: :class:`~repro.db.plan_store.PlanStore`), or ``"warmed"``
    #: (searched by :meth:`~repro.engine.service.DurabilityEngine.
    #: warm_plan`, the proactive warmer's entry point, before any query
    #: needed it).  Surfaces through ``details["plan_source"]`` /
    #: ``details["plan_origin"]``.
    origin: str = "search"


class PlanCache:
    """LRU cache of level-partition plans keyed by query shape.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least-recently-used plan is evicted beyond it.
    value_bucket:
        Width of the initial-value quantization buckets.
    threshold_buckets_per_octave:
        Resolution of the ``log2(beta)`` threshold quantization; higher
        means less sharing between nearby thresholds.
    store:
        Optional persistent backing
        (:class:`~repro.db.plan_store.PlanStore`).  Plans stored there
        are loaded on construction (entries carry ``origin="store"``,
        so answers resolved from them report ``plan_source:
        "store"``), and every :meth:`put` of a persistable key writes
        through, so learned plans survive restarts.  Keys carrying
        object-identity markers stay memory-only (the store skips
        them).
    """

    def __init__(self, max_entries: int = 256, value_bucket: float = 0.05,
                 threshold_buckets_per_octave: int = 4, store=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if value_bucket <= 0:
            raise ValueError(
                f"value_bucket must be > 0, got {value_bucket}")
        if threshold_buckets_per_octave < 1:
            raise ValueError(
                f"threshold_buckets_per_octave must be >= 1, got "
                f"{threshold_buckets_per_octave}")
        self.max_entries = max_entries
        self.value_bucket = value_bucket
        self.threshold_buckets_per_octave = threshold_buckets_per_octave
        self.store = store
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # One engine (and its plan cache) may be driven from several
        # threads at once — batch dispatch, services, or worker-pool
        # orchestration.  All LRU mutation (lookup reordering, insert,
        # eviction) and counter updates happen under this lock;
        # OrderedDict.move_to_end + eviction are not atomic on their
        # own.  (Worker *processes* each hold their own cache — plans
        # are process-local by design.)
        self._lock = threading.RLock()
        if store is not None:
            self._hydrate(store)

    def _hydrate(self, store) -> None:
        """Load every persisted plan (oldest first, so recent = MRU).

        Persisted keys are purely symbolic (the store refuses
        identity-marked ones), so hydrated entries need no pins; their
        keys can be matched by any structurally-equal future query.
        """
        with self._lock:
            for key, partition, kind, score in store.load_all():
                self._entries[key] = CachedPlan(
                    partition=partition, kind=kind, score=score,
                    origin="store")
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(self, query: DurabilityQuery, kind: object = "greedy",
                initial_value: Optional[float] = None):
        """The cache key a query maps to (exposed for inspection).

        ``initial_value`` lets callers that already evaluated the
        query's initial state (a model invocation) avoid a second one.
        """
        value_fn = query.value_function
        if isinstance(value_fn, ThresholdValueFunction):
            threshold_key = (
                _callable_identity(value_fn.z),
                round(math.log2(value_fn.beta)
                      * self.threshold_buckets_per_octave),
            )
        else:
            threshold_key = (_callable_identity(value_fn),)
        if initial_value is None:
            initial_value = query.initial_value()
        initial_bucket = round(initial_value / self.value_bucket)
        return (kind, process_family(query.process), query.horizon,
                initial_bucket, threshold_key)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, query: DurabilityQuery,
            kind: object = "greedy") -> Optional[CachedPlan]:
        """Return the cached plan for this query shape, or None.

        A hit refreshes the entry's LRU position and re-prunes the plan
        against the query's actual initial value (bucket neighbours can
        differ slightly).
        """
        initial_value = query.initial_value()
        key = self.key_for(query, kind, initial_value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        pruned = entry.partition.pruned_above(initial_value)
        if pruned == entry.partition:
            return entry
        return CachedPlan(partition=pruned, kind=entry.kind,
                          score=entry.score, pins=entry.pins,
                          origin=entry.origin)

    def put(self, query: DurabilityQuery, partition: LevelPartition,
            kind: object = "greedy", score: float = math.inf,
            origin: str = "search") -> None:
        """Memoize a plan for this query shape (LRU-evicting).

        With a persistent :attr:`store` attached, the entry is also
        written through (for persistable keys), so it survives
        restarts.
        """
        key = self.key_for(query, kind)
        with self._lock:
            self._entries[key] = CachedPlan(
                partition=partition, kind=kind, score=score,
                pins=(query.process, query.value_function),
                origin=origin)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        if self.store is not None:
            self.store.save(key, partition, score=score)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Hit/miss counters and occupancy, for service observability."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __repr__(self) -> str:
        return (f"PlanCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
