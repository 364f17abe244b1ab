"""Cost-aware admission: classify, rate-limit, queue, shed.

Motivated by Wu et al., "Uncertainty Aware Query Execution Time
Prediction" (arXiv 1408.6589): the cheapest way to keep tail latency
bounded is to *predict cost before executing* and act at the front
door.  The serving tier has exactly the cheap predictors that paper
asks for:

* a request's **class** is decidable without simulating anything —
  SRS point queries and MLSS queries whose plan-cache bucket is warm
  are ``cache_hit`` (one bounded sampling pass); MLSS queries whose
  bucket is cold are ``cold_search`` (a greedy/pilot plan search
  *precedes* sampling); fused multi-entity batches are ``fleet`` and
  whole-grid requests are ``curve``, both scaled by member count;
* each class carries **cost units** (configurable), and admission is a
  bounded counting semaphore over units: a big fleet occupies the
  capacity several point queries would.

Under load the controller degrades in order: expensive classes
(``cold_search`` / ``fleet``) are shed first (at a configurable
fraction of the queue), then the bounded queue sheds everything
(HTTP 503), and per-tenant token buckets turn away abusive clients
with HTTP 429 + ``Retry-After`` before they occupy a queue slot.
Admitted requests that wait longer than ``queue_timeout_seconds`` are
shed rather than served arbitrarily late.  When the metrics watchdog
flags the tier as *stalled* (:meth:`set_stalled`, pushed from
:meth:`repro.serve.watchdog.Watchdog.sample`), expensive classes are
shed outright (503 + ``Retry-After``) — admitting a plan search or a
fused fleet pass into a wedged executor only deepens the stall, while
cheap cache-hit traffic keeps probing whether the tier has recovered.

The controller is event-loop-confined (no locks): every method must be
called from the server's asyncio thread.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from typing import Callable, Optional, Sequence

from ..engine.cache import PlanCache
from ..engine.policy import ExecutionPolicy
from ..engine.service import plan_kind
from .config import ServeConfig

#: Request classes, cheapest first.
COST_CLASSES = ("cache_hit", "curve", "fleet", "cold_search")

#: Classes shed early under load (plan search / big fused passes).
EXPENSIVE_CLASSES = frozenset({"cold_search", "fleet"})

#: Batch size at which a fusible batch counts as a fleet.
FLEET_MIN_MEMBERS = 4

#: Members covered by one fleet/curve cost unit block.
MEMBERS_PER_UNIT = 32


class AdmissionError(Exception):
    """A request turned away at the front door."""

    kind = "admission"
    http_status = 503

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RateLimitedError(AdmissionError):
    """Tenant over its token-bucket rate (HTTP 429)."""

    kind = "rate_limited"
    http_status = 429


class SheddedError(AdmissionError):
    """Load shed: queue full, expensive under load, or timed out."""

    kind = "shed"
    http_status = 503


class TokenBucket:
    """A continuous-refill token bucket."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = rate
        self.burst = max(burst, 1.0)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def try_acquire(self, cost: float = 1.0) -> Optional[float]:
        """Take ``cost`` tokens; None on success, else seconds-to-wait."""
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= cost:
            self._tokens -= cost
            return None
        return (cost - self._tokens) / self.rate


class RateLimiter:
    """Per-tenant token buckets from the serving config."""

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._buckets: dict = {}
        self.update_config(config)

    def update_config(self, config: ServeConfig) -> None:
        self._default_rps = config.rate_default_rps
        self._default_burst = config.rate_default_burst
        self._tenants = {tenant: (float(spec["rps"]),
                                  float(spec.get("burst", spec["rps"])))
                         for tenant, spec in config.rate_tenants.items()}
        self._buckets.clear()  # re-derive buckets under the new limits

    def _limits_for(self, tenant: str) -> Optional[tuple]:
        if tenant in self._tenants:
            rps, burst = self._tenants[tenant]
        else:
            rps, burst = self._default_rps, self._default_burst
        if rps <= 0:
            return None  # unlimited
        return rps, burst

    def check(self, tenant: str) -> None:
        """Raise :class:`RateLimitedError` if the tenant is over rate."""
        limits = self._limits_for(tenant)
        if limits is None:
            return
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                *limits, clock=self._clock)
        wait = bucket.try_acquire()
        if wait is not None:
            raise RateLimitedError(
                f"tenant {tenant!r} over its rate limit "
                f"({limits[0]:g} req/s)", retry_after=wait)


# ----------------------------------------------------------------------
# Cost classification
# ----------------------------------------------------------------------

def _plan_is_warm(query, policy: ExecutionPolicy,
                  plan_cache: Optional[PlanCache]) -> bool:
    """Would this MLSS query skip plan search?  (A pure probe: no
    hit/miss counters move, no entries are touched.)"""
    if not policy.use_plan_cache or plan_cache is None:
        return False
    try:
        return plan_cache.key_for(query, plan_kind(policy.num_levels)) \
            in plan_cache
    except Exception:
        return False  # unprobeable shapes admit conservatively as cold


def _scaled_units(base: float, members: int) -> int:
    return max(1, int(base) * math.ceil(max(members, 1)
                                        / MEMBERS_PER_UNIT))


def classify_request(kind: str, queries: Sequence, policy: ExecutionPolicy,
                     plan_cache: Optional[PlanCache] = None,
                     explicit_plan: bool = False,
                     cost_units: Optional[dict] = None) -> tuple:
    """Predict a request's cost class and units before executing it.

    ``kind`` is the route family (``"answer"``, ``"batch"``,
    ``"curve"``, ``"curves"``); returns ``(cost_class, units)``.
    """
    units = dict(ServeConfig().cost_units)
    units.update(cost_units or {})
    if kind in ("curve", "curves"):
        return "curve", _scaled_units(units["curve"], len(queries))
    if kind == "batch" and len(queries) >= FLEET_MIN_MEMBERS \
            and policy.fuse:
        families = {query.process.fusion_key() for query in queries}
        if None not in families:
            return "fleet", _scaled_units(units["fleet"], len(queries))
    cold = 0
    for query in queries:
        if policy.method == "srs" or explicit_plan:
            continue
        if not _plan_is_warm(query, policy, plan_cache):
            cold += 1
    if cold:
        return "cold_search", max(1, int(units["cold_search"]) * cold)
    return "cache_hit", max(1, int(units["cache_hit"]) * len(queries))


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------

class Ticket:
    """An admitted request's capacity claim; release exactly once."""

    def __init__(self, controller: "AdmissionController", units: int,
                 cost_class: str):
        self._controller = controller
        self.units = units
        self.cost_class = cost_class
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self.units)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Bounded, cost-aware request admission (asyncio, loop-confined)."""

    def __init__(self, config: ServeConfig, metrics=None,
                 clock: Callable[[], float] = time.monotonic):
        self._metrics = metrics
        self._clock = clock
        self.in_flight_units = 0
        self.in_flight_requests = 0
        self.stalled = False
        self._waiters: deque = deque()  # (future, units)
        self.rate_limiter = RateLimiter(config, clock=clock)
        self.update_config(config)

    def update_config(self, config: ServeConfig) -> None:
        self._capacity = config.max_inflight_units
        self._max_queue = config.max_queue
        self._expensive_queue = int(config.max_queue
                                    * config.expensive_queue_fraction)
        self._timeout = config.queue_timeout_seconds
        self.cost_units = dict(config.cost_units)
        self.rate_limiter.update_config(config)
        self._grant_waiters()

    # -- introspection -------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def stats(self) -> dict:
        return {"in_flight_units": self.in_flight_units,
                "in_flight_requests": self.in_flight_requests,
                "queued": self.queued,
                "capacity_units": self._capacity,
                "max_queue": self._max_queue,
                "stalled": self.stalled}

    def set_stalled(self, stalled: bool) -> None:
        """The watchdog's stall verdict (loop-confined, like admit).

        While set, :meth:`admit` sheds ``cold_search``/``fleet``
        requests outright; the verdict clears on the watchdog's next
        progressed sample.
        """
        self.stalled = bool(stalled)

    # -- admit / release ----------------------------------------------

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    async def admit(self, tenant: str, cost_class: str,
                    units: int) -> Ticket:
        """Admit or turn away one request (may wait, bounded)."""
        try:
            self.rate_limiter.check(tenant)
        except RateLimitedError:
            self._count("admission.rate_limited")
            raise
        units = min(max(1, units), self._capacity)  # one request may
        # never demand more than total capacity, or it would wait forever
        if self.stalled and cost_class in EXPENSIVE_CLASSES:
            # A stalled tier means work already admitted is not
            # completing; adding plan searches or fleet passes on top
            # only digs deeper.  Shed them immediately and tell clients
            # when to probe again (one watchdog verdict cycle).
            self._count("admission.shed_stalled")
            raise SheddedError(
                f"{cost_class} request shed: serving tier is stalled "
                f"(watchdog verdict); retry after the stall clears",
                retry_after=self._timeout)
        if self.in_flight_units + units <= self._capacity \
                and not self._waiters:
            return self._grant(units, cost_class)
        if cost_class in EXPENSIVE_CLASSES \
                and len(self._waiters) >= self._expensive_queue:
            self._count("admission.shed_expensive")
            raise SheddedError(
                f"{cost_class} request shed: {len(self._waiters)} "
                f"requests already queued (expensive-class limit "
                f"{self._expensive_queue})")
        if len(self._waiters) >= self._max_queue:
            self._count("admission.shed_queue_full")
            raise SheddedError(
                f"request shed: admission queue full "
                f"({self._max_queue})")
        future = asyncio.get_running_loop().create_future()
        entry = (future, units, cost_class)
        self._waiters.append(entry)
        try:
            return await asyncio.wait_for(future, timeout=self._timeout)
        except asyncio.TimeoutError:
            try:
                self._waiters.remove(entry)
            except ValueError:
                pass
            # The grant may have landed at the buzzer (result set just
            # as the timeout fired): honour it rather than leaking the
            # claimed units.
            if future.done() and not future.cancelled() \
                    and future.exception() is None:
                return future.result()
            self._count("admission.shed_timeout")
            raise SheddedError(
                f"request shed: waited longer than {self._timeout:g}s "
                f"for admission") from None

    def _grant(self, units: int, cost_class: str) -> Ticket:
        self.in_flight_units += units
        self.in_flight_requests += 1
        self._count("admission.admitted")
        self._count(f"admission.class.{cost_class}")
        return Ticket(self, units, cost_class)

    def _release(self, units: int) -> None:
        self.in_flight_units -= units
        self.in_flight_requests -= 1
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        """Grant queued requests (FIFO) that now fit the capacity.

        The grant happens *here*, synchronously — units are claimed
        before the woken coroutine resumes, so a release can never
        over-admit through a not-yet-scheduled waiter.
        """
        while self._waiters:
            future, units, cost_class = self._waiters[0]
            if future.done():  # timed out / cancelled; abandoned
                self._waiters.popleft()
                continue
            units = min(units, self._capacity)
            if self.in_flight_units + units > self._capacity \
                    and self.in_flight_requests > 0:
                break
            self._waiters.popleft()
            future.set_result(self._grant(units, cost_class))
