"""Deterministic fault schedules and their injection hooks.

A :class:`FaultPlan` is a *schedule*, not a probability: each fault
site carries an explicit set of 0-based call indices at which to fire.
The i-th time a site is consulted, the plan either injects (index in
the schedule) or does nothing — so two runs with the same plan and the
same call sequence inject the same faults at the same points, and a
test can assert exactly what was injected (:attr:`FaultPlan.fired`).

Sites
-----
``pool.dispatch``
    Consulted by :class:`~repro.core.pool.WorkerPool` in the parent,
    right after handing a task to a fork worker.  Scheduled indices
    SIGKILL that worker (:meth:`WorkerPool.kill_worker`) — mid-round
    worker death, the supervisor's recovery path.  An inline pool runs
    tasks in the caller and never dispatches, so it never consults
    this site.
``pool.task``
    Consulted inside the executing worker before running a task.
    Scheduled indices sleep ``delay_seconds`` — a straggler, which
    exercises deadline handling without wall-clock assertions.
``store.write``
    Consulted by :meth:`~repro.db.plan_store.PlanStore.save` inside
    its transaction.  Scheduled indices raise ``sqlite3.OperationalError``
    — the store must soft-fail (count, return False), never crash the
    answer path.
``serve.request``
    Consulted by the serving tier before routing a data-plane request.
    Scheduled indices raise :class:`InjectedFault`; the server turns
    it into a structured 503 ``transient`` reply with ``Retry-After``
    — never a protocol error — which retrying clients must absorb.

Use :func:`inject` to install a plan into every hooked module for the
duration of a ``with`` block:

    plan = FaultPlan(worker_kills=(2, 5))
    with inject(plan):
        estimate = sampler.run(query, n_roots=600, seed=7)
    assert plan.fired["pool.dispatch"] == 2

Schedules can also be drawn from a seed (:meth:`FaultPlan.seeded`) so
stress harnesses get varied-but-reproducible fault patterns.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time

import numpy as np

#: The four hook sites, in the order seeded schedules draw them.
SITES = ("pool.dispatch", "pool.task", "store.write", "serve.request")


class InjectedFault(Exception):
    """A deliberately injected transient failure (serve.request site)."""


class FaultPlan:
    """A deterministic, thread-safe schedule of faults per site.

    Parameters
    ----------
    worker_kills / task_delays / store_write_errors / serve_errors:
        Iterables of 0-based call indices at which the corresponding
        site injects (see module docstring for what each site does).
    delay_seconds:
        Sleep length for ``pool.task`` delay injections.
    """

    def __init__(self, worker_kills=(), task_delays=(),
                 store_write_errors=(), serve_errors=(),
                 delay_seconds: float = 0.05):
        if delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {delay_seconds}")
        self.schedule = {
            "pool.dispatch": frozenset(int(i) for i in worker_kills),
            "pool.task": frozenset(int(i) for i in task_delays),
            "store.write": frozenset(int(i) for i in store_write_errors),
            "serve.request": frozenset(int(i) for i in serve_errors),
        }
        for site, indices in self.schedule.items():
            if any(index < 0 for index in indices):
                raise ValueError(
                    f"{site} schedule has a negative index: "
                    f"{sorted(indices)}")
        self.delay_seconds = delay_seconds
        #: Calls seen per site (every consultation, injected or not).
        self.calls = {site: 0 for site in SITES}
        #: Faults actually injected per site.
        self.fired = {site: 0 for site in SITES}
        # Sites are consulted from many threads (pool parent threads,
        # serve executor threads), so the counters need a lock.
        # Forked workers consult a *copy* of the plan — only
        # parent-side counters are observable, which is why kills and
        # store/serve faults (all parent-side) are the sites tests
        # assert on.
        self._lock = threading.Lock()

    @classmethod
    def seeded(cls, seed: int, calls_per_site: int = 32,
               rate: float = 0.1, delay_seconds: float = 0.05
               ) -> "FaultPlan":
        """Draw one schedule per site from a seeded generator.

        Each site gets ``round(rate * calls_per_site)`` distinct
        indices in ``[0, calls_per_site)``.  Same seed, same plan —
        reproducible stress runs without hand-written schedules.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        rng = np.random.default_rng(seed)
        count = int(round(rate * calls_per_site))
        picks = [sorted(int(i) for i in
                        rng.choice(calls_per_site, size=count,
                                   replace=False))
                 if count else []
                 for _ in SITES]
        return cls(worker_kills=picks[0], task_delays=picks[1],
                   store_write_errors=picks[2], serve_errors=picks[3],
                   delay_seconds=delay_seconds)

    def _step(self, site: str) -> bool:
        """Advance the site's call counter; True when this call fires."""
        with self._lock:
            index = self.calls[site]
            self.calls[site] = index + 1
            fire = index in self.schedule[site]
            if fire:
                self.fired[site] += 1
            return fire

    def hook(self, site: str, **context) -> None:
        """The callable installed at every ``fault_hook`` slot."""
        if site not in self.schedule:
            return
        if site == "pool.dispatch":
            if self._step(site):
                context["pool"].kill_worker(context["worker_id"])
        elif site == "pool.task":
            if self._step(site):
                time.sleep(self.delay_seconds)
        elif site == "store.write":
            if self._step(site):
                raise sqlite3.OperationalError(
                    "injected plan-store write failure")
        elif site == "serve.request":
            if self._step(site):
                raise InjectedFault(
                    f"injected transient serve fault "
                    f"(call {self.calls[site] - 1})")


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Install ``plan.hook`` at every fault site for a ``with`` block.

    Installs into :mod:`repro.core.pool`, :mod:`repro.db.plan_store`
    and — when it is importable — :mod:`repro.serve.server`; previous
    hooks are restored on exit, exception or not.  Nesting installs
    the innermost plan (hooks do not chain).
    """
    from ..core import pool as pool_module
    from ..db import plan_store as store_module
    try:
        from ..serve import server as server_module
    except ImportError:  # pragma: no cover - serve tier always ships
        server_module = None
    saved = (pool_module.fault_hook, store_module.fault_hook,
             server_module.fault_hook if server_module else None)
    pool_module.fault_hook = plan.hook
    store_module.fault_hook = plan.hook
    if server_module is not None:
        server_module.fault_hook = plan.hook
    try:
        yield plan
    finally:
        pool_module.fault_hook = saved[0]
        store_module.fault_hook = saved[1]
        if server_module is not None:
            server_module.fault_hook = saved[2]
