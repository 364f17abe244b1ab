"""Persistent worker pool (Section 3.1, "Parallel Computations").

Root trees, SRS paths, fleet members and plan-search trials are all
independent, so every sampler in the library parallelizes by *sharding
work over workers*.  Each worker runs the same kernels as a
single-process run — :func:`repro.core.srs.run_rows` for ``CurveWork``
root tasks, ``FleetWork("curves")`` member slices and balanced-pilot
chunks, the splitting forest for the rest — so adding workers
multiplies that throughput rather than replacing it.  The execution layer is
persistent:

* :class:`WorkerPool` — long-lived workers.  ``"fork"`` starts worker
  *processes*; ``"inline"`` runs the identical code path in the caller
  (and stands in for ``"fork"`` where fork is unavailable).  A *work*
  — query, partition, fleet — is registered **once** (one pickle per
  worker); subsequent rounds send only tiny *work descriptors* (task
  id, root budget, derived seed).  Every task's result returns on its
  worker's result pipe: forest tasks return their per-root counters as
  a :class:`~repro.core.records.ForestCohort` of six ``int64`` arrays,
  which the parent folds with :meth:`~repro.core.records.
  ForestAggregate.extend`.
* :class:`_TaskStream` / :meth:`WorkerPool.stream` — the pipelined
  submission path.  ``submit`` is non-blocking and ``collect`` returns
  results in submission order, so callers can keep a bounded window of
  tasks in flight: workers that finish a round's tasks early pick up
  the next round's tasks while the parent still waits on stragglers,
  instead of idling at a per-round barrier.  :meth:`WorkerPool.
  run_tasks` (submit everything, collect everything) is a thin wrapper
  over a stream.
* :class:`RoundPipeline` — one-round-lookahead speculation on top of a
  stream for round-structured callers (the pooled samplers, whose
  rounds always run through it; there is no per-round barrier path):
  while round *k*'s stragglers drain, round *k+1*'s *predicted* tasks
  are already queued; if the stopping rule ends the run first, the
  speculative results are discarded unread.  Because tasks are pure
  and results merge in task order, speculation changes wall-clock
  only, never results.  The inline pool runs a task only when its
  result is collected, so speculation never executes there.
* :class:`PooledForestRunner` — a drop-in implementation of the
  one-member ``accumulate`` contract of :class:`~repro.core.forest.
  VectorizedForestRunner`, so the one MLSS round loop (g-MLSS and
  s-MLSS, point *and* curve passes) runs pooled without changing a
  line of its stopping logic.

Determinism
-----------

Work decomposes into tasks of a fixed size (``roots_per_task`` roots,
``members_per_task`` fleet members) whose seeds derive from the *task
index* via :func:`derive_task_seed` — never from the worker count or
which worker ran them.  Task results merge in task order.  Consequently
pooled results are **byte-identical across ``n_workers`` and pool
modes** for a fixed seed, whether or not speculation ran ahead:
``n_workers`` changes how fast the answer arrives, not what it is.
(Pooled and single-pass sequential runs draw different stream layouts,
so they agree in distribution, not bytes.)

Budgets
-------

``max_roots`` is exact.  ``max_steps`` is *strict*: the final round's
tasks are trimmed against the remaining budget and each task carries a
per-task step cap that its worker enforces by never starting a root
tree whose worst-case cost no longer fits (see
:func:`_worst_case_root_cost`); a round is cut into no more tasks than
the budget can fund with one worst-case tree each.  A budget that
cannot fund a single sample before any is drawn (one SRS path, one
worst-case root tree) raises :class:`StepBudgetError` instead of
answering from zero samples.  Strictness costs pipelining — a round's
caps depend on the previous round's measured spend, so speculation is
disabled under ``max_steps``.

Cost accounting is unchanged throughout: workers count one invocation
of ``g`` per path per step and the parent sums their counters.

Fault tolerance
---------------

A dead worker no longer necessarily aborts the run.  The parent's
result loop doubles as a supervisor: when a worker process dies (or,
with ``task_timeout_seconds`` set, overruns its deadline and is
terminated), the pool respawns it in the same slot, re-registers every
live work descriptor on the replacement, and re-submits only the tasks
that were in flight on that worker.  Because task seeds are structural
(:func:`derive_task_seed` over the task *index*), a re-executed task is
**byte-identical** to the original, so recovery preserves every
determinism gate.  Workers return results over *per-worker pipes*
written synchronously in the worker —
a crash, even mid-send, can wedge only the dying worker's own channel
(discarded at respawn); a shared ``mp.Queue`` would let one SIGKILL
orphan the queue's write lock and hang every surviving worker.
``max_worker_restarts``
bounds respawns per burst of work and ``task_retry_limit`` bounds
re-submissions of any single task; once either budget is exhausted the
pool falls back to the historical behavior — tear everything down
and raise a ``RuntimeError``, never hang.
The default budget is 0, i.e. supervision is opt-in;
:class:`~repro.engine.policy.ParallelPolicy` turns it on for
engine-owned pools.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Optional, Sequence

import numpy as np

from .forest import VectorizedForestRunner, validate_plan
from .levels import normalize_ratios
from .records import ForestCohort

#: Pool execution modes: forked worker processes (``"fork"``) and the
#: in-caller fallback used when ``n_workers == 1``, where fork is
#: unavailable, or on request (``"inline"``).
POOL_MODES = ("fork", "inline")

#: Optional fault-injection hook (see :mod:`repro.faults`): a callable
#: ``hook(site, **context)`` or ``None``.  Sites consulted here:
#: ``"pool.dispatch"`` in the parent right after a task is handed to a
#: fork worker (context: ``pool``, ``worker_id``, ``task_id``) — where a
#: :class:`~repro.faults.FaultPlan` kills workers at a point where the
#: victim is provably between tasks, so queues stay uncorrupted — and
#: ``"pool.task"`` in the executing worker before a task runs (inline
#: pools always; fork workers via inheritance).
fault_hook = None

_SEED_MOD = 2 ** 31

#: How many tasks each stopping-rule round is cut into (at least).  A
#: *constant* (not derived from ``n_workers``), so the task
#: decomposition — and with it every pooled result — is identical
#: however many workers happen to drain the queue.
DEFAULT_TASKS_PER_ROUND = 8
DEFAULT_ROOTS_PER_TASK = 256
DEFAULT_MEMBERS_PER_TASK = 32


class StepBudgetError(ValueError):
    """A strict pooled ``max_steps`` too small to fund a single sample.

    Raised before any sample is drawn, when the whole budget cannot pay
    for one SRS path (``horizon`` steps) or one worst-case root tree;
    the message names both numbers.
    """


def derive_task_seed(seed: Optional[int], index: int,
                     salt: str = "task") -> Optional[int]:
    """Deterministic per-task seed from the run seed and task *index*.

    Structural: depends only on what the task is (its position in the
    work's task sequence), never on worker count or scheduling, which
    is what makes pooled results invariant under ``n_workers``.
    ``None`` stays ``None`` (fresh entropy per task).
    """
    if seed is None:
        return None
    digest = hashlib.blake2b(
        repr((int(seed), salt, int(index))).encode("utf-8"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_MOD


def cut_tasks(cohort: int, roots_per_task: int, seed: Optional[int],
              task_index: int, step_budget: Optional[int] = None) -> tuple:
    """Cut one round into fixed-size ``(n, seed[, cap])`` tasks.

    The single home of the task decomposition every pooled pass uses
    (forest rounds and SRS rounds): task sizes
    depend only on ``roots_per_task`` and seeds only on the running
    ``task_index``, which is what the byte-determinism guarantee rests
    on.  With ``step_budget``, each task additionally carries its share
    of the remaining step budget (proportional to its root count) as a
    hard per-task cap — the worker stops launching roots once the cap
    cannot cover another worst-case tree, so the round can never
    overshoot ``step_budget``.  Returns ``(tasks, next_task_index)``.
    """
    tasks = []
    remaining = cohort
    while remaining > 0:
        n_roots = min(remaining, roots_per_task)
        task_seed = derive_task_seed(seed, task_index)
        if step_budget is None:
            tasks.append((n_roots, task_seed))
        else:
            tasks.append((n_roots, task_seed,
                          step_budget * n_roots // cohort))
        task_index += 1
        remaining -= n_roots
    return tasks, task_index


# ----------------------------------------------------------------------
# Work descriptors (registered once, pickled once per worker)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForestWork:
    """A splitting-forest work unit: tasks are ``(n_roots, seed)`` or
    ``(n_roots, seed, step_cap)``.

    Results are the task's per-root counters as one
    :class:`~repro.core.records.ForestCohort`.  A ``step_cap`` makes
    the task stop launching roots once the cap cannot cover another
    worst-case tree, so capped tasks never exceed their budget share.
    """

    query: object
    partition: object
    ratios: tuple


@dataclass(frozen=True)
class CurveWork:
    """An SRS work unit (a point answer is the one-level grid): tasks
    are ``(n_paths, seed)``; results are
    ``(level_counts, n_paths, steps)``."""

    query: object
    levels: tuple


@dataclass(frozen=True)
class FleetWork:
    """A fused-fleet work unit: tasks are member slices
    ``(lo, hi, seed)``; each task screens its slice to completion
    through one :class:`~repro.processes.base.FusedBatch` frontier.

    ``mode`` selects the pass: ``"curves"`` (per-member threshold
    *grids*, SRS; a one-threshold screen is the one-level grid) or
    ``"mlss"`` (fused splitting forest under ``sampler``'s shared
    normalized partition, grown by its round loop).
    """

    mode: str
    processes: tuple
    z: object
    horizon: int
    betas: tuple = ()
    grids: tuple = ()
    sampler: object = None
    quality: object = None
    max_steps: Optional[int] = None
    max_roots: Optional[int] = None
    batch_roots: int = 500
    adaptive: bool = True


@dataclass(frozen=True)
class PlanSearchWork:
    """A plan-search work unit (greedy trials and balanced pilots).

    Tasks are ``("trial", boundaries, seed)`` — run one fixed-budget
    :func:`~repro.core.optimizer.evaluate_partition` trial of the plan
    with those interior boundaries and return the
    :class:`~repro.core.optimizer.PlanTrial` — or
    ``("pilot", n_paths, seed)`` — run one chunk of the balanced-growth
    SRS pilot and return its (unsorted) per-path maxima.  Trial and
    pilot seeds are structural (derived from the trial/chunk index), so
    pool-sharded plan search returns byte-identical plans to the
    parent-only search.
    """

    query: object
    ratio: object = 3
    trial_steps: int = 20000


# ----------------------------------------------------------------------
# Task execution (shared verbatim by workers and inline mode)
# ----------------------------------------------------------------------

def _execute(spec, payload):
    """Run one task of ``spec``; the single code path for every mode."""
    if fault_hook is not None:
        fault_hook("pool.task", spec=spec, payload=payload)
    if isinstance(spec, ForestWork):
        return _run_forest_task(spec, payload)
    if isinstance(spec, CurveWork):
        return _run_curve_task(spec, payload)
    if isinstance(spec, FleetWork):
        return _run_fleet_task(spec, payload)
    if isinstance(spec, PlanSearchWork):
        return _run_plan_task(spec, payload)
    raise TypeError(f"unknown work descriptor {type(spec).__name__}")


def _worst_case_root_cost(spec: ForestWork) -> int:
    """An upper bound on one root tree's step cost under ``spec``.

    A tree has at most ``prod_{k<=i} r_k`` path segments at level ``i``
    and every segment runs at most ``horizon`` steps, so the tree costs
    at most ``horizon * sum_i prod_{k<=i} r_k``.  Deliberately
    conservative: it is the guarantee behind the strict ``max_steps``
    contract (a capped task never *starts* a root it might not afford).
    """
    total = 0
    product = 1
    for ratio in spec.ratios:
        product *= ratio
        total += product
    return spec.query.horizon * total


def _run_forest_task(spec: ForestWork, payload) -> ForestCohort:
    if len(payload) == 2:
        (n_roots, seed), step_cap = payload, None
    else:
        n_roots, seed, step_cap = payload
    runner = VectorizedForestRunner(spec.query, spec.partition,
                                    spec.ratios, np.random.default_rng(seed))
    if step_cap is None:
        return runner.run_cohort(n_roots)
    # Strict budget: only start roots whose worst-case tree cost still
    # fits under the cap.  The chunk sequence depends only on the
    # payload (and the per-chunk simulation itself), so capped tasks
    # stay byte-identical across workers and pool modes.  The empty
    # first chunk keeps the arrays' shapes when no root fits.
    worst = _worst_case_root_cost(spec)
    chunks = [runner.run_cohort(0)]
    used = 0
    remaining = n_roots
    while remaining > 0 and used + worst <= step_cap:
        affordable = max(int((step_cap - used) // worst), 1)
        chunk = runner.run_cohort(min(remaining, affordable))
        chunks.append(chunk)
        used += int(chunk.steps.sum())
        remaining -= len(chunk.steps)
    return ForestCohort(*map(np.concatenate, zip(*chunks)))


def _run_curve_task(spec: CurveWork, payload):
    n_paths, seed = payload
    from .srs import QueryRows, run_rows  # circular-import guard
    counts, n_paths, steps, _ = run_rows(
        QueryRows(spec.query, spec.levels), spec.query.horizon,
        np.random.default_rng(seed), None, None, n_paths, n_paths)
    return (tuple(counts[0]), n_paths[0], steps[0])


def _run_fleet_task(spec: FleetWork, payload):
    lo, hi, seed = payload
    from ..processes.base import FusedBatch  # circular-import guard
    from . import fleet  # circular-import guard
    from .srs import FleetRows, run_rows  # circular-import guard
    fused = FusedBatch(spec.processes[lo:hi])
    if spec.mode == "curves":
        return run_rows(
            FleetRows(fused, spec.z, spec.grids[lo:hi]), spec.horizon,
            np.random.default_rng(seed), spec.quality, spec.max_steps,
            spec.max_roots, spec.batch_roots, spec.adaptive)
    if spec.mode == "mlss":
        return fleet._mlss_rows(
            spec.sampler, fused, spec.z, spec.betas[lo:hi], spec.horizon,
            spec.quality, spec.max_steps, spec.max_roots, seed,
            spec.adaptive)
    raise ValueError(f"unknown fleet mode {spec.mode!r}")


def _run_plan_task(spec: PlanSearchWork, payload):
    kind = payload[0]
    if kind == "trial":
        _, boundaries, seed = payload
        from .levels import LevelPartition  # local: keep import cheap
        from .optimizer import evaluate_partition  # circular-import guard
        return evaluate_partition(
            spec.query, LevelPartition(boundaries), ratio=spec.ratio,
            trial_steps=spec.trial_steps, seed=seed)
    if kind == "pilot":
        _, n_paths, seed = payload
        from .balanced import pilot_chunk_max_values  # circular-import guard
        return pilot_chunk_max_values(spec.query, n_paths, seed=seed)
    raise ValueError(f"unknown plan-search task kind {kind!r}")


# ----------------------------------------------------------------------
# Worker main loop
# ----------------------------------------------------------------------

def _worker_main(worker_id: int, task_queue, result_channel) -> None:
    """Long-lived worker process: register works once, run tasks forever.

    Messages: ``("register", handle, spec)``, ``("run", handle,
    task_id, payload)``, ``("unregister", handle)`` and ``("stop",)``.
    Results: ``(worker_id, task_id, "ok", result)`` or ``(worker_id,
    task_id, "error", traceback_text)``.

    ``result_channel`` is this worker's *private* pipe connection,
    written synchronously in this thread — no feeder thread, no lock
    shared with other workers, so a worker killed at any moment can
    wedge at most its own channel, which the supervisor discards
    wholesale.
    """
    specs: dict = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "register":
            _, handle, spec = message
            specs[handle] = spec
        elif kind == "unregister":
            specs.pop(message[1], None)
        elif kind == "run":
            _, handle, task_id, payload = message
            try:
                result = _execute(specs[handle], payload)
                result_channel.send((worker_id, task_id, "ok", result))
            except Exception:
                result_channel.send((worker_id, task_id, "error",
                                     traceback.format_exc()))


# ----------------------------------------------------------------------
# Streams: the pipelined submission path
# ----------------------------------------------------------------------

class _TaskStream:
    """Ordered, pipelined task submission for one registered work.

    ``submit`` enqueues a payload without blocking and returns its
    sequence number; ``collect`` blocks until that task's result is
    available, receiving worker results from the pool's result pipes
    (one per worker) and routing each to its stream as needed.
    Several streams may be open on one pool at once — every in-flight
    task carries a pool-unique id, so results are routed to their
    owning stream whatever order workers finish in (this is also what
    makes concurrent ``run_tasks`` calls from several threads safe).
    ``discard`` drops a submitted task's result (cancelling it outright
    if it has not been dispatched yet) — the primitive behind
    speculative round submission.

    On the inline pool, submitted tasks execute lazily inside
    ``collect``, so discarded speculative tasks cost nothing.

    The in-flight window is bounded by the caller: each worker holds at
    most one outstanding task, and the pooled samplers submit at most
    one round ahead, so at most two rounds of tasks are ever pending or
    running per stream.
    """

    __slots__ = ("pool", "handle", "_next_seq", "_pending", "_live",
                 "_results", "_discarded", "_retries", "_closed")

    def __init__(self, pool: "WorkerPool", handle: int):
        self.pool = pool
        self.handle = handle
        self._next_seq = 0
        self._pending: dict = {}    # seq -> payload, not yet dispatched
        self._live: set = set()     # seqs running on a worker
        self._results: dict = {}    # seq -> result
        self._discarded: set = set()  # live seqs to drop on arrival
        self._retries: dict = {}    # seq -> prior submission count
        self._closed = False

    def submit(self, payload) -> int:
        """Queue one task; returns its sequence number (never blocks)."""
        pool = self.pool
        with pool._lock:
            if self._closed:
                raise RuntimeError("the stream is closed")
            if pool._closed:
                raise RuntimeError("the pool is closed")
            seq = self._next_seq
            self._next_seq += 1
            self._pending[seq] = payload
            if pool.mode != "inline":
                pool._dispatch.append((self, seq))
                pool._pump()
            return seq

    def collect(self, seq: int):
        """Block until task ``seq``'s result is ready and return it."""
        pool = self.pool
        with pool._lock:
            while True:
                if seq in self._results:
                    return self._results.pop(seq)
                if self._closed:
                    raise RuntimeError("the stream is closed")
                if pool._closed:
                    raise RuntimeError("the pool is closed")
                if seq not in self._pending and seq not in self._live:
                    raise KeyError(
                        f"task {seq} was never submitted or was discarded")
                if pool.mode == "inline":
                    payload = self._pending.pop(seq)
                    return _execute(pool._specs[self.handle], payload)
                pool._pump()
                pool._route_one()

    def discard(self, seq: int) -> None:
        """Drop task ``seq``'s result (cancel it if not yet dispatched)."""
        pool = self.pool
        with pool._lock:
            self._results.pop(seq, None)
            if seq in self._pending:
                # Never dispatched: the dispatch queue skips it lazily.
                del self._pending[seq]
            elif seq in self._live:
                self._discarded.add(seq)

    def close(self) -> None:
        """Cancel pending tasks and drop any in-flight results."""
        pool = self.pool
        with pool._lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
            self._results.clear()
            self._retries.clear()
            self._discarded.update(self._live)


class RoundPipeline:
    """One-round-lookahead speculation over a :class:`_TaskStream`.

    Round-structured callers (the pooled samplers) call
    :meth:`run_round` with the round's tasks plus an optional
    *prediction* of the next round's tasks.  Predicted tasks are
    submitted before the current round's results are collected, so
    workers that finish early start on the next round while the parent
    still waits on stragglers.  When the next round's actual tasks
    match the prediction (the common case — predictions are exact
    whenever the round schedule doesn't depend on unmeasured results),
    their results are simply collected; on any mismatch — or when the
    caller stops — the speculative results are discarded unread, so
    speculation can change wall-clock time but never results.  It is
    the only round schedule of the pooled samplers: there is no
    per-round barrier path to fall back to.
    """

    def __init__(self, pool: "WorkerPool", handle: int):
        self._stream = pool.stream(handle)
        self._speculated: deque = deque()  # (seq, payload) in task order

    def run_round(self, tasks: Sequence, predicted: Optional[Sequence] = None
                  ) -> list:
        """Run one round's tasks; results in task order.

        ``predicted`` — the next round's expected tasks, submitted
        speculatively before this round's results are collected.
        """
        stream = self._stream
        seqs = []
        for payload in tasks:
            if self._speculated and self._speculated[0][1] == payload:
                seqs.append(self._speculated.popleft()[0])
            else:
                self.flush()
                seqs.append(stream.submit(payload))
        # Anything speculated beyond this round's actual tasks was a
        # misprediction; drop it before speculating afresh.
        self.flush()
        for payload in (predicted or ()):
            self._speculated.append((stream.submit(payload), payload))
        return [stream.collect(seq) for seq in seqs]

    def flush(self) -> None:
        """Discard every outstanding speculative task."""
        while self._speculated:
            seq, _ = self._speculated.popleft()
            self._stream.discard(seq)

    def close(self) -> None:
        self.flush()
        self._stream.close()


class _InflightTask:
    """Everything needed to route — or deterministically re-run — one
    dispatched task: its stream and sequence number (routing), the
    payload and prior retry count (recovery), the worker it runs on
    (failure attribution) and its dispatch time (deadline checks)."""

    __slots__ = ("stream", "seq", "payload", "worker_id", "retries",
                 "started_at")

    def __init__(self, stream, seq, payload, worker_id, retries):
        self.stream = stream
        self.seq = seq
        self.payload = payload
        self.worker_id = worker_id
        self.retries = retries
        self.started_at = time.monotonic()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class WorkerPool:
    """A persistent pool of simulation workers.

    Parameters
    ----------
    n_workers:
        Worker count; ``None`` means ``os.cpu_count()``.
        ``n_workers == 1`` always runs inline (no workers) — the
        documented fallback, byte-identical to the parallel modes.
    pool:
        ``"fork"`` (default; cheap startup, Linux/macOS) or
        ``"inline"``.  Where fork is unavailable, ``"fork"`` runs
        inline.
    max_worker_restarts:
        How many dead (or deadline-overrunning) workers the supervisor
        may respawn before falling back to the abort path.  The budget
        replenishes whenever the pool goes quiescent (no tasks queued
        or in flight), so it bounds restarts per *burst* of work, not
        per pool lifetime.  ``0`` (the default) disables supervision:
        any dead worker aborts the run, exactly the historical
        behavior.
    task_retry_limit:
        How many times any single task may be re-submitted after its
        worker died; beyond it the run aborts even when restart budget
        remains (a task that kills every worker it lands on is a
        poison pill, not a crash).
    task_timeout_seconds:
        Optional per-task deadline.  A worker whose current task
        overruns it is terminated and handled exactly like a crashed
        worker (respawn + deterministic retry, budgets permitting).
        ``None`` disables the deadline; an inline pool has no worker
        to terminate and never checks it.

    The pool is content-addressed, not closure-addressed: callers
    :meth:`register` a work descriptor once (one pickle per worker),
    then run tasks through :meth:`run_tasks` (submit all,
    collect all) or a pipelined :meth:`stream`.  Results always return
    in task order, whatever order workers finish in, so merged counters
    are deterministic.  In-flight tasks carry pool-unique ids, so several
    streams — including concurrent ``run_tasks`` calls from different
    threads — share the workers without swapping results.

    A worker death during a run is survivable: with a restart budget
    (``max_worker_restarts > 0``) the supervisor respawns the worker
    and deterministically re-runs only its in-flight tasks — see the
    module docstring's *Fault tolerance* section.  Once budgets are
    exhausted (or by default), the failure aborts the run with a
    ``RuntimeError``, never a hang.

    Use as a context manager, or call :meth:`close`; an unclosed pool
    cleans up on garbage collection as a last resort.  ``close`` (and
    the abort path after a worker failure) stops the workers and closes
    every channel even when workers died mid-round.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 pool: str = "fork", max_worker_restarts: int = 0,
                 task_retry_limit: int = 1,
                 task_timeout_seconds: Optional[float] = None):
        if pool not in POOL_MODES:
            raise ValueError(
                f"unknown pool mode {pool!r}; choose from {POOL_MODES}")
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_worker_restarts < 0:
            raise ValueError(f"max_worker_restarts must be >= 0, got "
                             f"{max_worker_restarts}")
        if task_retry_limit < 0:
            raise ValueError(f"task_retry_limit must be >= 0, got "
                             f"{task_retry_limit}")
        if task_timeout_seconds is not None and task_timeout_seconds <= 0:
            raise ValueError(f"task_timeout_seconds must be > 0, got "
                             f"{task_timeout_seconds}")
        self.n_workers = n_workers
        self.max_worker_restarts = max_worker_restarts
        self.task_retry_limit = task_retry_limit
        self.task_timeout_seconds = task_timeout_seconds
        #: Lifetime supervision counters (never reset; observability).
        self.worker_restarts = 0
        self.tasks_recovered = 0
        self._restarts_used = 0
        # Platforms without fork (Windows, some macOS setups) run
        # inline: same tasks, same bytes, in the caller.
        self.mode = "fork" if (pool == "fork" and n_workers > 1
                               and "fork" in get_all_start_methods()) \
            else "inline"
        self._specs: dict = {}
        self._next_handle = 0
        self._closed = False
        # One pool may be shared by several threads (the engine keeps a
        # persistent pool across calls, and engines are documented as
        # multi-thread drivable).  All scheduler state — the dispatch
        # queue, the idle-worker list, the in-flight routing table and
        # every stream's bookkeeping — is guarded by this lock; results
        # are routed to their submitting stream by task id, so
        # concurrent streams never swap results.
        self._lock = threading.RLock()
        self._task_queues: list = []
        self._workers: list = []
        # Result transport: each worker gets a *private* pipe.
        # ``mp.Queue.put`` hands the payload to a feeder thread that
        # writes later while holding a lock shared by every worker, so
        # a SIGKILL landing mid-flush would orphan the lock and wedge
        # all surviving workers' results.  With one pipe per worker
        # (written synchronously, no feeder, no shared lock) a crash
        # can corrupt at most its own channel, which the supervisor
        # discards wholesale at respawn.
        self._result_readers: list = []
        self._result_writers: list = []
        # Scheduler state: which workers are free, which submitted
        # tasks await a worker, and which task id runs where.
        self._idle: deque = deque()
        self._dispatch: deque = deque()   # (stream, seq) awaiting dispatch
        self._inflight: dict = {}         # task id -> _InflightTask
        self._next_task_id = 0
        if self.mode == "fork":
            for worker_id in range(self.n_workers):
                task_queue, worker, reader, writer = \
                    self._spawn_worker(worker_id)
                self._task_queues.append(task_queue)
                self._workers.append(worker)
                self._result_readers.append(reader)
                self._result_writers.append(writer)
            self._idle.extend(range(self.n_workers))

    def _spawn_worker(self, worker_id: int) -> tuple:
        """A started worker process, its fresh task queue and result pipe.

        Returns ``(task_queue, worker, reader, writer)``.  The parent
        keeps the writer end open so the reader never turns
        EOF-readable: dead workers are found by the liveness sweep, not
        by racing pipe state.
        """
        context = get_context("fork")
        task_queue = context.Queue()
        reader, writer = context.Pipe(duplex=False)
        worker = context.Process(
            target=_worker_main, args=(worker_id, task_queue, writer),
            daemon=True)
        worker.start()
        return task_queue, worker, reader, writer

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop the workers and close every channel (idempotent).

        Every cleanup step is individually guarded: a worker that died
        mid-round (or a failing queue) must not keep the remaining
        workers from being stopped or channels from being closed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for task_queue in self._task_queues:
                try:
                    task_queue.put(("stop",))
                except Exception:
                    pass
            for worker in self._workers:
                try:
                    worker.join(timeout=5)
                    if worker.is_alive():
                        worker.terminate()
                        worker.join(timeout=5)
                except Exception:
                    pass
            self._specs.clear()
            self._dispatch.clear()
            self._inflight.clear()
            self._idle.clear()
            for task_queue in self._task_queues:
                try:
                    task_queue.close()
                    task_queue.cancel_join_thread()
                except Exception:
                    pass
            for conn in (*self._result_readers, *self._result_writers):
                try:
                    conn.close()
                except Exception:
                    pass
            self._result_readers.clear()
            self._result_writers.clear()

    def _abort(self, reason: str):
        """Tear the pool down after a worker failure and raise."""
        self.close()
        raise RuntimeError(f"worker task failed:\n{reason}")

    # -- registration --------------------------------------------------

    def register(self, spec) -> int:
        """Register a work descriptor on every worker; returns a handle."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the pool is closed")
            handle = self._next_handle
            self._next_handle += 1
            for task_queue in self._task_queues:
                task_queue.put(("register", handle, spec))
            self._specs[handle] = spec
            return handle

    def unregister(self, handle: int) -> None:
        """Drop a registered work from the pool and every worker."""
        with self._lock:
            if self._closed or handle not in self._specs:
                return
            del self._specs[handle]
            for task_queue in self._task_queues:
                task_queue.put(("unregister", handle))

    # -- execution -----------------------------------------------------

    def stream(self, handle: int) -> _TaskStream:
        """Open a pipelined submission stream for a registered work."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the pool is closed")
            if handle not in self._specs:
                raise KeyError(f"unknown work handle {handle}")
            return _TaskStream(self, handle)

    def run_tasks(self, handle: int, tasks: Sequence) -> list:
        """Run every task of a registered work; results in task order.

        A thin wrapper over :meth:`stream`: every task is submitted up
        front and results are collected in submission order, so workers
        never idle at intermediate barriers.
        """
        stream = self.stream(handle)
        try:
            seqs = [stream.submit(payload) for payload in tasks]
            return [stream.collect(seq) for seq in seqs]
        finally:
            stream.close()

    def _pump(self) -> None:
        """Hand queued tasks to idle workers (call under the lock)."""
        while self._idle and self._dispatch:
            stream, seq = self._dispatch[0]
            if stream._closed or seq not in stream._pending:
                self._dispatch.popleft()  # cancelled before dispatch
                stream._retries.pop(seq, None)
                continue
            self._dispatch.popleft()
            worker_id = self._idle.popleft()
            payload = stream._pending.pop(seq)
            stream._live.add(seq)
            task_id = self._next_task_id
            self._next_task_id += 1
            self._inflight[task_id] = _InflightTask(
                stream, seq, payload, worker_id,
                stream._retries.pop(seq, 0))
            self._task_queues[worker_id].put(
                ("run", stream.handle, task_id, payload))
            if fault_hook is not None:
                # Injection point for deterministic worker kills.  The
                # SIGKILL may land while the victim is still flushing
                # its *previous* result — survivable only because each
                # process worker writes to a private pipe: a wedged or
                # half-written channel is discarded wholesale at
                # respawn and the lost task re-executed byte-identical.
                fault_hook("pool.dispatch", pool=self,
                           worker_id=worker_id, task_id=task_id)

    def _route_one(self) -> None:
        """Receive one worker result and route it to its stream.

        Results for discarded tasks or closed streams are dropped.
        """
        worker_id, task_id, status, result = self._receive()
        record = self._inflight.pop(task_id, None)
        if record is None:
            # A straggler from a worker that was already declared dead
            # and replaced: its task was re-submitted under a fresh id
            # (or aborted).  Drop it without marking anything idle —
            # the sender is not a live worker slot.
            return
        if status != "ok":
            self._abort(result)
        stream, seq = record.stream, record.seq
        stream._live.discard(seq)
        if not (stream._closed or seq in stream._discarded):
            stream._results[seq] = result
        stream._discarded.discard(seq)
        self._idle.append(worker_id)
        if not self._inflight and not self._dispatch:
            # Quiescent: the burst survived, so the restart budget
            # replenishes for the next one.
            self._restarts_used = 0
        self._pump()

    def _receive(self):
        """Next result, supervising for dead or overrunning workers."""
        while True:
            message = self._poll_result(timeout=1.0)
            if message is not None:
                return message
            self._check_deadlines()
            dead = [worker_id
                    for worker_id, worker in enumerate(self._workers)
                    if not worker.is_alive()]
            if dead:
                self._recover_workers(dead)

    def _poll_result(self, timeout: float):
        """One worker result, or ``None`` after ``timeout`` seconds.

        Multiplexes the per-worker result pipes with
        :func:`multiprocessing.connection.wait`.  A dead worker's
        reader is never ``recv``'d — a SIGKILL can leave a partial
        message that would block the parent forever; the channel is
        replaced at respawn and the lost task re-executed, which by
        the determinism contract reproduces the same bytes.
        """
        try:
            ready = _connection_wait(self._result_readers,
                                     timeout=timeout)
        except OSError:
            return None
        for reader in ready:
            worker_id = self._result_readers.index(reader)
            if not self._workers[worker_id].is_alive():
                continue  # dead writer: leave its channel untouched
            try:
                return reader.recv()
            except (EOFError, OSError):
                continue  # died between the liveness check and recv
        return None

    def _check_deadlines(self) -> None:
        """Terminate workers whose task overran the deadline.

        The terminated worker is *not* handled here: it shows up dead
        on the very next liveness sweep and goes through the one
        recovery path (:meth:`_recover_workers`), budgets and all.
        """
        if self.task_timeout_seconds is None:
            return
        now = time.monotonic()
        for record in list(self._inflight.values()):
            if now - record.started_at <= self.task_timeout_seconds:
                continue
            worker = self._workers[record.worker_id]
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)

    def _recover_workers(self, dead_ids: list) -> None:
        """Respawn dead workers and re-submit their in-flight tasks.

        Runs under the pool lock (callers hold it through ``collect``).
        Budgets first: exhausting ``max_worker_restarts`` or a task's
        ``task_retry_limit`` falls back to :meth:`_abort` — full
        teardown, then ``RuntimeError``.
        Re-submitted tasks keep their payload (and with it their
        structural seed), so the retried result is byte-identical to
        what the dead worker would have produced.
        """
        for worker_id in dead_ids:
            worker = self._workers[worker_id]
            reason = (f"worker {worker.pid} exited with code "
                      f"{worker.exitcode} while tasks were pending")
            if self._restarts_used >= self.max_worker_restarts:
                self._abort(reason)
            lost_ids = [task_id
                        for task_id, record in self._inflight.items()
                        if record.worker_id == worker_id]
            resubmit = []
            for task_id in sorted(lost_ids):
                record = self._inflight.pop(task_id)
                stream, seq = record.stream, record.seq
                stream._live.discard(seq)
                if stream._closed or seq in stream._discarded:
                    stream._discarded.discard(seq)
                    continue  # nobody wants the result; don't re-run
                if record.retries + 1 > self.task_retry_limit:
                    self._abort(
                        f"task retry limit ({self.task_retry_limit}) "
                        f"exhausted after {reason}")
                resubmit.append((stream, seq, record.payload,
                                 record.retries + 1))
            self._restarts_used += 1
            self.worker_restarts += 1
            try:
                self._idle.remove(worker_id)  # died while idle
            except ValueError:
                pass
            self._respawn(worker_id)
            # Front of the dispatch queue: recovered tasks are the
            # oldest outstanding work, and collect() blocks on them.
            for stream, seq, payload, retries in reversed(resubmit):
                stream._pending[seq] = payload
                stream._retries[seq] = retries
                self._dispatch.appendleft((stream, seq))
                self.tasks_recovered += 1
        self._pump()

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead worker in the same slot.

        The replacement gets a fresh task queue (the dead worker's may
        still hold its lost ``run`` message), a fresh result pipe (the
        old one may hold a half-written message from the crash), and a
        replay of every live ``register`` message.
        """
        old_worker = self._workers[worker_id]
        old_queue = self._task_queues[worker_id]
        try:
            old_worker.join(timeout=5)
        except Exception:
            pass
        task_queue, worker, reader, writer = self._spawn_worker(worker_id)
        self._task_queues[worker_id] = task_queue
        self._workers[worker_id] = worker
        for conn in (self._result_readers[worker_id],
                     self._result_writers[worker_id]):
            try:
                conn.close()
            except Exception:
                pass
        self._result_readers[worker_id] = reader
        self._result_writers[worker_id] = writer
        for handle, spec in self._specs.items():
            task_queue.put(("register", handle, spec))
        self._idle.append(worker_id)
        try:
            old_queue.close()
            old_queue.cancel_join_thread()
        except Exception:
            pass

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker process (fault injection and tests only).

        Raises ``ValueError`` on an inline pool: it has no worker
        process to kill.
        """
        if self.mode == "inline":
            raise ValueError("an inline pool has no killable worker "
                             "processes")
        os.kill(self._workers[worker_id].pid, signal.SIGKILL)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"WorkerPool(n_workers={self.n_workers}, "
                f"mode={self.mode!r}, works={len(self._specs)}, {state})")


# ----------------------------------------------------------------------
# Pooled forest accumulation (drop-in for the samplers)
# ----------------------------------------------------------------------

class PooledForestRunner:
    """Splitting-forest simulation sharded over a :class:`WorkerPool`.

    Implements the same ``accumulate(aggregates, sizes, ...)`` contract
    as :class:`~repro.core.forest.VectorizedForestRunner` for one
    member (fused fleets pool by member slice instead, each slice
    running the vectorized runner), so the MLSS round loop's stopping
    rules, bootstrap schedules and curve folds run unmodified on top of
    it.  Each round expands to at least
    :data:`DEFAULT_TASKS_PER_ROUND` tasks of ``roots_per_task`` root
    trees; task
    seeds derive from the task index (:func:`derive_task_seed`) and
    results merge in task order, making pooled aggregates invariant
    under the worker count.

    Rounds run through a :class:`RoundPipeline`: the next round's
    predicted tasks are submitted while the current round's stragglers
    drain, and mispredicted or post-stop results are discarded unread,
    so speculation never changes an aggregate.  Prediction needs the
    round schedule to be computable ahead of the current round's
    results, which holds for quality-target and ``max_roots`` stopping
    but not under a ``max_steps`` budget.

    ``max_steps`` is *strict*: the final round is trimmed against the
    remaining budget (from the measured cost per root), cut into no
    more tasks than the budget can fund with one worst-case root tree
    each, and every task carries its share of the budget as a hard cap
    its worker enforces per root tree, so pooled step counts never
    exceed the budget.  A budget that cannot fund one worst-case tree
    before any root ran raises :class:`StepBudgetError`.

    Call :meth:`close` when done (the samplers do) to release the
    work's registration; the pool itself stays alive for the next run.
    """

    def __init__(self, pool: WorkerPool, query, partition, ratios,
                 seed: Optional[int],
                 roots_per_task: int = DEFAULT_ROOTS_PER_TASK):
        if roots_per_task < 1:
            raise ValueError(
                f"roots_per_task must be >= 1, got {roots_per_task}")
        validate_plan(query, partition)
        self.pool = pool
        self.query = query
        self.partition = partition
        self.ratios = normalize_ratios(ratios, partition.num_levels)
        self.seed = seed
        self.roots_per_task = roots_per_task
        self._task_index = 0
        work = ForestWork(query=query, partition=partition,
                          ratios=self.ratios)
        self._worst_case = _worst_case_root_cost(work)
        self._handle = pool.register(work)
        self._rounds = RoundPipeline(pool, self._handle)

    def _base_cohort(self, size: int) -> int:
        return max(size, self.roots_per_task * DEFAULT_TASKS_PER_ROUND)

    def accumulate(self, aggregates, sizes, max_steps=None,
                   max_roots=None) -> list:
        """Fold one pooled round of root trees into the one member's
        aggregate; returns ``[budget exhausted]``."""
        (aggregate,), (size,) = aggregates, sizes
        return [self._round(aggregate, size, max_steps, max_roots)]

    def _round(self, aggregate, size: int, max_steps, max_roots) -> bool:
        cohort = self._base_cohort(size)
        if max_roots is not None:
            cohort = min(cohort, max_roots - aggregate.n_roots)
        step_budget = None
        if max_steps is not None:
            if aggregate.steps >= max_steps:
                return True
            step_budget = max_steps - aggregate.steps
            fundable = step_budget // self._worst_case
            if fundable == 0:
                if aggregate.n_roots == 0:
                    raise StepBudgetError(
                        f"max_steps={max_steps} cannot fund one "
                        f"worst-case root tree of {self._worst_case} "
                        f"steps under the strict pooled budget")
                # No task could start another root: budget exhausted.
                return True
            # Trim the round toward the remaining budget using the
            # measured cost per root (a fresh run assumes a root tree
            # costs about two horizons), and cut no more tasks than
            # the budget funds with one worst-case tree each; the
            # per-task caps below make the budget strict regardless.
            funded = aggregate.roots_funded(max_steps,
                                            2.0 * self.query.horizon)
            cohort = min(cohort, max(int(funded), 1),
                         fundable * self.roots_per_task)
        if cohort <= 0:
            return True
        tasks, self._task_index = cut_tasks(
            cohort, self.roots_per_task, self.seed, self._task_index,
            step_budget)
        predicted = None
        if step_budget is None:
            ahead = self._base_cohort(size)
            if max_roots is not None:
                ahead = min(ahead,
                            max_roots - (aggregate.n_roots + cohort))
            if ahead > 0:
                predicted, _ = cut_tasks(ahead, self.roots_per_task,
                                         self.seed, self._task_index)
        roots_before = aggregate.n_roots
        for cohort in self._rounds.run_round(tasks, predicted):
            aggregate.extend(cohort)
        if step_budget is not None and aggregate.n_roots == roots_before:
            # The remaining budget cannot afford a single worst-case
            # root tree anywhere: the budget is exhausted.
            return True
        return ((max_roots is not None and aggregate.n_roots >= max_roots)
                or (max_steps is not None
                    and aggregate.steps >= max_steps))

    def close(self) -> None:
        """Release this work's registration."""
        self._rounds.close()
        self.pool.unregister(self._handle)
