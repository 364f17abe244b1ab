"""Count hooks and span tracing, installed from outside the program.

Nothing here edits ``repro``: every hook replaces a public function or
method *binding* for the duration of a measured pass and restores it
afterwards.  Two modes:

* ``trace=False`` (the untraced runs) installs only integer counters at
  the two boundaries whose counts the exact-count guard compares:
  ``step_batch`` calls and rows (the ``repro.processes`` kernels) and
  tasks submitted to the worker pool.  No clock is read.
* ``trace=True`` additionally records a span at each layer boundary.
  A span is ``(id, parent, request id, name, start ns, end ns)`` plus
  the ``step_batch`` calls, rows and kernel nanoseconds that ran while
  it was the innermost open span of its thread.
  Kernel calls are aggregated into their enclosing span instead of
  being recorded one by one: a rare-event answer makes tens of
  thousands of them.

Spans stay in memory and are written out once, after the run.  Hooks
are installed after set-up, so forked pool workers never carry them:
calls inside workers are invisible from here, and the pooled workload
reports pool-level numbers only.
"""

import contextvars
import itertools
import json
import threading
import time

#: Request id of the asyncio task handling a served request; set by
#: the ``parse_policy`` hook from the request's own seed.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

# Span record fields.
SID, PARENT, RID, NAME, START, END, CALLS, ROWS, KERNEL_NS = range(9)


class Hooks:
    """Counters (always) and spans (``trace=True``) for one pass."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters = []
        self._lock = threading.Lock()
        self._undo = []

    # -- counters ------------------------------------------------------

    def _thread_counter(self) -> list:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            # [step_batch calls, rows, pool tasks]; one list per thread,
            # so concurrent executor threads never lose an increment.
            counter = self._local.counter = [0, 0, 0]
            with self._lock:
                self._counters.append(counter)
        return counter

    def counts(self) -> dict:
        with self._lock:
            rows = list(self._counters)
        return {"calls": sum(c[0] for c in rows),
                "rows": sum(c[1] for c in rows),
                "tasks": sum(c[2] for c in rows)}

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_id(self, explicit=None):
        if explicit is not None:
            return explicit
        stack = self._stack()
        if stack:
            return stack[-1][RID]
        return _REQUEST.get()

    def open(self, name: str, rid=None) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][SID] if stack else None,
                self._request_id(rid), name, time.perf_counter_ns(), 0,
                0, 0, 0]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def leaf(self, name: str, start: int, end: int, rid=None) -> None:
        """A finished span with no traced children (no stack entry)."""
        stack = self._stack()
        self.spans.append([next(self._ids),
                           stack[-1][SID] if stack else None,
                           self._request_id(rid), name, start, end,
                           0, 0, 0])

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one list per span)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> "Hooks":
        from repro.core.pool import WorkerPool
        from repro.processes import (GaussianWalkProcess,
                                     MarkovChainProcess, RandomWalkProcess)

        for cls in (RandomWalkProcess, GaussianWalkProcess,
                    MarkovChainProcess):
            self._patch(cls, "step_batch",
                        self._kernel_hook(cls.__dict__["step_batch"]))
        self._patch(WorkerPool, "stream",
                    self._stream_hook(WorkerPool.__dict__["stream"]))
        if self.trace:
            self._install_spans()
        return self

    def _install_spans(self) -> None:
        from repro.core import gmlss as gmlss_module
        from repro.core.gmlss import GMLSSSampler
        from repro.core.srs import SRSSampler
        from repro.engine import DurabilityEngine
        from repro.engine import service as service_module
        from repro.serve import AdmissionController
        from repro.serve import server as server_module

        for name in ("parse_query", "encode_estimate", "dumps_canonical"):
            self._patch(server_module, name, self._leaf_hook(
                f"serve.{name}", getattr(server_module, name)))
        self._patch(server_module, "parse_policy",
                    self._policy_hook(server_module.parse_policy))
        self._patch(AdmissionController, "admit", self._admit_hook(
            AdmissionController.__dict__["admit"]))
        for name in ("answer", "answer_batch", "durability_curves"):
            self._patch(DurabilityEngine, name, self._engine_hook(
                DurabilityEngine.__dict__[name]))
        self._patch(service_module, "adaptive_greedy_partition",
                    self._span_hook("greedy",
                                    service_module.adaptive_greedy_partition))
        for name in ("screen_fleet", "screen_fleet_curves"):
            self._patch(service_module, name, self._span_hook(
                "fleet", getattr(service_module, name)))
        for cls in (SRSSampler, GMLSSSampler):
            self._patch(cls, "run", self._span_hook(
                "sampler", cls.__dict__["run"]))
        self._patch(gmlss_module, "bootstrap_variance", self._leaf_hook(
            "bootstrap", gmlss_module.bootstrap_variance))

    # -- hook factories ------------------------------------------------

    def _kernel_hook(self, original):
        hooks = self
        clock = time.perf_counter_ns

        if not self.trace:
            def step_batch(process, states, *args, **kwargs):
                counter = hooks._thread_counter()
                counter[0] += 1
                counter[1] += len(states)
                return original(process, states, *args, **kwargs)
            return step_batch

        def step_batch(process, states, *args, **kwargs):
            counter = hooks._thread_counter()
            counter[0] += 1
            counter[1] += len(states)
            start = clock()
            result = original(process, states, *args, **kwargs)
            elapsed = clock() - start
            stack = hooks._stack()
            if stack:
                span = stack[-1]
                span[CALLS] += 1
                span[ROWS] += len(states)
                span[KERNEL_NS] += elapsed
            return result
        return step_batch

    def _stream_hook(self, original):
        hooks = self

        def stream(pool, handle):
            return _CountedStream(original(pool, handle), hooks)
        return stream

    def _span_hook(self, name: str, original):
        hooks = self

        def traced(*args, **kwargs):
            span = hooks.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                hooks.close(span)
        return traced

    def _engine_hook(self, original):
        hooks = self

        def traced(engine, *args, **kwargs):
            policy = kwargs.get("policy")
            rid = kwargs.get("seed")
            if rid is None and policy is not None:
                rid = policy.seed
            span = hooks.open("engine", rid)
            try:
                return original(engine, *args, **kwargs)
            finally:
                hooks.close(span)
        return traced

    def _leaf_hook(self, name: str, original):
        hooks = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                hooks.leaf(name, start, clock())
        return traced

    def _policy_hook(self, original):
        hooks = self
        clock = time.perf_counter_ns

        def parse_policy(data, base):
            if isinstance(data, dict) and "seed" in data:
                _REQUEST.set(data["seed"])
            start = clock()
            try:
                return original(data, base)
            finally:
                hooks.leaf("serve.parse_policy", start, clock())
        return parse_policy

    def _admit_hook(self, original):
        hooks = self
        clock = time.perf_counter_ns

        async def admit(controller, *args, **kwargs):
            # Awaits interleave tasks on the loop thread, so this span
            # never joins the thread's stack.
            start = clock()
            try:
                return await original(controller, *args, **kwargs)
            finally:
                hooks.leaf("serve.admission", start, clock(),
                           rid=_REQUEST.get())
        return admit


class _CountedStream:
    """A pool task stream that counts submits and times collects."""

    def __init__(self, stream, hooks: Hooks):
        self._stream = stream
        self._hooks = hooks

    def submit(self, payload):
        self._hooks._thread_counter()[2] += 1
        return self._stream.submit(payload)

    def collect(self, seq):
        if not self._hooks.trace:
            return self._stream.collect(seq)
        start = time.perf_counter_ns()
        try:
            return self._stream.collect(seq)
        finally:
            self._hooks.leaf("pool.wait", start, time.perf_counter_ns())

    def __getattr__(self, name):
        return getattr(self._stream, name)


# ----------------------------------------------------------------------
# Deriving per-layer numbers from spans
# ----------------------------------------------------------------------

def _union_ns(intervals, lo: int, hi: int) -> int:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_ns(span, children) -> int:
    """Span duration minus what its direct children and kernels cover."""
    duration = span[END] - span[START]
    covered = _union_ns([(c[START], c[END]) for c in children],
                        span[START], span[END])
    return duration - covered - span[KERNEL_NS]


def by_request(spans) -> dict:
    """Spans grouped by request id."""
    grouped = {}
    for span in spans:
        grouped.setdefault(span[RID], []).append(span)
    return grouped


def children_of(spans) -> dict:
    """Direct children of each span, keyed by the parent's id."""
    index = {}
    for span in spans:
        if span[PARENT] is not None:
            index.setdefault(span[PARENT], []).append(span)
    return index


def coverage(root_start: int, root_end: int, spans) -> float:
    """Share of a request's latency covered by its traced spans."""
    if root_end <= root_start:
        return 0.0
    covered = _union_ns([(s[START], s[END]) for s in spans],
                        root_start, root_end)
    return covered / (root_end - root_start)
