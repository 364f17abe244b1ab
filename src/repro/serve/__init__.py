"""Durability prediction as a service: the ``repro.serve`` tier.

A stdlib-only asyncio serving layer in front of one shared
:class:`~repro.engine.DurabilityEngine`: sessions pin policies and
seeds, cost-aware admission keeps the engine loaded but not buried,
curves stream point-by-point, and a watchdog publishes a live health
verdict.  Start one with::

    from repro.serve import DurabilityServer, ServerThread
    with ServerThread(policy=policy) as handle:
        ...  # HTTP on 127.0.0.1:<handle.port>

Wire protocol (version 1)
=========================

All request and response bodies are JSON.  Responses are **canonical
bytes**: keys sorted, compact separators, no wall-clock fields
(``elapsed_seconds`` is stripped at every nesting level; serving
latency travels in the ``X-Elapsed-Ms`` header instead).  That makes
the serving determinism contract testable: for the same query, policy
and seed, the served body is byte-identical to encoding the in-process
answer.

Common request fields (the ``POST`` query routes):

``query``
    ``{"process": {"family": ..., "params": {...}}, "beta": 0.9,
    "horizon": 250}`` plus optional ``"z"`` (a value-function name such
    as ``position`` / ``price`` / ``surplus``, or a state evaluation the
    process registers, such as ``markov_chain``'s ``state_value``; each
    family but ``markov_chain`` and ``impulse`` has a default) and
    ``"name"``.  Families: ``random_walk``,
    ``gaussian_walk``, ``gbm``, ``ar``, ``markov_chain``,
    ``tandem_queue``, ``cpp``, ``impulse``.
``policy``
    An :meth:`ExecutionPolicy.to_dict` document (may be partial —
    fields override the session policy or the server default).
``session``
    A session id from ``POST /session``; pins the base policy (and its
    derived seed) for plan-cache locality and repeatability.
``tenant``
    Rate-limiting identity, a string (or the ``X-Tenant`` header).
``partition``
    Optional explicit level boundaries (list of floats in (0, 1)).

Routes:

``POST /answer``
    -> ``{"ok": true, "result": {estimate}, "cost_class": ...}``.
``POST /answer_batch``
    ``{"queries": [...]}`` -> ``{"ok": true, "results": [...]}``
    (order preserved; fusible batches run as a fused fleet).
``POST /curve``
    ``{"query": ..., "thresholds": [...]}``.  Default **streams**
    (chunked transfer encoding, one JSON line per chunk): a ``start``
    event, one ``{"event": "point", "threshold": b, "estimate":
    {...}}`` per grid point in ascending order, then an ``end``
    summary.  ``"stream": false`` returns one unary body instead.
``POST /curves``
    Many queries, shared or per-query grids; ``"stream": true`` emits
    one chunk per finished curve.
``POST /session`` / ``GET|DELETE /session/{id}``
    Create (201; echoes the effective policy, seed included), inspect,
    drop.
``GET /metrics``
    Counters, per-route latency percentiles (p50/p95/p99), qps,
    gauges (pool / plan-cache / admission), the watchdog verdict.
``GET /stats`` / ``GET /healthz``
    Engine + admission + session counters; liveness (+ draining flag).
``POST /config``
    Hot-apply a partial :class:`ServeConfig` document (queue bounds,
    rate limits, watchdog cadence — listener address and executor
    width are start-time-only).

Errors are ``{"ok": false, "error": {"kind": ..., "message": ...}}``
with the obvious statuses: 400 malformed/unservable, 404 unknown
session or route, 429 tenant over rate (with ``Retry-After``), 503
shed (queue full, expensive-class limit, queue timeout, draining).
"""

from .admission import (AdmissionController, AdmissionError,
                        RateLimitedError, SheddedError, TokenBucket,
                        classify_request)
from .client import Reply, ServeClient, ServeError
from .config import HotConfig, ServeConfig
from .metrics import MetricsRegistry, RateWindow, StreamingHistogram
from .protocol import (PROTOCOL_VERSION, ProtocolError, build_process,
                       dumps_canonical, encode_curve, encode_estimate,
                       parse_policy, parse_query)
from .server import DurabilityServer, ServerThread
from .session import Session, SessionStore, UnknownSessionError
from .watchdog import Watchdog

__all__ = [
    "AdmissionController", "AdmissionError", "DurabilityServer",
    "HotConfig", "MetricsRegistry", "PROTOCOL_VERSION", "ProtocolError",
    "RateLimitedError", "RateWindow", "Reply", "ServeClient",
    "ServeConfig", "ServeError", "ServerThread", "Session",
    "SessionStore", "SheddedError", "StreamingHistogram", "TokenBucket",
    "UnknownSessionError", "Watchdog", "build_process",
    "classify_request", "dumps_canonical", "encode_curve",
    "encode_estimate", "parse_policy", "parse_query",
]
