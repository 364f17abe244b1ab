"""The async serving front door: HTTP/1.1 over asyncio, stdlib only.

:class:`DurabilityServer` puts a network protocol in front of one
shared :class:`~repro.engine.DurabilityEngine`.  The event loop owns
admission, sessions and connection plumbing; engine calls (simulation,
plan search) run on a bounded thread-pool executor so the loop never
blocks on a sampler — the engine's plan cache and worker pool are
thread-safe precisely so that many executor threads can drive it at
once.  Responses are canonical bytes (:func:`~repro.serve.protocol.
dumps_canonical`), which is what makes the serving correctness gate —
*served answer == in-process answer, byte for byte* — testable.

Routes (see the package docstring for the full wire protocol):

=======================  ==============================================
``POST /answer``          one point query -> one estimate
``POST /answer_batch``    many queries -> cohorted/fused estimates
``POST /curve``           one query + grid -> streamed per-point chunks
``POST /curves``          many queries + grids -> one chunk per curve
``POST /session``         register a policy, get a session id
``GET/DELETE /session/i`` inspect / drop a session
``GET  /metrics``         metrics snapshot (qps, latency, watchdog)
``GET  /stats``           engine + admission + session counters
``POST /config``          hot-apply a serving-config document
``GET  /healthz``         liveness (and draining state)
=======================  ==============================================

Streaming: ``/curve`` responses use chunked transfer encoding and emit
one JSON line per chunk — a ``start`` header event, one ``point`` event
per threshold in ascending grid order as the resolved grid is encoded,
then an ``end`` summary event.  Each ``point`` payload is byte-identical
to the corresponding estimate in the unary response.

Shutdown is graceful: :meth:`DurabilityServer.stop` stops accepting,
answers new requests with 503 ``draining``, waits for in-flight
requests to finish (bounded by ``drain_timeout_seconds``), then tears
down the watchdog, the executor and (when owned) the engine.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import math
import threading
import time
from typing import Optional

from ..core import LevelPlanError, StepBudgetError
from ..db.plan_store import PlanStore
from ..engine import (DurabilityEngine, ExecutionPolicy, PlanCache,
                      UnservableGridError)
from ..forecast import PlanWarmer, WorkloadLog, make_forecaster
from .admission import (AdmissionController, AdmissionError,
                        classify_request)
from .config import HotConfig, ServeConfig
from .metrics import MetricsRegistry
from .protocol import (ProtocolError, curve_events, dumps_canonical,
                       encode_curve, encode_estimate, error_body,
                       parse_partition, parse_policy, parse_query,
                       parse_thresholds)
from .session import SessionStore, UnknownSessionError
from .watchdog import Watchdog, logger as serve_logger

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}

_MAX_HEADER_LINES = 100

#: Optional fault-injection hook (see :mod:`repro.faults`): a callable
#: ``hook("serve.request", route=..., server=...)`` or ``None``,
#: consulted before session/query routes.  Anything it raises is
#: answered as a *structured* 503 ``transient`` error (with
#: ``Retry-After``), never a protocol error — injected faults model an
#: overloaded or flaky tier, not a broken one.
fault_hook = None

#: Retry-After advertised on injected transient faults, seconds.
_INJECTED_RETRY_AFTER = 0.05


class DeadlineExceeded(Exception):
    """An engine call outlived ``request_deadline_seconds``."""

    def __init__(self, seconds: float):
        super().__init__(f"request exceeded its {seconds:.3f}s deadline")
        self.seconds = seconds


class _BadRequest(Exception):
    """Malformed HTTP framing (connection closes after the 400)."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a float")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"a {len(text)}-digit integer overflows a "
                         f"float") from None
    return value


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "version", "headers", "body")

    def __init__(self, method: str, path: str, version: str,
                 headers: dict, body: bytes):
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.body = body

    def json(self):
        """The parsed body; every number in it must be finite and fit
        in a float."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body, parse_constant=_reject_constant,
                              parse_float=_finite_float,
                              parse_int=_finite_int)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: "
                                f"{exc}") from None

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(reader: asyncio.StreamReader,
                       max_bytes: int) -> Optional[Request]:
    """Parse one request off the stream; None on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"malformed request line {line!r}")
    method, path, version = parts
    headers: dict = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many header lines")
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise _BadRequest(f"bad content-length {length_header!r}") \
            from None
    if length < 0 or length > max_bytes:
        raise _BadRequest(f"content-length {length} outside [0, "
                          f"{max_bytes}]")
    body = await reader.readexactly(length) if length else b""
    return Request(method.upper(), path, version, headers, body)


def _response_head(status: int, headers: dict) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class DurabilityServer:
    """Durability prediction as a service, over one shared engine.

    Parameters
    ----------
    engine:
        The :class:`DurabilityEngine` to serve.  ``None`` builds (and
        owns, including closing on :meth:`stop`) a fresh engine around
        ``policy``.
    policy:
        The server's *default* execution policy — applied to requests
        that bring neither a session nor an inline policy, and the base
        that request policies override field-wise.  Must carry a
        stopping rule.
    config:
        A :class:`ServeConfig`, a config dict, a :class:`HotConfig`
        (shared live document) or ``None`` for defaults.
    """

    def __init__(self, engine: Optional[DurabilityEngine] = None,
                 policy: Optional[ExecutionPolicy] = None,
                 config=None):
        if isinstance(config, HotConfig):
            self.hot_config = config
        elif isinstance(config, dict):
            self.hot_config = HotConfig(ServeConfig.from_dict(config))
        else:
            self.hot_config = HotConfig(config)
        boot_cfg = self.hot_config.current
        self._owns_engine = engine is None
        self._plan_store: Optional[PlanStore] = None
        if engine is None:
            plan_cache = None
            if boot_cfg.plan_store_path:
                # A server-owned engine persists its plans: restarts
                # pointed at the same file answer previously-seen
                # shapes from the store (plan_source: "store") with
                # zero on-path search steps.
                self._plan_store = PlanStore(boot_cfg.plan_store_path)
                plan_cache = PlanCache(store=self._plan_store)
            engine = DurabilityEngine(
                policy if policy is not None
                else ExecutionPolicy(max_roots=2000, seed=0),
                plan_cache=plan_cache)
        self.engine = engine
        if engine.workload_log is None:
            engine.workload_log = WorkloadLog(
                window_seconds=boot_cfg.warm_window_seconds)
        self.workload_log = engine.workload_log
        self.default_policy = (policy if policy is not None
                               else engine.policy)
        try:
            self.default_policy.validate()
        except ValueError as exc:
            raise ValueError(
                f"the server's default policy must be runnable "
                f"(it answers sessionless, policyless requests): {exc}"
            ) from None

        cfg = self.hot_config.current
        self.metrics = MetricsRegistry()
        self.sessions = SessionStore(max_sessions=cfg.max_sessions,
                                     ttl_seconds=cfg.session_ttl_seconds,
                                     seed_salt=cfg.session_seed_salt)
        self.admission = AdmissionController(cfg, metrics=self.metrics)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=cfg.engine_workers,
            thread_name_prefix="repro-serve-engine")
        self.warmer = PlanWarmer(
            engine, self.workload_log,
            forecaster=make_forecaster(cfg.warm_forecaster),
            top_k=cfg.warm_top_k, step_budget=cfg.warm_step_budget,
            idle_check=self._tier_idle,
            interval_seconds=cfg.warm_interval_seconds,
            enabled=cfg.warm_enabled)
        self.watchdog = Watchdog(
            self.metrics, admission=self.admission, engine=engine,
            sessions=self.sessions, hot_config=self.hot_config,
            warmer=self.warmer, warm_submit=self._executor.submit,
            interval_seconds=cfg.watchdog_interval_seconds,
            stall_after_intervals=cfg.stall_after_intervals)
        self.metrics.register_gauge("admission", self.admission.stats)
        self.metrics.register_gauge("sessions", self.sessions.stats)
        self.metrics.register_gauge("plan_cache", engine.cache_stats)
        self.metrics.register_gauge("resilience", self._resilience_stats)
        self.metrics.register_gauge("warmer", self.warmer.stats)
        self.metrics.register_gauge("workload_log",
                                    self.workload_log.stats)
        self.hot_config.subscribe(self._on_config, replay=False)

        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self._draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._connections: set = set()

    # -- config fanout -------------------------------------------------

    def _on_config(self, cfg: ServeConfig) -> None:
        """Applied on every hot-config change (admission queue, rate
        limits, watchdog cadence, session bounds, warmer knobs).  The
        executor width, listener address, plan-store path and workload
        log window are start-time-only: they are left as created (a
        documented known limit)."""
        self.admission.update_config(cfg)
        self.watchdog.update_config(cfg)
        self.sessions.configure(cfg.max_sessions,
                                cfg.session_ttl_seconds,
                                cfg.session_seed_salt)
        self.warmer.update_config(cfg)

    def _resilience_stats(self) -> dict:
        """Fault-tolerance counters for the ``/metrics`` gauge: pool
        supervision (worker restarts, recovered tasks) plus plan-store
        corruption/write-failure accounting when a store is attached.
        """
        stats = self.engine.resilience_stats()
        if self._plan_store is not None:
            store = self._plan_store.stats()
            stats["store_quarantined"] = store["quarantined"]
            stats["store_write_errors"] = store["write_errors"]
        return stats

    def _tier_idle(self) -> bool:
        """The warmer's gate: no admitted work, nothing queued.

        Reads two event-loop-owned counters without synchronisation —
        a stale read only delays or aborts a sweep, never corrupts
        anything, and the warmer re-checks between shapes.
        """
        return (not self._draining
                and self.admission.in_flight_requests == 0
                and self.admission.queued == 0)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "DurabilityServer":
        cfg = self.hot_config.current
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_client, host=cfg.host, port=cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.watchdog.start()
        serve_logger.info("serving on %s:%d (engine_workers=%d, "
                          "capacity=%d units)", cfg.host, self.port,
                          cfg.engine_workers, cfg.max_inflight_units)
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight requests, then tear down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None and self._active:
            try:
                await asyncio.wait_for(
                    self._idle.wait(),
                    timeout=self.hot_config.current.drain_timeout_seconds)
            except asyncio.TimeoutError:
                serve_logger.warning(
                    "drain timeout: %d requests still in flight",
                    self._active)
        for writer in list(self._connections):  # idle keep-alive conns
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        self.warmer.close()  # abort any in-flight sweep at its next shape
        await self.watchdog.stop()
        self._executor.shutdown(wait=True)
        if self._owns_engine:
            self.engine.close()
        if self._plan_store is not None:
            self._plan_store.close()
        serve_logger.info("server stopped")

    async def __aenter__(self) -> "DurabilityServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                max_bytes = self.hot_config.current.request_max_bytes
                try:
                    request = await read_request(reader, max_bytes)
                except _BadRequest as exc:
                    await self._respond_json(
                        writer, 400,
                        error_body("bad_request", str(exc)), 0.0)
                    break
                if request is None:
                    break
                done = await self._dispatch(request, writer)
                if not done or not request.keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled an idle connection: close quietly.
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _route_label(self, request: Request) -> str:
        path = request.path.split("?", 1)[0]
        if path.startswith("/session"):
            return "session"
        return path.strip("/").replace("/", ".") or "root"

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns False if the connection must die."""
        started = time.perf_counter()
        route = self._route_label(request)
        if request.headers.get("x-retry-attempt"):
            # Clients mark retried sends (see ServeClient), so retry
            # pressure is observable tier-side in /metrics.
            self.metrics.inc("client_retries")
        self._active += 1
        if self._idle is not None:
            self._idle.clear()
        status = 500
        try:
            hook = fault_hook
            if hook is not None and route not in ("healthz", "metrics",
                                                  "stats", "config"):
                try:
                    hook("serve.request", route=route, server=self)
                except Exception as exc:
                    # Injected faults surface as structured transient
                    # sheds — well-formed, retryable, never a protocol
                    # error.
                    status = 503
                    self.metrics.inc("faults_injected")
                    await self._respond_json(
                        writer, 503,
                        error_body("transient",
                                   f"injected fault: {exc}",
                                   retry_after=_INJECTED_RETRY_AFTER),
                        started,
                        extra_headers={"Retry-After":
                                       f"{_INJECTED_RETRY_AFTER:.3f}"})
                    return True
            status = await self._route(request, writer, started)
            return True
        except ProtocolError as exc:
            status = 400
            await self._respond_json(
                writer, 400, error_body("protocol", str(exc)),
                started)
            return True
        except UnservableGridError as exc:
            status = 400
            await self._respond_json(
                writer, 400, error_body("unservable_grid", str(exc)),
                started)
            return True
        except LevelPlanError as exc:
            status = 400
            await self._respond_json(
                writer, 400, error_body("level_plan", str(exc)), started)
            return True
        except StepBudgetError as exc:
            status = 400
            await self._respond_json(
                writer, 400, error_body("step_budget", str(exc)), started)
            return True
        except UnknownSessionError as exc:
            status = 404
            await self._respond_json(
                writer, 404,
                error_body("unknown_session",
                           f"no live session {exc.args[0]!r}"), started)
            return True
        except DeadlineExceeded as exc:
            status = 504
            await self._respond_json(
                writer, 504,
                error_body("deadline_exceeded", str(exc)), started)
            return True
        except AdmissionError as exc:
            status = exc.http_status
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = f"{max(exc.retry_after, 0.0):.3f}"
            self.metrics.inc(f"responses.{exc.kind}")
            await self._respond_json(
                writer, exc.http_status,
                error_body(exc.kind, str(exc),
                           retry_after=exc.retry_after),
                started, extra_headers=headers)
            return True
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # noqa: BLE001 — the server must not die
            serve_logger.exception("internal error on %s %s",
                                   request.method, request.path)
            status = 500
            try:
                await self._respond_json(
                    writer, 500,
                    error_body("internal",
                               f"{type(exc).__name__}: {exc}"), started)
            except (ConnectionError, OSError):
                return False
            return True
        finally:
            self._active -= 1
            if self._active == 0 and self._idle is not None:
                self._idle.set()
            elapsed = time.perf_counter() - started
            self.metrics.observe(route, elapsed)
            self.metrics.inc(f"status.{status}")

    # -- response helpers ----------------------------------------------

    async def _respond_json(self, writer, status: int, payload,
                            started, extra_headers: Optional[dict] = None,
                            canonical: bool = True) -> None:
        body = dumps_canonical(payload) if canonical \
            else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json",
                   "Content-Length": str(len(body))}
        if started:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            headers["X-Elapsed-Ms"] = f"{elapsed_ms:.3f}"
        if extra_headers:
            headers.update(extra_headers)
        writer.write(_response_head(status, headers) + body)
        await writer.drain()

    async def _respond_chunks(self, writer, status: int,
                              chunks) -> None:
        """Stream an iterable of byte chunks (chunked encoding)."""
        headers = {"Content-Type": "application/json",
                   "Transfer-Encoding": "chunked"}
        writer.write(_response_head(status, headers))
        await writer.drain()
        for chunk in chunks:
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                         + chunk + b"\r\n")
            # Flush per chunk: each grid point reaches the client as
            # its own frame, in grid order.
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, request: Request, writer,
                     started) -> int:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            await self._respond_json(
                writer, 200, {"ok": True, "draining": self._draining},
                started)
            return 200
        if self._draining:
            await self._respond_json(
                writer, 503,
                error_body("draining", "server is shutting down"),
                started)
            return 503
        if path == "/metrics" and method == "GET":
            await self._respond_json(writer, 200,
                                     self.metrics.snapshot(), started,
                                     canonical=False)
            return 200
        if path == "/stats" and method == "GET":
            await self._respond_json(writer, 200, self._stats(), started,
                                     canonical=False)
            return 200
        if path == "/config" and method == "POST":
            return await self._handle_config(request, writer, started)
        if path == "/session" and method == "POST":
            return await self._handle_session_create(request, writer,
                                                     started)
        if path.startswith("/session/"):
            return await self._handle_session_item(request, writer,
                                                   started, path)
        if path == "/answer" and method == "POST":
            return await self._handle_answer(request, writer, started)
        if path == "/answer_batch" and method == "POST":
            return await self._handle_answer_batch(request, writer,
                                                   started)
        if path == "/curve" and method == "POST":
            return await self._handle_curve(request, writer, started)
        if path == "/curves" and method == "POST":
            return await self._handle_curves(request, writer, started)
        await self._respond_json(
            writer, 404,
            error_body("not_found", f"no route {method} {path}"),
            started)
        return 404

    def _stats(self) -> dict:
        pool = self.engine._pool
        return {
            "engine": {
                "plan_cache": self.engine.cache_stats(),
                "pool": None if pool is None else {
                    "mode": pool.mode, "n_workers": pool.n_workers,
                    "closed": pool.closed},
            },
            "admission": self.admission.stats(),
            "sessions": self.sessions.stats(),
            "warmer": self.warmer.stats(),
            "workload_log": self.workload_log.stats(),
            "config_version": self.hot_config.version,
            "watchdog": self.metrics.get_fact("watchdog"),
        }

    # -- admin routes --------------------------------------------------

    async def _handle_config(self, request, writer, started) -> int:
        try:
            applied = self.hot_config.apply(request.json())
        except ValueError as exc:
            raise ProtocolError(f"config: {exc}") from None
        await self._respond_json(
            writer, 200,
            {"ok": True, "version": self.hot_config.version,
             "config": applied.to_dict()}, started, canonical=False)
        return 200

    async def _handle_session_create(self, request, writer,
                                     started) -> int:
        body = request.json()
        policy = parse_policy(body.get("policy"), self.default_policy)
        tenant = self._tenant(request, body)
        labels = body.get("labels") or {}
        if not isinstance(labels, dict):
            raise ProtocolError("session: labels must be an object")
        session = self.sessions.create(policy, tenant=tenant,
                                       labels=labels)
        self.metrics.inc("sessions_created")
        await self._respond_json(writer, 201, dict(session.describe(),
                                                   ok=True), started)
        return 201

    async def _handle_session_item(self, request, writer, started,
                                   path: str) -> int:
        session_id = path[len("/session/"):]
        if request.method == "GET":
            session = self.sessions.get(session_id)
            await self._respond_json(writer, 200,
                                     dict(session.describe(), ok=True),
                                     started)
            return 200
        if request.method == "DELETE":
            removed = self.sessions.remove(session_id)
            if not removed:
                raise UnknownSessionError(session_id)
            await self._respond_json(writer, 200,
                                     {"ok": True, "session": session_id,
                                      "removed": True}, started)
            return 200
        await self._respond_json(
            writer, 405,
            error_body("method_not_allowed",
                       f"{request.method} not allowed on {path}"),
            started)
        return 405

    # -- query context -------------------------------------------------

    def _tenant(self, request, body) -> str:
        tenant = body.get("tenant") or request.headers.get("x-tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ProtocolError(f"tenant must be a string, got "
                                f"{tenant!r}")
        return tenant or "default"

    def _resolve_context(self, request, body) -> tuple:
        """(tenant, effective policy) for a query request."""
        base = self.default_policy
        session = None
        session_id = body.get("session")
        if session_id is not None:
            if not isinstance(session_id, str):
                raise ProtocolError(f"session must be a string id, got "
                                    f"{session_id!r}")
            session = self.sessions.get(session_id)
            base = session.policy
        policy = parse_policy(body.get("policy"), base)
        tenant = body.get("tenant") or request.headers.get("x-tenant") \
            or (session.tenant if session is not None else None)
        return (tenant or "default"), policy

    async def _run_engine(self, fn):
        """Run one engine call on the executor, under the deadline.

        With ``request_deadline_seconds`` set (hot-reloadable), a call
        still running past its budget raises :class:`DeadlineExceeded`
        (a structured 504 to the client) and the admission ticket is
        released by the caller's ``finally`` — but the executor thread
        itself cannot be interrupted mid-simulation, so it finishes in
        the background and its result is discarded.  Best-effort
        cancellation is the documented limit; the admission controller
        still sees truthful in-flight accounting because tickets are
        held for the awaited portion only.
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn)
        deadline = self.hot_config.current.request_deadline_seconds
        if not deadline:
            return await future
        try:
            return await asyncio.wait_for(future, deadline)
        except asyncio.TimeoutError:
            self.metrics.inc("deadline_kills")
            raise DeadlineExceeded(deadline) from None

    # -- query routes --------------------------------------------------

    async def _handle_answer(self, request, writer, started) -> int:
        body = request.json()
        tenant, policy = self._resolve_context(request, body)
        query = parse_query(body.get("query") if "query" in body
                            else _missing("answer", "query"))
        partition = parse_partition(body.get("partition"))
        cost_class, units = classify_request(
            "answer", [query], policy, self.engine.plan_cache,
            explicit_plan=partition is not None,
            cost_units=self.admission.cost_units)
        ticket = await self.admission.admit(tenant, cost_class, units)
        try:
            estimate = await self._run_engine(
                lambda: self.engine.answer(query, policy=policy,
                                           partition=partition))
        finally:
            ticket.release()
        await self._respond_json(
            writer, 200, {"ok": True, "result": encode_estimate(estimate),
                          "cost_class": cost_class}, started)
        return 200

    def _parse_queries(self, body) -> list:
        raw = body.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "queries: expected a non-empty list of query objects")
        return [parse_query(item) for item in raw]

    async def _handle_answer_batch(self, request, writer,
                                   started) -> int:
        body = request.json()
        tenant, policy = self._resolve_context(request, body)
        queries = self._parse_queries(body)
        cost_class, units = classify_request(
            "batch", queries, policy, self.engine.plan_cache,
            cost_units=self.admission.cost_units)
        ticket = await self.admission.admit(tenant, cost_class, units)
        try:
            estimates = await self._run_engine(
                lambda: self.engine.answer_batch(queries, policy=policy))
        finally:
            ticket.release()
        await self._respond_json(
            writer, 200,
            {"ok": True,
             "results": [encode_estimate(e) for e in estimates],
             "cost_class": cost_class}, started)
        return 200

    async def _handle_curve(self, request, writer, started) -> int:
        body = request.json()
        tenant, policy = self._resolve_context(request, body)
        query = parse_query(body.get("query") if "query" in body
                            else _missing("curve", "query"))
        thresholds = parse_thresholds(body.get("thresholds")
                                      if "thresholds" in body
                                      else _missing("curve",
                                                    "thresholds"))
        stream = body.get("stream", True)
        if not isinstance(stream, bool):
            raise ProtocolError(f"curve: stream must be a boolean, got "
                                f"{stream!r}")
        cost_class, units = classify_request(
            "curve", [query], policy, self.engine.plan_cache,
            cost_units=self.admission.cost_units)
        ticket = await self.admission.admit(tenant, cost_class, units)
        try:
            curve = await self._run_engine(
                lambda: self.engine.durability_curve(query, thresholds,
                                                     policy=policy))
        finally:
            ticket.release()
        if stream:
            chunks = [dumps_canonical(event) + b"\n"
                      for event in curve_events(curve)]
            await self._respond_chunks(writer, 200, chunks)
            return 200
        await self._respond_json(
            writer, 200, {"ok": True, "result": encode_curve(curve),
                          "cost_class": cost_class}, started)
        return 200

    async def _handle_curves(self, request, writer, started) -> int:
        body = request.json()
        tenant, policy = self._resolve_context(request, body)
        queries = self._parse_queries(body)
        raw_grids = body.get("thresholds")
        if raw_grids is None:
            raise ProtocolError("curves: missing required field "
                                "'thresholds'")
        if isinstance(raw_grids, list) and raw_grids \
                and all(isinstance(g, list) for g in raw_grids):
            thresholds = [parse_thresholds(grid) for grid in raw_grids]
        else:
            thresholds = parse_thresholds(raw_grids)
        stream = body.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError(f"curves: stream must be a boolean, "
                                f"got {stream!r}")
        cost_class, units = classify_request(
            "curves", queries, policy, self.engine.plan_cache,
            cost_units=self.admission.cost_units)
        ticket = await self.admission.admit(tenant, cost_class, units)
        try:
            curves = await self._run_engine(
                lambda: self.engine.durability_curves(
                    queries, thresholds, policy=policy))
        finally:
            ticket.release()
        if stream:
            chunks = [dumps_canonical(
                {"event": "curve", "index": index,
                 "result": encode_curve(curve)}) + b"\n"
                for index, curve in enumerate(curves)]
            chunks.append(dumps_canonical(
                {"event": "end", "count": len(curves)}) + b"\n")
            await self._respond_chunks(writer, 200, chunks)
            return 200
        await self._respond_json(
            writer, 200,
            {"ok": True, "results": [encode_curve(c) for c in curves],
             "cost_class": cost_class}, started)
        return 200


def _missing(context: str, field: str):
    raise ProtocolError(f"{context}: missing required field {field!r}")


# ----------------------------------------------------------------------
# Thread harness (tests, demos, synchronous embedders)
# ----------------------------------------------------------------------

class ServerThread:
    """Run a :class:`DurabilityServer` on a dedicated asyncio thread.

    The synchronous entry point tests and demos use::

        with ServerThread(policy=policy) as handle:
            ...  # talk HTTP to 127.0.0.1:handle.port

    Construction happens on the server thread (so the event loop owns
    every asyncio primitive); ``start``/``__enter__`` blocks until the
    listener is bound and re-raises any startup failure.
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self.server: Optional[DurabilityServer] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve",
                                        daemon=True)

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise self._error
        if self.port is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = DurabilityServer(**self._kwargs)
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()
