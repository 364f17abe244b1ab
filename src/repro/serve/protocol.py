"""The JSON wire protocol: requests to queries, answers to bytes.

The serving tier's correctness gate is *byte identity*: an answer
served over HTTP must be byte-for-byte the answer the in-process engine
gives for the same query, policy and seed.  Everything in this module
is therefore deterministic by construction:

* **Requests** describe queries structurally — a process *family* name
  plus scalar constructor parameters, a named state evaluation ``z``, a
  threshold and a horizon — so the server can rebuild the exact
  :class:`~repro.core.value_functions.DurabilityQuery` a library caller
  would construct.  Families resolve through :data:`PROCESS_FAMILIES`
  and evaluations through :data:`Z_FUNCTIONS` (the same staticmethods
  the substrates ship, so plan-cache keys match in-process callers').
* **Responses** encode estimates through :func:`encode_estimate` /
  :func:`encode_curve` and serialize with :func:`dumps_canonical`
  (sorted keys, no whitespace) — the single canonical byte encoding
  shared by the server, the identity tests and the load benchmark.
  Wall-clock fields (``elapsed_seconds``, anywhere in the payload) are
  *excluded* from the canonical form: they are reported in the
  ``X-Elapsed-Ms`` response header instead, so two runs of the same
  query produce the same bytes.

Malformed requests raise :class:`ProtocolError` (mapped to HTTP 400);
the message always names the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional

import numpy as np

from ..core.levels import LevelPartition
from ..core.value_functions import DurabilityQuery, threshold_grid
from ..engine.policy import ExecutionPolicy
from ..processes import (ARProcess, CompoundPoissonProcess, GBMProcess,
                         GaussianWalkProcess, ImpulseProcess,
                         MarkovChainProcess, RandomWalkProcess,
                         TandemQueueProcess)
from ..processes.base import registered_z_names

#: Wire-format version; bumped on incompatible protocol changes.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed or unserviceable request (HTTP 400)."""


#: Process families constructible over the wire.  ``impulse`` is the
#: composition wrapper and takes a nested ``base`` spec.
PROCESS_FAMILIES = {
    "random_walk": RandomWalkProcess,
    "gaussian_walk": GaussianWalkProcess,
    "gbm": GBMProcess,
    "ar": ARProcess,
    "markov_chain": MarkovChainProcess,
    "tandem_queue": TandemQueueProcess,
    "cpp": CompoundPoissonProcess,
    "impulse": ImpulseProcess,
}

#: Named state evaluations.  These are the *same* staticmethod objects
#: the substrates ship, so a wire query lands on the same plan-cache
#: key as the equivalent in-process query.
Z_FUNCTIONS = {
    "position": RandomWalkProcess.position,
    "price": GBMProcess.price,
    "current_value": ARProcess.current_value,
    "queue2_length": TandemQueueProcess.queue2_length,
    "queue1_length": TandemQueueProcess.queue1_length,
    "total_customers": TandemQueueProcess.total_customers,
    "surplus": CompoundPoissonProcess.surplus,
}

#: The most bootstrap replicates a request may ask for
#: (``sampler_options.bootstrap_rounds``), ten times the default: an
#: answer holds an ``(n_boot, levels)`` array of replicate estimates.
#: Library callers are not bounded.
MAX_BOOTSTRAP_ROUNDS = 2_000

#: Default evaluation per family (what a library caller would pick).
DEFAULT_Z = {
    "random_walk": "position",
    "gaussian_walk": "position",
    "gbm": "price",
    "ar": "current_value",
    "tandem_queue": "queue2_length",
    "cpp": "surplus",
}


def _require(data: dict, field: str, context: str):
    if field not in data:
        raise ProtocolError(f"{context}: missing required field "
                            f"{field!r}")
    return data[field]


def _as_dict(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ProtocolError(
            f"{context}: expected an object, got "
            f"{type(value).__name__}")
    return value


def build_process(spec) -> object:
    """Instantiate a process from a wire spec.

    ``{"family": <name>, "params": {...}}``; parameters are passed to
    the family's constructor verbatim (scalars, or lists for matrix /
    coefficient parameters).  The ``impulse`` family nests its base
    process as ``params["base"]``, itself a process spec.
    """
    spec = _as_dict(spec, "process")
    family = _require(spec, "family", "process")
    cls = PROCESS_FAMILIES.get(family)
    if cls is None:
        raise ProtocolError(
            f"process: unknown family {family!r}; choose from "
            f"{sorted(PROCESS_FAMILIES)}")
    params = dict(_as_dict(spec.get("params", {}), "process.params"))
    if family == "impulse":
        base_spec = _require(params, "base", "process.params (impulse)")
        params["base"] = build_process(base_spec)
    try:
        return cls(**params)
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"process: cannot build {family!r} from params "
            f"{sorted(k for k in params)}: {exc}") from None


def resolve_z(name: Optional[str], family: str, process) -> object:
    """Resolve a named state evaluation for a process.

    ``None`` falls back to the family default.  A name resolves only to
    one of the process's registered state evaluations
    (:func:`registered_z_names`; an ``impulse`` process evaluates its
    base's states, so its base's names count).  A :data:`Z_FUNCTIONS`
    name resolves to that shared staticmethod, so a wire query keys the
    plan cache as an in-process one does; any other registered name
    resolves against the process instance (e.g.
    :meth:`MarkovChainProcess.state_value` — correct, but keyed by
    object identity in the plan cache).
    """
    if name is None:
        name = DEFAULT_Z.get(family)
        if name is None:
            raise ProtocolError(
                f"query: family {family!r} has no default evaluation; "
                f"pass \"z\" explicitly")
    if not isinstance(name, str):
        raise ProtocolError(f"query: z must be a string, got {name!r}")
    evaluated = process
    while isinstance(evaluated, ImpulseProcess):
        evaluated = evaluated.base
    shared = [key for key in registered_z_names(evaluated)
              if key in Z_FUNCTIONS]
    if name in shared:
        return Z_FUNCTIONS[name]
    own = registered_z_names(process)
    if name in own:
        return getattr(process, name)
    raise ProtocolError(
        f"query: unknown evaluation z={name!r} for family {family!r}; "
        f"choose from {sorted(set(shared) | set(own))}")


def parse_query(data) -> DurabilityQuery:
    """Build a threshold :class:`DurabilityQuery` from a wire query."""
    data = _as_dict(data, "query")
    process_spec = _as_dict(_require(data, "process", "query"),
                            "query.process")
    process = build_process(process_spec)
    beta = _require(data, "beta", "query")
    if not isinstance(beta, (int, float)) or isinstance(beta, bool) \
            or beta <= 0:
        raise ProtocolError(f"query: beta must be a positive number, "
                            f"got {beta!r}")
    horizon = _require(data, "horizon", "query")
    if not isinstance(horizon, int) or isinstance(horizon, bool) \
            or horizon < 1:
        raise ProtocolError(f"query: horizon must be an integer >= 1, "
                            f"got {horizon!r}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ProtocolError(f"query: name must be a string, got "
                            f"{name!r}")
    z = resolve_z(data.get("z"), process_spec.get("family"), process)
    try:
        return DurabilityQuery.threshold(process, z, beta=float(beta),
                                         horizon=horizon, name=name)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"query: {exc}") from None


def parse_partition(data) -> Optional[LevelPartition]:
    """An optional explicit level plan: an ascending boundary list."""
    if data is None:
        return None
    if not isinstance(data, (list, tuple)):
        raise ProtocolError(
            f"partition: expected a list of boundaries, got "
            f"{type(data).__name__}")
    try:
        return LevelPartition(float(b) for b in data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"partition: {exc}") from None


def parse_thresholds(data) -> list:
    """A curve's threshold grid, sorted ascending under the engine's
    one grid rule (:func:`~repro.core.value_functions.threshold_grid`)."""
    if not isinstance(data, (list, tuple)) or not data:
        raise ProtocolError(
            "thresholds: expected a non-empty list of numbers")
    for value in data:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(
                f"thresholds: expected numbers, got {value!r}")
    try:
        betas, _ = threshold_grid(data)
    except ValueError as exc:
        raise ProtocolError(f"thresholds: {exc}") from None
    return list(betas)


def parse_policy(data, base: ExecutionPolicy) -> ExecutionPolicy:
    """Resolve the request's execution policy.

    ``data`` is either ``None`` (use ``base`` — the session's or the
    server's default policy) or a (possibly partial)
    :meth:`ExecutionPolicy.to_dict` document applied as field overrides
    on top of ``base``.  Unknown fields and unknown ``"v"`` versions
    fail with a :class:`ProtocolError`.

    A document that carries ``parallel`` may ask for at most
    ``os.cpu_count()`` workers, the count ``n_workers=None`` resolves
    to: every fork worker is a process, and one request must not start
    more of them than the host has CPUs.  One that carries
    ``sampler_options`` may ask for at most
    :data:`MAX_BOOTSTRAP_ROUNDS` bootstrap replicates, whose estimates
    one answer holds at once.
    """
    if data is None:
        return base
    data = _as_dict(data, "policy")
    try:
        parsed = ExecutionPolicy.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"policy: {exc}") from None
    overrides = {key: getattr(parsed, key) for key in data
                 if key != "v"}
    try:
        policy = base.replace(**overrides).validate()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"policy: {exc}") from None
    if "parallel" in data and policy.parallel is not None:
        n_workers = policy.parallel.n_workers
        cpus = os.cpu_count() or 1
        if n_workers is not None and n_workers > cpus:
            raise ProtocolError(
                f"policy: parallel n_workers={n_workers} exceeds the "
                f"host's {cpus} CPUs; ask for at most {cpus}, or null")
    if "sampler_options" in data and policy.sampler_options:
        rounds = policy.sampler_options.get("bootstrap_rounds", 0)
        if rounds > MAX_BOOTSTRAP_ROUNDS:
            raise ProtocolError(
                f"policy: sampler_options bootstrap_rounds={rounds} "
                f"exceeds the bound of {MAX_BOOTSTRAP_ROUNDS}")
    return policy


# ----------------------------------------------------------------------
# Canonical response encoding
# ----------------------------------------------------------------------

def jsonable(value):
    """Deterministic JSON-safe deep conversion of result payloads.

    Wall-clock keys (anything ending in ``_seconds`` —
    ``elapsed_seconds``, ``bootstrap_seconds``, ...) are dropped at
    every level, NumPy scalars unwrap, :class:`LevelPartition` becomes
    its boundary list, dataclasses (trace points) convert field-wise,
    and anything else irreducible collapses to its type name — never
    its ``repr``, which could leak memory addresses and break byte
    identity.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, LevelPartition):
        return [float(b) for b in value.boundaries]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()
                if not str(key).endswith("_seconds")}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)
                if not field.name.endswith("_seconds")}
    return f"<{type(value).__qualname__}>"


def encode_estimate(estimate) -> dict:
    """The canonical wire form of a :class:`DurabilityEstimate`.

    Excludes ``elapsed_seconds`` (wall clock; see the module
    docstring) — everything else is a pure function of query + policy
    + seed, which is what the byte-identity contract quantifies over.
    """
    return {
        "probability": float(estimate.probability),
        "variance": float(estimate.variance),
        "n_roots": int(estimate.n_roots),
        "hits": int(estimate.hits),
        "steps": int(estimate.steps),
        "method": estimate.method,
        "details": jsonable(estimate.details),
    }


#: Details keys that record how a level plan was *found* (search vs
#: cache vs store vs warmed) rather than what the sampler computed.
PLAN_PROVENANCE_KEYS = ("plan_source", "plan_cache", "plan_origin",
                        "plan_search")


def strip_plan_provenance(doc: dict) -> dict:
    """An encoded estimate/curve minus its plan-provenance details.

    The warm-start byte-identity contract says a cold-searched, a
    store-loaded and a pre-warmed answer to one query are the same
    *answer*: every sampled quantity (probability, variance, roots,
    hits, steps) is byte-identical.  Their provenance
    legitimately differs — that is the whole point of warming — so
    comparisons quantify over the encoded document with the
    :data:`PLAN_PROVENANCE_KEYS` removed.  Recursive, so curve
    documents (per-estimate details) are covered too.
    """
    doc = dict(doc)
    details = doc.get("details")
    if isinstance(details, dict):
        doc["details"] = {key: value for key, value in details.items()
                          if key not in PLAN_PROVENANCE_KEYS}
    estimates = doc.get("estimates")
    if isinstance(estimates, list):
        doc["estimates"] = [strip_plan_provenance(item)
                            if isinstance(item, dict) else item
                            for item in estimates]
    return doc


def encode_curve(curve) -> dict:
    """The canonical wire form of a whole :class:`DurabilityCurve`."""
    return {
        "thresholds": [float(b) for b in curve.thresholds],
        "levels": [float(v) for v in curve.levels],
        "method": curve.method,
        "n_roots": int(curve.n_roots),
        "steps": int(curve.steps),
        "details": jsonable(curve.details),
        "estimates": [encode_estimate(e) for e in curve.estimates],
    }


def curve_events(curve) -> list:
    """The chunk sequence of a streamed curve response, in wire order.

    ``start`` (the grid, before any point), one ``point`` per
    threshold ascending, then ``end`` with the shared-pass totals.
    Each event is one chunk on the wire; the point events are exactly
    :func:`encode_estimate` of the corresponding grid estimate, so
    streamed and unary curve responses are point-wise byte-identical.
    """
    events = [{"event": "start",
               "thresholds": [float(b) for b in curve.thresholds],
               "levels": [float(v) for v in curve.levels],
               "method": curve.method}]
    for beta, estimate in zip(curve.thresholds, curve.estimates):
        events.append({"event": "point", "threshold": float(beta),
                       "estimate": encode_estimate(estimate)})
    events.append({"event": "end", "n_roots": int(curve.n_roots),
                   "steps": int(curve.steps),
                   "details": jsonable(curve.details)})
    return events


def dumps_canonical(payload) -> bytes:
    """The one canonical JSON byte encoding (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def error_body(kind: str, message: str, **extra) -> dict:
    """The uniform error envelope (``ok: false``)."""
    error = {"kind": kind, "message": message}
    error.update(extra)
    return {"ok": False, "error": error}
