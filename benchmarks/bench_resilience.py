"""Fault-tolerance benchmark: determinism and completion under faults.

Three phases, each driven by a deterministic
:class:`repro.faults.FaultPlan` (scheduled call indices, not
probabilities — every injected run is reproducible):

1. **Recovery determinism** — a pooled engine (fork workers,
   supervision enabled) answers a point query, a fused batch and a
   durability curve while the plan SIGKILLs workers at two dispatch
   points mid-run.  The supervisor must respawn the dead workers,
   re-run only their in-flight tasks, and produce canonical answer
   bytes **identical** to an undisturbed run — task seeds are
   structural (derived from the task index), so a retried task is
   byte-identical by construction.
2. **Budget-zero abort** — the same kill with ``max_worker_restarts=0``
   must reproduce the historical behavior exactly: a ``RuntimeError``
   naming the dead worker (never a hang), with nothing left behind in
   ``/dev/shm``.
3. **Serving under faults** — a live :class:`ServerThread` absorbs a
   request burst while the plan injects transient faults (structured
   503 ``transient`` replies with ``Retry-After``) into the request
   path; retrying clients (``retries=5``, honoring ``Retry-After``)
   must land **every** request with a 200 byte-identical to the
   in-process reference — zero protocol errors.  A hot-reloaded
   per-request deadline must then turn an oversized request into a
   well-formed 504 ``deadline_exceeded`` (counted in ``/metrics``),
   and the server must keep answering after the deadline is lifted.

Every gate is machine-independent (byte identity, completion,
well-formedness — no wall-clock targets), so the benchmark *fails* on
any host where a contract breaks, including 1-core CI runners.

Run directly (``python benchmarks/bench_resilience.py [--quick]``); CI
uses ``--quick``.  Results land in ``BENCH_resilience.json`` and
``benchmarks/results/resilience.txt``.
"""

import argparse
import asyncio
import json
import os
from pathlib import Path

from bench_common import write_report
from repro.engine import DurabilityEngine, ExecutionPolicy
from repro.engine.policy import ParallelPolicy
from repro.faults import FaultPlan, inject
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread
from repro.serve.protocol import (dumps_canonical, encode_curve,
                                  encode_estimate, parse_query)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_resilience.json"
SHM_DIR = Path("/dev/shm")

CURVE_GRID = [3.0, 5.0, 7.0]

#: Serving-phase faults: at most ``retries`` scheduled faults total, so
#: even the worst case — one request's sends absorbing every fault —
#: still succeeds within its retry budget.  Deterministic guarantee,
#: not a probabilistic one.
SERVE_FAULT_SCHEDULE = (3, 11, 19, 27)
CLIENT_RETRIES = 5


def walk_doc(p_up: float, beta: float, horizon: int = 80) -> dict:
    return {"process": {"family": "random_walk",
                        "params": {"p_up": p_up, "p_down": 0.4}},
            "beta": beta, "horizon": horizon}


def gauss_doc(drift: float, beta: float, horizon: int = 100) -> dict:
    return {"process": {"family": "gaussian_walk",
                        "params": {"drift": drift, "sigma": 1.0}},
            "beta": beta, "horizon": horizon}


def shm_entries() -> set:
    """Names currently in /dev/shm (empty set where it doesn't exist)."""
    try:
        return {entry.name for entry in SHM_DIR.iterdir()}
    except OSError:
        return set()


# ---------------------------------------------------------------------
# Phase 1: recovery determinism
# ---------------------------------------------------------------------

def pooled_policy(max_roots: int, restarts: int) -> ExecutionPolicy:
    """A fork-pooled policy with small tasks (many dispatch points)."""
    return ExecutionPolicy(
        method="srs", max_roots=max_roots, seed=29,
        parallel=ParallelPolicy(n_workers=2, roots_per_task=64,
                                pool="fork",
                                max_worker_restarts=restarts,
                                task_retry_limit=4))


def engine_answers(policy: ExecutionPolicy) -> dict:
    """Canonical bytes for the three engine entry points."""
    point = parse_query(walk_doc(0.55, 6.0))
    batch = [parse_query(gauss_doc(0.02 * k + 0.01, 6.0))
             for k in range(4)]
    curve = parse_query(walk_doc(0.55, 4.0))
    with DurabilityEngine(policy) as engine:
        answers = {
            "answer": dumps_canonical(
                encode_estimate(engine.answer(point))),
            "answer_batch": dumps_canonical(
                [encode_estimate(e)
                 for e in engine.answer_batch(batch)]),
            "durability_curve": dumps_canonical(
                encode_curve(engine.durability_curve(curve,
                                                     CURVE_GRID))),
        }
        answers["resilience"] = engine.resilience_stats()
    return answers


def recovery_phase(max_roots: int) -> dict:
    policy = pooled_policy(max_roots, restarts=8)
    baseline = engine_answers(policy)
    plan = FaultPlan(worker_kills=(2, 7))
    with inject(plan):
        disturbed = engine_answers(policy)
    calls = ("answer", "answer_batch", "durability_curve")
    return {
        "kills_injected": plan.fired["pool.dispatch"],
        "worker_restarts": disturbed["resilience"]["worker_restarts"],
        "tasks_recovered": disturbed["resilience"]["tasks_recovered"],
        "baseline_restarts": baseline["resilience"]["worker_restarts"],
        "identical": {call: baseline[call] == disturbed[call]
                      for call in calls},
    }


# ---------------------------------------------------------------------
# Phase 2: budget-zero abort with cleanup
# ---------------------------------------------------------------------

def abort_phase(max_roots: int) -> dict:
    before = shm_entries()
    policy = pooled_policy(max_roots, restarts=0)
    plan = FaultPlan(worker_kills=(1,))
    outcome = {"raised": False, "message": "", "kills_injected": 0}
    with inject(plan):
        with DurabilityEngine(policy) as engine:
            try:
                engine.answer(parse_query(walk_doc(0.55, 6.0)))
            except RuntimeError as exc:
                outcome["raised"] = True
                outcome["message"] = str(exc)
    outcome["kills_injected"] = plan.fired["pool.dispatch"]
    outcome["message_names_worker"] = "exited" in outcome["message"]
    outcome["shm_leaked"] = sorted(shm_entries() - before)
    return outcome


# ---------------------------------------------------------------------
# Phase 3: serving through injected faults and deadlines
# ---------------------------------------------------------------------

async def serve_burst(port: int, docs: list, expected: list,
                      requests: int, concurrency: int) -> dict:
    tally = {"requests": requests, "served": 0, "protocol_errors": 0,
             "identity_mismatches": 0, "retries_used": 0,
             "details": []}
    queue: asyncio.Queue = asyncio.Queue()
    for index in range(requests):
        queue.put_nowait(index % len(docs))

    async def worker():
        async with ServeClient("127.0.0.1", port,
                               retries=CLIENT_RETRIES) as client:
            while True:
                try:
                    shape = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                try:
                    reply = await client.answer(docs[shape])
                except Exception as exc:
                    tally["protocol_errors"] += 1
                    if len(tally["details"]) < 5:
                        tally["details"].append(
                            f"{type(exc).__name__}: {exc}")
                    continue
                if reply.raw != expected[shape]:
                    tally["identity_mismatches"] += 1
                else:
                    tally["served"] += 1
            tally["retries_used"] += client.retries_used

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return tally


async def deadline_check(port: int) -> dict:
    outcome = {"got_504": False, "kind": "", "recovered": False}
    async with ServeClient("127.0.0.1", port) as client:
        await client.apply_config({"request_deadline_seconds": 0.02})
        try:
            try:
                await client.answer(gauss_doc(0.03, 9.0, horizon=300),
                                    policy={"max_roots": 60_000})
            except ServeError as exc:
                outcome["got_504"] = exc.status == 504
                outcome["kind"] = exc.kind
        finally:
            await client.apply_config({"request_deadline_seconds": 0.0})
        reply = await client.answer(walk_doc(0.55, 4.0))
        outcome["recovered"] = reply.status == 200
    return outcome


async def scrape_metrics(port: int) -> dict:
    async with ServeClient("127.0.0.1", port) as client:
        return await client.metrics()


def serving_phase(requests: int, concurrency: int) -> dict:
    policy = ExecutionPolicy(method="srs", max_roots=250, seed=17)
    docs = [walk_doc(p_up, beta)
            for p_up in (0.52, 0.55) for beta in (4.0, 6.0, 8.0)]
    with DurabilityEngine(policy) as engine:
        expected = [dumps_canonical(
            {"ok": True,
             "result": encode_estimate(engine.answer(parse_query(doc))),
             "cost_class": "cache_hit"}) for doc in docs]

    config = ServeConfig(engine_workers=2, watchdog_interval_seconds=0.25)
    plan = FaultPlan(serve_errors=SERVE_FAULT_SCHEDULE)
    with ServerThread(policy=policy, config=config) as handle:
        port = handle.port
        with inject(plan):
            burst = asyncio.run(serve_burst(port, docs, expected,
                                            requests, concurrency))
        deadline = asyncio.run(deadline_check(port))
        metrics = asyncio.run(scrape_metrics(port))

    counters = metrics.get("counters", {})
    burst["faults_injected"] = plan.fired["serve.request"]
    return {
        "burst": burst,
        "deadline": deadline,
        "metrics": {
            "faults_injected": counters.get("faults_injected", 0),
            "client_retries": counters.get("client_retries", 0),
            "deadline_kills": counters.get("deadline_kills", 0),
            "resilience": metrics.get("gauges", {}).get("resilience"),
        },
    }


# ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (identical gates)")
    args = parser.parse_args()

    if args.quick:
        max_roots, requests, concurrency = 1600, 36, 6
    else:
        max_roots, requests, concurrency = 4000, 120, 12

    recovery = recovery_phase(max_roots)
    abort = abort_phase(max_roots)
    serving = serving_phase(requests, concurrency)

    gates = {
        # >= 2 workers actually SIGKILLed mid-run, recovered, and every
        # entry point's bytes identical to the undisturbed run.
        "kills_injected": recovery["kills_injected"] >= 2,
        "workers_recovered": recovery["worker_restarts"] >= 2
        and recovery["tasks_recovered"] >= 1
        and recovery["baseline_restarts"] == 0,
        "recovery_byte_identity": all(recovery["identical"].values()),
        # Budget 0 restores the historical abort exactly: RuntimeError
        # naming the exited worker, no shared memory left behind.
        "abort_raised": abort["raised"]
        and abort["message_names_worker"]
        and abort["kills_injected"] >= 1,
        "abort_no_shm_leak": not abort["shm_leaked"],
        # Every bursted request succeeded byte-identically despite the
        # injected 503s, which clients absorbed by retrying.
        "serving_all_served": serving["burst"]["served"]
        == serving["burst"]["requests"],
        "serving_zero_protocol_errors":
        serving["burst"]["protocol_errors"] == 0
        and serving["burst"]["identity_mismatches"] == 0,
        "serving_faults_fired": serving["burst"]["faults_injected"] >= 1
        and serving["metrics"]["faults_injected"] >= 1
        and serving["burst"]["retries_used"] >= 1,
        # The deadline produced a structured 504 and the server kept
        # serving once it was lifted.
        "deadline_enforced": serving["deadline"]["got_504"]
        and serving["deadline"]["kind"] == "deadline_exceeded"
        and serving["metrics"]["deadline_kills"] >= 1
        and serving["deadline"]["recovered"],
    }
    ok = all(gates.values())

    payload = {
        "benchmark": "resilience",
        "quick": bool(args.quick),
        "cpu_count": os.cpu_count() or 1,
        "recovery": recovery,
        "abort": abort,
        "serving": serving,
        "gates": gates,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"recovery: {recovery['kills_injected']} kills injected, "
        f"{recovery['worker_restarts']} workers respawned, "
        f"{recovery['tasks_recovered']} tasks re-run",
        "  byte identity vs undisturbed run: "
        + ", ".join(f"{call}={'OK' if same else 'BROKEN'}"
                    for call, same in recovery["identical"].items()),
        f"budget-0 abort: raised={abort['raised']} "
        f"(message names worker: {abort['message_names_worker']}), "
        f"shm leaked: {abort['shm_leaked'] or 'none'}",
        f"serving: {serving['burst']['served']}/"
        f"{serving['burst']['requests']} served through "
        f"{serving['burst']['faults_injected']} injected faults "
        f"({serving['burst']['retries_used']} client retries, "
        f"{serving['burst']['protocol_errors']} protocol errors, "
        f"{serving['burst']['identity_mismatches']} identity "
        f"mismatches)",
        f"deadline: 504={serving['deadline']['got_504']} "
        f"kind={serving['deadline']['kind']!r} "
        f"kills={serving['metrics']['deadline_kills']} "
        f"recovered={serving['deadline']['recovered']}",
        "",
        "gates: " + ", ".join(
            f"{name}={'pass' if passed else 'FAIL'}"
            for name, passed in gates.items()),
    ]
    write_report("resilience", "Fault-tolerant execution", lines)
    print(f"gates {'met' if ok else 'MISSED'}; results in {RESULT_JSON}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
