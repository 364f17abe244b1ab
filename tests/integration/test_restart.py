"""Restart survival and the byte-identity matrix.

Satellite contract of the persistence PR: for one query shape, the
answer produced by (1) a cold plan search, (2) a store-loaded plan
after a restart, and (3) a pre-warmed plan must be byte-identical —
modulo plan provenance, which legitimately differs (``plan_source``:
search / store / cache) — across inline and fork pool modes, and
over HTTP through server restarts.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.core.value_functions import DurabilityQuery
from repro.db import PlanStore
from repro.engine import (DurabilityEngine, ExecutionPolicy, PlanCache,
                          ParallelPolicy)
from repro.processes.random_walk import RandomWalkProcess
from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import (dumps_canonical, encode_estimate,
                                  strip_plan_provenance)

FAST = ExecutionPolicy(max_steps=60_000, seed=2, trial_steps=5_000)

WALK_DOC = {"process": {"family": "random_walk",
                        "params": {"p_up": 0.35, "p_down": 0.45}},
            "beta": 10.0, "horizon": 40}


def walk_query() -> DurabilityQuery:
    process = RandomWalkProcess(p_up=0.35, p_down=0.45)
    return DurabilityQuery.threshold(
        process, RandomWalkProcess.position, beta=10.0, horizon=40)


def answer_bytes(estimate) -> bytes:
    return dumps_canonical(
        strip_plan_provenance(encode_estimate(estimate)))


def call(handle, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                      timeout=120)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestByteIdentityMatrix:
    """cold-search == store-loaded == pre-warmed, per pool mode."""

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        """{pool_mode: (cold_bytes, store_bytes, warmed_bytes)}."""
        results = {}
        base = tmp_path_factory.mktemp("plans")
        for mode in ("inline", "fork"):
            policy = FAST.replace(parallel=ParallelPolicy(
                n_workers=2, pool=mode))
            path = str(base / f"{mode}.db")

            store = PlanStore(path)
            with DurabilityEngine(
                    policy, plan_cache=PlanCache(store=store)) as engine:
                cold = engine.answer(walk_query())
            store.close()
            assert cold.details["plan_source"] == "search"

            store = PlanStore(path)
            with DurabilityEngine(
                    policy, plan_cache=PlanCache(store=store)) as engine:
                loaded = engine.answer(walk_query())
            store.close()

            with DurabilityEngine(policy) as engine:
                report = engine.warm_plan(walk_query())
                assert report["warmable"]
                assert report["cache_status"] == "miss"
                warmed = engine.answer(walk_query())

            results[mode] = (cold, loaded, warmed)
        return results

    @pytest.mark.parametrize("mode", ["inline", "fork"])
    def test_store_loaded_answers_match_cold(self, matrix, mode):
        cold, loaded, _ = matrix[mode]
        assert loaded.details["plan_source"] == "store"
        assert loaded.details["plan_origin"] == "store"
        assert DurabilityEngine._search_steps(loaded.details) == 0
        assert answer_bytes(loaded) == answer_bytes(cold)

    @pytest.mark.parametrize("mode", ["inline", "fork"])
    def test_pre_warmed_answers_match_cold(self, matrix, mode):
        cold, _, warmed = matrix[mode]
        assert warmed.details["plan_source"] == "cache"
        assert warmed.details["plan_origin"] == "warmed"
        assert DurabilityEngine._search_steps(warmed.details) == 0
        assert answer_bytes(warmed) == answer_bytes(cold)

    def test_pool_mode_does_not_change_the_bytes(self, matrix):
        inline_cold, _, _ = matrix["inline"]
        fork_cold, _, _ = matrix["fork"]
        assert answer_bytes(inline_cold) == answer_bytes(fork_cold)


class TestHttpRestart:
    """The serving tier survives a restart: same plan_store_path, new
    process state, previously-seen shapes answer from the store."""

    def test_session_answers_survive_a_server_restart(self, tmp_path):
        config = ServeConfig(watchdog_interval_seconds=0.05,
                             warm_enabled=False,
                             plan_store_path=str(tmp_path / "plans.db"))

        with ServerThread(policy=FAST, config=config) as handle:
            _, session = call(handle, "POST", "/session", {})
            status, first = call(handle, "POST", "/answer",
                                 {"query": WALK_DOC,
                                  "session": session["session"]})
        assert status == 200
        assert first["cost_class"] == "cold_search"
        assert first["result"]["details"]["plan_source"] == "search"

        with ServerThread(policy=FAST, config=config) as handle:
            _, session = call(handle, "POST", "/session", {})
            status, second = call(handle, "POST", "/answer",
                                  {"query": WALK_DOC,
                                   "session": session["session"]})
        assert status == 200
        assert second["cost_class"] == "cache_hit"
        details = second["result"]["details"]
        assert details["plan_source"] == "store"
        assert "plan_search" not in details

        stripped = [dumps_canonical(strip_plan_provenance(doc["result"]))
                    for doc in (first, second)]
        assert stripped[0] == stripped[1]

        # And the served bytes equal the in-process engine's answer —
        # the tier's byte-identity contract extends through the store.
        reference = DurabilityEngine(FAST).answer(walk_query())
        assert stripped[0] == dumps_canonical(strip_plan_provenance(
            encode_estimate(reference)))
