"""End-to-end serving tests: byte identity, shedding, streaming, drain.

These drive a real :class:`DurabilityServer` on a background thread
through plain ``http.client`` sockets — the same wire a real client
sees.  The load benchmark (``benchmarks/bench_serving.py``) scales the
same checks to thousands of concurrent requests.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro.core.levels import LevelPartition
from repro.engine import DurabilityEngine, ExecutionPolicy
from repro.serve import ServerThread, ServeConfig
from repro.serve.protocol import (dumps_canonical, encode_curve,
                                  encode_estimate, parse_query,
                                  strip_plan_provenance)

from ..helpers import MALFORMED_POLICIES

DEFAULT_POLICY = ExecutionPolicy(method="srs", max_roots=300, seed=11)

WALK_DOC = {"process": {"family": "random_walk",
                        "params": {"p_up": 0.55}},
            "beta": 6.0, "horizon": 80}

GAUSS_DOCS = [{"process": {"family": "gaussian_walk",
                           "params": {"drift": 0.05, "sigma": 1.0}},
               "beta": 3.0 + index, "horizon": 80}
              for index in range(6)]


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(watchdog_interval_seconds=0.05)
    with ServerThread(policy=DEFAULT_POLICY, config=config) as handle:
        yield handle


def call(handle, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                      timeout=120)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def post_raw(handle, path, body: str):
    """POST a raw body; the status and the parsed response."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                      timeout=120)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestByteIdentity:
    """The serving determinism contract: served bytes == in-process
    bytes for the same query + policy + seed."""

    def test_point_answer(self, server):
        status, headers, raw = call(server, "POST", "/answer",
                                    {"query": WALK_DOC})
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.answer(parse_query(WALK_DOC))
        assert raw == dumps_canonical(
            {"ok": True, "result": encode_estimate(reference),
             "cost_class": "cache_hit"})
        assert float(headers["X-Elapsed-Ms"]) > 0.0
        assert "elapsed" not in raw.decode()

    def test_point_answer_is_repeatable(self, server):
        first = call(server, "POST", "/answer", {"query": WALK_DOC})
        second = call(server, "POST", "/answer", {"query": WALK_DOC})
        assert first[2] == second[2]

    def test_batch_answer_fused_fleet(self, server):
        status, _, raw = call(server, "POST", "/answer_batch",
                              {"queries": GAUSS_DOCS})
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.answer_batch(
                [parse_query(doc) for doc in GAUSS_DOCS])
        assert raw == dumps_canonical(
            {"ok": True,
             "results": [encode_estimate(e) for e in reference],
             "cost_class": "fleet"})

    def test_curve_unary(self, server):
        grid = [3.0, 6.0, 9.0]
        status, _, raw = call(server, "POST", "/curve",
                              {"query": WALK_DOC, "thresholds": grid,
                               "stream": False})
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.durability_curve(parse_query(WALK_DOC),
                                                grid)
        assert raw == dumps_canonical(
            {"ok": True, "result": encode_curve(reference),
             "cost_class": "curve"})

    def test_mlss_with_explicit_partition(self, server):
        """Explicit wire partitions short-circuit plan search, making
        MLSS answers cache-state-independent — identity holds on a
        shared live server."""
        doc = dict(WALK_DOC, beta=8.0)
        boundaries = [0.25, 0.5, 0.75]
        payload = {"query": doc, "partition": boundaries,
                   "policy": {"method": "gmlss"}}
        status, _, raw = call(server, "POST", "/answer", payload)
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.answer(
                parse_query(doc),
                policy=DEFAULT_POLICY.replace(method="gmlss"),
                partition=LevelPartition(boundaries))
        assert raw == dumps_canonical(
            {"ok": True, "result": encode_estimate(reference),
             "cost_class": "cache_hit"})


class TestStreamingCurve:
    def test_chunked_events_in_grid_order(self, server):
        grid = [2.0, 5.0, 8.0, 11.0]
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            conn.request("POST", "/curve",
                         body=json.dumps({"query": WALK_DOC,
                                          "thresholds": grid}))
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            lines = [line for line in response.read().split(b"\n")
                     if line]
        finally:
            conn.close()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] \
            == ["start"] + ["point"] * 4 + ["end"]
        assert [e["threshold"] for e in events[1:-1]] == grid
        # Point events are byte-identical to the in-process curve.
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.durability_curve(parse_query(WALK_DOC),
                                                grid)
        for event, estimate in zip(events[1:-1], reference.estimates):
            assert dumps_canonical(event["estimate"]) \
                == dumps_canonical(encode_estimate(estimate))
        assert events[-1]["n_roots"] == reference.n_roots

    def test_points_arrive_progressively(self, server):
        """Each event is its own chunk: the first line is parseable
        before the connection finishes."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            conn.request("POST", "/curve",
                         body=json.dumps({"query": WALK_DOC,
                                          "thresholds": [3.0, 6.0]}))
            response = conn.getresponse()
            first = json.loads(response.readline())
            assert first["event"] == "start"
            rest = [json.loads(line)
                    for line in response.read().split(b"\n") if line]
            assert [e["event"] for e in rest] \
                == ["point", "point", "end"]
        finally:
            conn.close()

    def test_curves_streams_one_chunk_per_curve(self, server):
        payload = {"queries": [WALK_DOC, dict(WALK_DOC, beta=9.0)],
                   "thresholds": [3.0, 6.0], "stream": True}
        status, _, raw = call(server, "POST", "/curves", payload)
        assert status == 200
        events = [json.loads(line) for line in raw.split(b"\n") if line]
        assert [e["event"] for e in events] == ["curve", "curve", "end"]
        assert [e.get("index") for e in events[:-1]] == [0, 1]


class TestSessions:
    def test_session_pins_policy_and_seed(self, server):
        status, _, raw = call(server, "POST", "/session",
                              {"policy": {"method": "srs",
                                          "max_roots": 120},
                               "labels": {"suite": "serve"}})
        assert status == 201
        session = json.loads(raw)
        assert session["ok"] is True
        assert session["policy"]["max_roots"] == 120
        assert session["policy"]["seed"] is not None

        first = call(server, "POST", "/answer",
                     {"query": WALK_DOC, "session": session["session"]})
        second = call(server, "POST", "/answer",
                      {"query": WALK_DOC, "session": session["session"]})
        assert first[0] == 200
        assert first[2] == second[2]  # same pinned seed -> same bytes
        assert json.loads(first[2])["result"]["n_roots"] == 120

        status, _, raw = call(server, "GET",
                              f"/session/{session['session']}")
        assert status == 200
        assert json.loads(raw)["requests"] >= 2

        status, _, _ = call(server, "DELETE",
                            f"/session/{session['session']}")
        assert status == 200
        status, _, raw = call(server, "POST", "/answer",
                              {"query": WALK_DOC,
                               "session": session["session"]})
        assert status == 404
        assert json.loads(raw)["error"]["kind"] == "unknown_session"

    def test_request_policy_overrides_session_policy(self, server):
        _, _, raw = call(server, "POST", "/session",
                         {"policy": {"method": "srs",
                                     "max_roots": 150}})
        session = json.loads(raw)["session"]
        _, _, raw = call(server, "POST", "/answer",
                         {"query": WALK_DOC, "session": session,
                          "policy": {"max_roots": 60}})
        assert json.loads(raw)["result"]["n_roots"] == 60


class TestProtocolErrors:
    def test_malformed_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/answer", body="{nope")
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["kind"] \
                == "protocol"
        finally:
            conn.close()

    def test_missing_query_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer", {})
        assert status == 400
        assert "query" in json.loads(raw)["error"]["message"]

    def test_unknown_policy_field_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer",
                              {"query": WALK_DOC,
                               "policy": {"max_rootz": 5}})
        assert status == 400

    @pytest.mark.parametrize("options", [
        {"bogus": 1}, 5, {"batch_roots": 0}, {"backend": "scalar"},
    ])
    def test_bad_sampler_options_are_400(self, server, options):
        status, _, raw = call(server, "POST", "/answer",
                              {"query": WALK_DOC,
                               "policy": {"sampler_options": options}})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "protocol"
        assert "sampler" in error["message"]

    @pytest.mark.parametrize("policy,field", MALFORMED_POLICIES)
    def test_malformed_policy_numbers_are_400(self, server, policy, field):
        walk = {"process": {"family": "random_walk",
                            "params": {"p_up": 0.35, "p_down": 0.45}},
                "beta": 10.0, "horizon": 60}
        status, _, raw = call(server, "POST", "/answer",
                              {"query": walk, "policy": policy})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "protocol"
        assert field in error["message"]

    def test_fleet_option_on_plain_gmlss_answers(self, server):
        """``adaptive`` tunes fused fleets; a single g-MLSS answer
        ignores it and answers as it does without it (the second call
        finds the plan cached, so only the provenance differs)."""
        policy = {"method": "gmlss", "trial_steps": 2_000}
        plain = call(server, "POST", "/answer",
                     {"query": WALK_DOC, "policy": policy})
        tuned = call(server, "POST", "/answer", {
            "query": WALK_DOC,
            "policy": dict(policy, sampler_options={"adaptive": False})})
        assert plain[0] == tuned[0] == 200
        answers = [strip_plan_provenance(json.loads(raw)["result"])
                   for _, _, raw in (plain, tuned)]
        assert answers[0] == answers[1]

    def test_policy_naming_backend_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer",
                              {"query": WALK_DOC,
                               "policy": {"backend": "scalar"}})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "protocol"
        assert "backend" in error["message"]

    def test_policy_naming_streamed_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer", {
            "query": WALK_DOC,
            "policy": {"parallel": {"pool": "inline", "streamed": False}}})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "protocol"
        assert "streamed" in error["message"]

    def test_unknown_route_is_404(self, server):
        status, _, raw = call(server, "GET", "/nonsense")
        assert status == 404
        assert json.loads(raw)["error"]["kind"] == "not_found"

    def test_error_statuses_keep_the_connection_alive(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/answer", body=json.dumps({}))
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()


CHAIN_DOC = {"process": {"family": "markov_chain",
                         "params": {"transition_matrix": [
                             [0.6, 0.4, 0.0, 0.0], [0.3, 0.3, 0.4, 0.0],
                             [0.0, 0.3, 0.3, 0.4], [0.0, 0.0, 0.0, 1.0]]}},
             "beta": 3.0, "horizon": 30}


class TestWrongShapeRequests:
    """Well-formed JSON of the wrong shape is a 400 ``protocol``, never
    a 500 from deep inside a handler or the engine."""

    @staticmethod
    def assert_protocol_400(status, document, naming=""):
        assert status == 400, document
        assert document["error"]["kind"] == "protocol"
        assert naming in document["error"]["message"]

    @pytest.mark.parametrize("path", ["/answer", "/answer_batch", "/curve",
                                      "/curves", "/session", "/config"])
    @pytest.mark.parametrize("body", ["[1, 2]", '"text"', "7", "null"])
    def test_non_object_body(self, server, path, body):
        self.assert_protocol_400(*post_raw(server, path, body),
                                 naming="object")

    @pytest.mark.parametrize("path,payload", [
        ("/answer", {"query": WALK_DOC}),
        ("/answer_batch", {"queries": GAUSS_DOCS[:2]}),
    ])
    @pytest.mark.parametrize("tenant", [{"x": 1}, ["a"], 7])
    def test_non_string_tenant(self, server, path, payload, tenant):
        status, _, raw = call(server, "POST", path,
                              dict(payload, tenant=tenant))
        self.assert_protocol_400(status, json.loads(raw), naming="tenant")

    @pytest.mark.parametrize("z", ["step", "initial_state", "fusion_key",
                                   "__repr__", "__class__"])
    def test_z_must_be_a_state_evaluation(self, server, z):
        """The 400 names what the process does register."""
        status, _, raw = call(server, "POST", "/answer",
                              {"query": dict(CHAIN_DOC, z=z)})
        self.assert_protocol_400(status, json.loads(raw),
                                 naming="'state_value'")

    @pytest.mark.parametrize("z", [["position"], 5])
    def test_z_must_be_a_string(self, server, z):
        status, _, raw = call(server, "POST", "/answer",
                              {"query": dict(WALK_DOC, z=z)})
        self.assert_protocol_400(status, json.loads(raw), naming="z must")

    def test_registered_bound_z_answers(self, server):
        doc = dict(CHAIN_DOC, z="state_value")
        status, _, raw = call(server, "POST", "/answer", {"query": doc})
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.answer(parse_query(doc))
        assert raw == dumps_canonical(
            {"ok": True, "result": encode_estimate(reference),
             "cost_class": "cache_hit"})


IMPULSE_WALK_DOC = {
    "process": {"family": "impulse",
                "params": {"base": WALK_DOC["process"], "impulse": -2.0,
                           "probability": 0.05, "active_after": 20}},
    "beta": 6.0, "horizon": 80}


class TestCrossFamilyZ:
    """A shared evaluation name answers only for a process family that
    registers it: elsewhere it is a 400 ``protocol`` naming what the
    family accepts, not a 500 or another family's evaluation."""

    @pytest.mark.parametrize("doc,z,accepted", [
        (WALK_DOC, "queue1_length", "['position']"),
        (CHAIN_DOC, "queue2_length", "['state_index', 'state_value']"),
        ({"process": {"family": "ar",
                      "params": {"coefficients": [0.5, 0.2],
                                 "sigma": 1.0}},
          "beta": 3.0, "horizon": 30}, "position", "['current_value']"),
    ])
    def test_other_familys_z_is_400(self, server, doc, z, accepted):
        status, _, raw = call(server, "POST", "/answer",
                              {"query": dict(doc, z=z)})
        TestWrongShapeRequests.assert_protocol_400(
            status, json.loads(raw), naming=f"choose from {accepted}")

    @pytest.mark.parametrize("doc", [
        GAUSS_DOCS[0], dict(GAUSS_DOCS[0], z="position"),
        dict(IMPULSE_WALK_DOC, z="position")])
    def test_own_z_answers_as_in_process(self, server, doc):
        status, _, raw = call(server, "POST", "/answer", {"query": doc})
        assert status == 200
        with DurabilityEngine(DEFAULT_POLICY) as engine:
            reference = engine.answer(parse_query(doc))
        assert raw == dumps_canonical(
            {"ok": True, "result": encode_estimate(reference),
             "cost_class": "cache_hit"})


class TestWorkerBound:
    """One request may not fork more workers than the host has CPUs.
    Only ``os.cpu_count() + 1`` is ever asked for: were the bound gone,
    the request would fork that many processes."""

    def test_too_many_workers_is_400_and_builds_no_pool(self):
        cpus = os.cpu_count() or 1
        policy = {"parallel": {"n_workers": cpus + 1}}
        config = ServeConfig(watchdog_interval_seconds=0.05)
        with ServerThread(policy=DEFAULT_POLICY, config=config) as handle:
            for path, payload in (
                    ("/answer", {"query": WALK_DOC, "policy": policy}),
                    ("/session", {"policy": policy})):
                status, _, raw = call(handle, "POST", path, payload)
                assert status == 400, path
                error = json.loads(raw)["error"]
                assert error["kind"] == "protocol"
                assert f"n_workers={cpus + 1}" in error["message"]
                assert f"{cpus} CPUs" in error["message"]
            assert handle.server.engine._pool is None


class TestBootstrapRoundsBound:
    """One request may ask for at most 2,000 bootstrap replicates, ten
    times the default; 10**12 once failed allocating 36 TiB of replicate
    estimates as a 500."""

    @staticmethod
    def request(rounds):
        return {"query": WALK_DOC, "partition": [0.5],
                "policy": {"method": "gmlss", "max_roots": 300, "seed": 4,
                           "sampler_options": {"bootstrap_rounds": rounds}}}

    @pytest.mark.parametrize("rounds", [2_001, 10 ** 12])
    def test_more_rounds_is_400(self, server, rounds):
        status, _, raw = call(server, "POST", "/answer",
                              self.request(rounds))
        TestWrongShapeRequests.assert_protocol_400(
            status, json.loads(raw),
            naming=f"bootstrap_rounds={rounds} exceeds the bound of 2000")

    def test_bound_itself_answers(self, server):
        status, _, raw = call(server, "POST", "/answer",
                              self.request(2_000))
        assert status == 200
        result = json.loads(raw)["result"]
        assert result["method"] == "gmlss"
        assert result["n_roots"] == 300


class TestBudgetAndPlanErrors:
    """Typed engine failures are structured 400s, and strict pooled
    budgets answer from real samples."""

    def test_pooled_budget_below_one_path_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer", {
            "query": {"process": {"family": "random_walk",
                                  "params": {"p_up": 0.55,
                                             "p_down": 0.4}},
                      "beta": 4.0, "horizon": 80},
            "policy": {"method": "srs", "max_steps": 50, "max_roots": None,
                       "seed": 3, "parallel": {"pool": "inline"}}})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "step_budget"
        assert "max_steps=50" in error["message"]
        assert "80" in error["message"]

    def test_balanced_plan_failure_is_400(self, server):
        status, _, raw = call(server, "POST", "/answer", {
            "query": {"process": {"family": "random_walk",
                                  "params": {"p_up": 0.9,
                                             "p_down": 0.05}},
                      "beta": 1.0, "horizon": 80},
            "policy": {"method": "gmlss", "num_levels": 3,
                       "max_steps": 20000}})
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["kind"] == "level_plan"
        assert "tail" in error["message"]

    def test_pooled_deep_plan_answers_from_roots(self, server):
        from repro.core.analytic import random_walk_hitting_probability
        status, _, raw = call(server, "POST", "/answer", {
            "query": {"process": {"family": "random_walk",
                                  "params": {"p_up": 0.2,
                                             "p_down": 0.3}},
                      "beta": 14.0, "horizon": 100},
            "policy": {"method": "auto",
                       "quality": {"kind": "re", "target": 0.2},
                       "max_steps": 50_000_000, "max_roots": None,
                       "seed": 1014, "parallel": {"pool": "inline"}}})
        assert status == 200
        result = json.loads(raw)["result"]
        exact = random_walk_hitting_probability(0.2, 14, 100, p_down=0.3)
        assert result["n_roots"] > 0
        assert abs(result["probability"] - exact) \
            <= 5 * result["variance"] ** 0.5


class TestObservability:
    def test_metrics_counts_requests_and_latency(self, server):
        call(server, "POST", "/answer", {"query": WALK_DOC})
        _, _, raw = call(server, "GET", "/metrics")
        snapshot = json.loads(raw)
        assert snapshot["counters"]["requests_total"] >= 1
        assert snapshot["latency_seconds"]["answer"]["count"] >= 1
        assert snapshot["latency_seconds"]["answer"]["p95"] > 0
        assert snapshot["gauges"]["plan_cache"]["entries"] >= 0
        assert snapshot["gauges"]["admission"]["capacity_units"] >= 1

    def test_metrics_expose_plan_cache_counters(self, server):
        """Cache efficacy is observable from /metrics: a cold answer
        misses the plan cache, a repeat hits it, and the hit/miss/
        eviction counters move accordingly."""
        request = {"query": dict(WALK_DOC, beta=11.0),
                   "policy": {"method": "gmlss"}}
        call(server, "POST", "/answer", request)
        call(server, "POST", "/answer", request)
        _, _, raw = call(server, "GET", "/metrics")
        cache = json.loads(raw)["gauges"]["plan_cache"]
        for counter in ("hits", "misses", "evictions", "hit_rate",
                        "max_entries"):
            assert counter in cache
        assert cache["misses"] >= 1
        assert cache["hits"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_watchdog_publishes_verdict(self, server):
        call(server, "POST", "/answer", {"query": WALK_DOC})
        time.sleep(0.3)  # a few 0.05s watchdog intervals
        _, _, raw = call(server, "GET", "/stats")
        stats = json.loads(raw)
        assert stats["watchdog"]["samples"] >= 1
        assert stats["watchdog"]["stalled"] is False
        assert stats["engine"]["plan_cache"]["max_entries"] >= 1

    def test_config_hot_reload_over_http(self, server):
        _, _, raw = call(server, "GET", "/stats")
        version = json.loads(raw)["config_version"]
        status, _, raw = call(server, "POST", "/config",
                              {"max_queue": 33})
        assert status == 200
        applied = json.loads(raw)
        assert applied["config"]["max_queue"] == 33
        assert applied["version"] == version + 1
        _, _, raw = call(server, "GET", "/stats")
        assert json.loads(raw)["admission"]["max_queue"] == 33
        status, _, _ = call(server, "POST", "/config",
                            {"max_queue": -3})
        assert status == 400

    def test_healthz(self, server):
        status, _, raw = call(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(raw) == {"ok": True, "draining": False}


SLOW_DOC = {"process": {"family": "gaussian_walk",
                        "params": {"drift": 0.02, "sigma": 1.0}},
            "beta": 12.0, "horizon": 400}


class TestLoadShedding:
    def test_queue_full_sheds_503(self):
        config = ServeConfig(engine_workers=1, max_inflight_units=1,
                             max_queue=0, watchdog_interval_seconds=5.0)
        slow = ExecutionPolicy(method="srs", max_roots=40_000, seed=3)
        with ServerThread(policy=slow, config=config) as handle:
            statuses = []
            lock = threading.Lock()

            def fire():
                status, _, raw = call(handle, "POST", "/answer",
                                      {"query": SLOW_DOC})
                with lock:
                    statuses.append((status, raw))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        codes = [status for status, _ in statuses]
        assert 200 in codes
        assert 503 in codes
        assert set(codes) <= {200, 503}
        for status, raw in statuses:
            if status == 503:
                assert json.loads(raw)["error"]["kind"] == "shed"

    def test_rate_limited_tenant_gets_429_with_retry_after(self):
        config = ServeConfig(rate_default_rps=0.001,
                             rate_default_burst=1.0,
                             watchdog_interval_seconds=5.0)
        with ServerThread(policy=DEFAULT_POLICY,
                          config=config) as handle:
            first = call(handle, "POST", "/answer",
                         {"query": WALK_DOC})
            second = call(handle, "POST", "/answer",
                          {"query": WALK_DOC})
        assert first[0] == 200
        assert second[0] == 429
        body = json.loads(second[2])
        assert body["error"]["kind"] == "rate_limited"
        assert float(second[1]["Retry-After"]) > 0

    def test_tenants_are_isolated(self):
        config = ServeConfig(
            rate_tenants={"noisy": {"rps": 0.001, "burst": 1.0}},
            watchdog_interval_seconds=5.0)
        with ServerThread(policy=DEFAULT_POLICY,
                          config=config) as handle:
            noisy = {"X-Tenant": "noisy"}
            assert call(handle, "POST", "/answer", {"query": WALK_DOC},
                        headers=noisy)[0] == 200
            assert call(handle, "POST", "/answer", {"query": WALK_DOC},
                        headers=noisy)[0] == 429
            assert call(handle, "POST", "/answer",
                        {"query": WALK_DOC})[0] == 200


class TestGracefulShutdown:
    def test_in_flight_requests_drain_before_stop(self):
        config = ServeConfig(engine_workers=1,
                             watchdog_interval_seconds=5.0)
        slow = ExecutionPolicy(method="srs", max_roots=60_000, seed=5)
        handle = ServerThread(policy=slow, config=config).start()
        outcome = {}

        def slow_call():
            outcome["reply"] = call(handle, "POST", "/answer",
                                    {"query": SLOW_DOC})

        thread = threading.Thread(target=slow_call)
        thread.start()
        time.sleep(0.25)  # let the request reach the engine
        handle.stop()
        thread.join(timeout=60)
        status, _, raw = outcome["reply"]
        assert status == 200
        assert json.loads(raw)["ok"] is True
        # The listener is gone after stop.
        with pytest.raises(OSError):
            call(handle, "GET", "/healthz")


class TestConcurrentMixedLoad:
    def test_small_mixed_burst_has_zero_protocol_errors(self, server):
        """A miniature of the load benchmark: concurrent mixed
        point/batch/curve traffic, every response well-formed."""
        payloads = []
        for index in range(12):
            kind = index % 3
            if kind == 0:
                payloads.append(("/answer",
                                 {"query": dict(WALK_DOC,
                                                beta=4.0 + index)}))
            elif kind == 1:
                payloads.append(("/answer_batch",
                                 {"queries": GAUSS_DOCS[:4]}))
            else:
                payloads.append(("/curve",
                                 {"query": WALK_DOC,
                                  "thresholds": [3.0, 6.0],
                                  "stream": False}))
        results = []
        lock = threading.Lock()

        def fire(path, payload):
            status, _, raw = call(server, "POST", path, payload)
            with lock:
                results.append((status, raw))

        threads = [threading.Thread(target=fire, args=item)
                   for item in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 12
        for status, raw in results:
            assert status == 200
            body = json.loads(raw)
            assert body["ok"] is True


class TestNonFiniteNumbersAndGrids:
    """Every number in a request must be finite, and a malformed grid
    is a 400 on both curve routes."""

    POLICY = ExecutionPolicy(method="srs", max_roots=300, seed=1)

    @staticmethod
    def walk(p_up=0.45, beta=9.0):
        return {"process": {"family": "random_walk",
                            "params": {"p_up": p_up, "p_down": 0.45}},
                "beta": beta, "horizon": 40}

    @pytest.fixture(scope="class")
    def handle(self):
        with ServerThread(policy=self.POLICY) as handle:
            yield handle

    def assert_protocol_400(self, handle, path, body: str):
        status, document = post_raw(handle, path, body)
        assert status == 400, document
        assert document["error"]["kind"] == "protocol"

    @staticmethod
    def with_number(document, text: str) -> str:
        """``document`` as JSON with the ``"@"`` placeholder set to a raw
        number token (``NaN``, ``1e400``, ...)."""
        return json.dumps(document).replace('"@"', text)

    @pytest.mark.parametrize("grid", ["[0, 3]", "[-1, 3]", "[3, 3]",
                                      "[3, Infinity]", "[3, NaN]"])
    def test_malformed_curve_grid_is_400(self, handle, grid):
        body = self.with_number({"query": self.walk(),
                                 "thresholds": "@", "stream": False}, grid)
        self.assert_protocol_400(handle, "/curve", body)

    @pytest.mark.parametrize("grid", ["[0, 3]", "[-1, 3]", "[3, 3]",
                                      "[3, Infinity]", "[3, NaN]"])
    def test_malformed_curves_grid_is_400(self, handle, grid):
        body = self.with_number({"queries": [self.walk(),
                                             self.walk(p_up=0.44)],
                                 "thresholds": "@"}, grid)
        self.assert_protocol_400(handle, "/curves", body)

    def test_unsorted_grid_is_sorted_on_both_routes(self, handle):
        queries = [self.walk(), self.walk(p_up=0.44)]
        status, unsorted = post_raw(handle, "/curves", json.dumps(
            {"queries": queries, "thresholds": [9, 3, 6]}))
        assert status == 200
        status, ordered = post_raw(handle, "/curves", json.dumps(
            {"queries": queries, "thresholds": [3, 6, 9]}))
        assert status == 200
        assert unsorted == ordered
        status, single = post_raw(handle, "/curve", json.dumps(
            {"query": self.walk(), "thresholds": [9, 3, 6],
             "stream": False}))
        assert status == 200
        assert single["result"]["thresholds"] \
            == unsorted["results"][0]["thresholds"] == [3.0, 6.0, 9.0]

    @pytest.mark.parametrize("beta", [
        "NaN", "Infinity", "-Infinity", "1e400",
        pytest.param("9" * 400, id="400-digit-integer")])
    def test_non_finite_beta_is_400(self, handle, beta):
        self.assert_protocol_400(handle, "/answer", self.with_number(
            {"query": self.walk(beta="@")}, beta))
        self.assert_protocol_400(handle, "/answer_batch", self.with_number(
            {"queries": [self.walk(), self.walk(p_up=0.44, beta="@")]},
            beta))

    @pytest.mark.parametrize("process,value", [
        ({"family": "random_walk", "params": {"p_up": "@"}}, "NaN"),
        ({"family": "gbm", "params": {"mu": "@"}}, "NaN"),
        ({"family": "gaussian_walk", "params": {"sigma": "@"}},
         "Infinity"),
        ({"family": "tandem_queue", "params": {"arrival_rate": "@"}},
         "NaN"),
        ({"family": "ar", "params": {"coefficients": [0.5, "@"]}}, "NaN"),
        ({"family": "markov_chain",
          "params": {"transition_matrix": [["@", 0.5], [0.5, 0.5]]}},
         "NaN"),
    ])
    def test_non_finite_process_parameter_is_400(self, handle, process,
                                                 value):
        query = {"process": process, "beta": 9.0, "horizon": 40}
        self.assert_protocol_400(handle, "/answer", self.with_number(
            {"query": query}, value))

    def test_subnormal_service_time_is_400_not_a_wedged_thread(self,
                                                              handle):
        """``1e-310`` is finite JSON, but its service rate ``1 / 1e-310``
        is infinite; the request must be refused before any engine
        thread simulates it."""
        query = {"process": {"family": "tandem_queue",
                             "params": {"arrival_rate": 0.5,
                                        "mean_service1": 1e-310,
                                        "mean_service2": 2.0}},
                 "beta": 5.0, "horizon": 20}
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=20)
        try:
            conn.request("POST", "/answer", body=json.dumps({"query": query}))
            response = conn.getresponse()
            document = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400, document
        assert document["error"]["kind"] == "protocol"
        assert "1 / mean_service1 must be finite" in document["error"][
            "message"]

    def test_non_finite_quality_target_is_400(self, handle):
        self.assert_protocol_400(handle, "/answer", self.with_number(
            {"query": self.walk(),
             "policy": {"quality": {"kind": "ci", "half_width": "@"}}},
            "NaN"))
