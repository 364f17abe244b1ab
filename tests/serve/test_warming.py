"""Serve-tier warming: watchdog-driven sweeps, /metrics gauges, hot
config, and the persistent plan store behind an HTTP server."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.engine import ExecutionPolicy
from repro.serve import ServeConfig, ServerThread

FAST = ExecutionPolicy(max_steps=60_000, seed=2, trial_steps=5_000)

WALK_DOC = {"process": {"family": "random_walk",
                        "params": {"p_up": 0.35, "p_down": 0.45}},
            "beta": 10.0, "horizon": 40}


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


@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(watchdog_interval_seconds=0.05,
                         warm_interval_seconds=0.05,
                         plan_store_path=str(tmp_path / "plans.db"))
    with ServerThread(policy=FAST, config=config) as handle:
        yield handle


class TestObservability:
    def test_metrics_carry_warmer_and_workload_gauges(self, server):
        status, metrics = call(server, "GET", "/metrics")
        assert status == 200
        gauges = metrics["gauges"]
        assert gauges["warmer"]["enabled"] is True
        assert gauges["warmer"]["forecaster"] == "moving_average"
        assert "forecast_hit_rate" in gauges["warmer"]
        assert gauges["workload_log"]["shapes"] == 0

    def test_stats_expose_warmer_and_workload_log(self, server):
        status, stats = call(server, "GET", "/stats")
        assert status == 200
        assert stats["warmer"]["plans_warmed"] == 0
        assert stats["workload_log"]["records"] == 0

    def test_answers_feed_the_workload_log(self, server):
        assert call(server, "POST", "/answer",
                    {"query": WALK_DOC})[0] == 200
        _, stats = call(server, "GET", "/stats")
        assert stats["workload_log"]["records"] == 1
        assert stats["workload_log"]["shapes"] == 1


class TestHotConfig:
    def test_warm_knobs_hot_reload(self, server):
        status, reply = call(server, "POST", "/config",
                             {"warm_enabled": False, "warm_top_k": 3,
                              "warm_forecaster": "linear"})
        assert status == 200
        assert reply["config"]["warm_enabled"] is False
        warmer = server.server.warmer
        assert warmer.enabled is False
        assert warmer.top_k == 3
        assert warmer.forecaster.name == "linear"

    def test_invalid_forecaster_is_rejected_whole(self, server):
        status, reply = call(server, "POST", "/config",
                             {"warm_forecaster": "oracle",
                              "warm_top_k": 5})
        assert status == 400
        assert server.server.warmer.top_k != 5  # nothing applied


class TestWatchdogDrivenWarming:
    def test_idle_cycles_warm_the_hot_shape(self, tmp_path):
        # Make the next-window forecast see the shape as hot (the
        # last-value forecaster needs just one arrival), then hold the
        # tier idle and let the watchdog dispatch a sweep.
        config = ServeConfig(watchdog_interval_seconds=0.05,
                             warm_interval_seconds=0.05,
                             warm_forecaster="last_value",
                             warm_window_seconds=3600.0,
                             plan_store_path=str(tmp_path / "plans.db"))
        hot_doc = dict(WALK_DOC, beta=20.0)
        with ServerThread(policy=FAST, config=config) as handle:
            status, first = call(handle, "POST", "/answer",
                                 {"query": WALK_DOC})
            assert status == 200
            assert first["result"]["details"]["plan_source"] == "search"
            # Record a *different* shape without paying its search yet:
            # an srs-mode answer is plan-free but still logged.
            status, _ = call(handle, "POST", "/answer",
                             {"query": hot_doc,
                              "policy": {"method": "srs",
                                         "max_roots": 200}})
            assert status == 200

            deadline = time.time() + 20.0
            warmed = 0
            while time.time() < deadline:
                _, stats = call(handle, "GET", "/stats")
                warmed = stats["warmer"]["plans_warmed"]
                if warmed >= 1:
                    break
                time.sleep(0.05)
            assert warmed >= 1
            assert stats["warmer"]["sweeps"] >= 1

            # The warmed shape now answers with zero on-path search.
            status, served = call(handle, "POST", "/answer",
                                  {"query": hot_doc})
            assert status == 200
            details = served["result"]["details"]
            assert details["plan_source"] in ("cache", "store")
            assert "plan_search" not in details
