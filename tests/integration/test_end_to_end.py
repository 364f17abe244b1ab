"""End-to-end tests across modules, driven by the workload registry."""

import pytest

from repro import (DurabilityEngine, DurabilityQuery, ExecutionPolicy,
                   GMLSSSampler, SMLSSSampler, SRSSampler)
from repro.db import DurabilityDB
from repro.workloads import workload

from ..helpers import assert_close_to


@pytest.fixture(scope="module")
def queue_small():
    spec = workload("queue-small")
    return spec, spec.make_query()


class TestWorkloadQueries:
    def test_all_samplers_agree_on_queue_small(self, queue_small):
        spec, query = queue_small
        expected = spec.expected_probability
        partition = spec.balanced_partition(4)

        srs = SRSSampler().run(query, max_steps=250_000, seed=1)
        smlss = SMLSSSampler(partition, ratio=3).run(
            query, max_steps=250_000, seed=2)
        gmlss = GMLSSSampler(partition, ratio=3).run(
            query, max_steps=250_000, seed=3)

        for estimate in (srs, smlss, gmlss):
            assert_close_to(estimate.probability, expected,
                            estimate.std_error, z_bound=5.0)

    def test_mlss_beats_srs_variance_at_equal_budget(self, queue_small):
        spec, query = queue_small
        partition = spec.balanced_partition(4)
        budget = 200_000
        srs = SRSSampler().run(query, max_steps=budget, seed=5)
        mlss = SMLSSSampler(partition, ratio=3).run(query,
                                                    max_steps=budget, seed=5)
        assert mlss.variance < srs.variance

    def test_engine_auto_on_workload(self, queue_small):
        spec, query = queue_small
        engine = DurabilityEngine(ExecutionPolicy(
            method="auto", max_steps=200_000, seed=7, trial_steps=10_000))
        estimate = engine.answer(query)
        assert_close_to(estimate.probability, spec.expected_probability,
                        estimate.std_error, z_bound=5.0)
        assert estimate.details["plan_search"]["search_rounds"] >= 1

    def test_volatile_workload_produces_skips(self):
        spec = workload("volatile-cpp-tiny")
        query = spec.make_query()
        partition = spec.balanced_partition(5)
        estimate = GMLSSSampler(partition, ratio=3).run(
            query, max_steps=150_000, seed=9)
        assert sum(estimate.details["skips"]) > 0


class TestDbPipelineEndToEnd:
    def test_registry_to_db_roundtrip(self):
        """Register the CPP workload in the DB and answer it there."""
        spec = workload("cpp-small")
        with DurabilityDB() as db:
            model_id = db.register_model("cpp-default", "cpp", {})
            query_id = db.register_query(spec.key, model_id,
                                         horizon=spec.horizon,
                                         threshold=spec.beta)
            plan = spec.balanced_partition(4)
            plan_id = db.register_plan(query_id, plan.boundaries, ratio=3,
                                       source="balanced")
            estimate = db.answer_query(query_id, method="gmlss",
                                       plan_id=plan_id, max_steps=200_000,
                                       seed=11, materialize=3)
            assert_close_to(estimate.probability,
                            spec.expected_probability,
                            estimate.std_error, z_bound=5.0)
            logged = db.estimates_for(query_id)
            assert len(logged) == 1

            from repro.db import hitting_fraction, path_count
            run_id = estimate.details["run_id"]
            assert path_count(db.connection, run_id) == 3
            assert 0.0 <= hitting_fraction(db.connection, run_id,
                                           spec.beta) <= 1.0
