"""Wire-protocol round trips and canonical-encoding invariants."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.levels import LevelPartition
from repro.engine import ExecutionPolicy, ParallelPolicy
from repro.processes import GBMProcess, RandomWalkProcess
from repro.serve.protocol import (DEFAULT_Z, MAX_BOOTSTRAP_ROUNDS,
                                  PROCESS_FAMILIES, Z_FUNCTIONS,
                                  ProtocolError, build_process,
                                  curve_events, dumps_canonical,
                                  encode_estimate, error_body, jsonable,
                                  parse_partition, parse_policy,
                                  parse_query, parse_thresholds)

WALK = {"family": "random_walk", "params": {"p_up": 0.55}}

#: Constructor parameters of every family that takes scalars only.
SCALAR_PARAMS = {
    "random_walk": {"p_up": 0.55},
    "gaussian_walk": {"drift": 0.1, "sigma": 1.0},
    "gbm": {"start_price": 100.0, "mu": 0.01, "sigma": 0.1},
    "ar": {"coefficients": [0.5, 0.2], "sigma": 1.0},
    "tandem_queue": {"arrival_rate": 0.4, "mean_service1": 0.5,
                     "mean_service2": 0.7},
    "cpp": {"initial_surplus": 10.0, "premium_rate": 1.5},
}


class _Opaque:
    def __repr__(self):  # pragma: no cover - must never be encoded
        return f"<_Opaque at {id(self):#x}>"


class TestBuildProcess:
    def test_builds_each_scalar_family(self):
        for family, params in SCALAR_PARAMS.items():
            process = build_process({"family": family, "params": params})
            assert isinstance(process, PROCESS_FAMILIES[family])

    def test_impulse_nests_a_base_spec(self):
        process = build_process({
            "family": "impulse",
            "params": {"base": WALK, "impulse": -5.0,
                       "probability": 0.01, "active_after": 40}})
        assert isinstance(process.base, RandomWalkProcess)

    def test_unknown_family_names_the_choices(self):
        with pytest.raises(ProtocolError, match="unknown family"):
            build_process({"family": "levy_flight", "params": {}})

    def test_bad_params_fail_loudly(self):
        with pytest.raises(ProtocolError, match="cannot build"):
            build_process({"family": "random_walk",
                           "params": {"p_up": 0.5, "warp": 9}})


class TestParseQuery:
    def test_round_trip_matches_library_construction(self):
        query = parse_query({"process": WALK, "beta": 4.0,
                             "horizon": 60, "name": "w"})
        assert query.horizon == 60
        assert query.name == "w"
        assert query.value_function.beta == 4.0
        # The default z is the family staticmethod — same plan-cache key
        # as an in-process caller would get.
        assert query.value_function.z is RandomWalkProcess.position

    def test_explicit_z_resolves_from_registry(self):
        query = parse_query({
            "process": {"family": "gbm",
                        "params": {"start_price": 50.0, "mu": 0.0,
                                   "sigma": 0.2}},
            "z": "price", "beta": 60.0, "horizon": 40})
        assert query.value_function.z is GBMProcess.price

    @pytest.mark.parametrize("field,value,match", [
        ("beta", -1.0, "beta"),
        ("beta", True, "beta"),
        ("horizon", 0, "horizon"),
        ("horizon", 2.5, "horizon"),
        ("name", 7, "name"),
    ])
    def test_field_validation(self, field, value, match):
        doc = {"process": WALK, "beta": 4.0, "horizon": 60}
        doc[field] = value
        with pytest.raises(ProtocolError, match=match):
            parse_query(doc)

    def test_missing_fields_are_named(self):
        with pytest.raises(ProtocolError, match="'beta'"):
            parse_query({"process": WALK, "horizon": 10})

    def test_unknown_z_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown evaluation"):
            parse_query({"process": WALK, "z": "altitude",
                         "beta": 4.0, "horizon": 60})

    @pytest.mark.parametrize("family,params,z", [
        ("random_walk", {"p_up": 0.55}, "queue1_length"),
        ("markov_chain", {"transition_matrix": [[0.5, 0.5], [0.0, 1.0]]},
         "queue2_length"),
        ("ar", {"coefficients": [0.5], "sigma": 1.0}, "position"),
        ("gbm", {"start_price": 50.0, "mu": 0.0, "sigma": 0.2},
         "surplus"),
    ])
    def test_other_familys_z_is_rejected(self, family, params, z):
        with pytest.raises(ProtocolError, match=f"for family '{family}'"):
            parse_query({"process": {"family": family, "params": params},
                         "z": z, "beta": 4.0, "horizon": 60})

    def test_shared_z_keeps_its_plan_cache_identity(self):
        """A family that registers a shared name resolves to the shared
        staticmethod: ``gaussian_walk`` (its own ``position``) and an
        ``impulse`` wrapper, by its base, key plans as before."""
        gauss = {"family": "gaussian_walk",
                 "params": {"drift": 0.1, "sigma": 1.0}}
        impulse = {"family": "impulse",
                   "params": {"base": WALK, "impulse": -5.0,
                              "probability": 0.01, "active_after": 40}}
        for process, z in ((gauss, None), (gauss, "position"),
                           (impulse, "position")):
            doc = {"process": process, "beta": 4.0, "horizon": 60}
            if z is not None:
                doc["z"] = z
            assert parse_query(doc).value_function.z \
                is RandomWalkProcess.position

    def test_every_default_z_resolves(self):
        """Each family's default is a shared evaluation the family
        registers, so a query without ``z`` resolves to it."""
        assert set(DEFAULT_Z) <= set(SCALAR_PARAMS)
        for family, name in DEFAULT_Z.items():
            query = parse_query({
                "process": {"family": family,
                            "params": SCALAR_PARAMS[family]},
                "beta": 4.0, "horizon": 60})
            assert query.value_function.z is Z_FUNCTIONS[name], family


class TestParsePolicy:
    BASE = ExecutionPolicy(method="srs", max_roots=500, seed=7)

    def test_none_returns_base(self):
        assert parse_policy(None, self.BASE) is self.BASE

    def test_partial_document_overrides_base(self):
        policy = parse_policy({"max_roots": 900}, self.BASE)
        assert policy.max_roots == 900
        assert policy.seed == 7  # untouched base field

    def test_version_stamp_accepted_and_checked(self):
        assert parse_policy({"v": 1, "max_roots": 10}, self.BASE)
        with pytest.raises(ProtocolError, match="version"):
            parse_policy({"v": 99, "max_roots": 10}, self.BASE)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            parse_policy({"max_rootz": 10}, self.BASE)

    def test_full_to_dict_round_trips(self):
        policy = parse_policy(self.BASE.to_dict(), ExecutionPolicy())
        assert policy == self.BASE

    def test_worker_count_bounded_by_cpus(self):
        """A request's ``parallel`` may ask for up to ``os.cpu_count()``
        workers (inline here, so nothing forks) or ``None``."""
        cpus = os.cpu_count() or 1
        for n_workers in (cpus, None):
            policy = parse_policy({"parallel": {"n_workers": n_workers,
                                                "pool": "inline"}},
                                  self.BASE)
            assert policy.parallel.n_workers == n_workers
        with pytest.raises(ProtocolError) as excinfo:
            parse_policy({"parallel": {"n_workers": cpus + 1,
                                       "pool": "inline"}}, self.BASE)
        assert f"n_workers={cpus + 1}" in str(excinfo.value)
        assert f"{cpus} CPUs" in str(excinfo.value)

    def test_worker_bound_skips_documents_without_parallel(self):
        """The bound applies to what a request sends; a base policy
        (the server's or a session's) keeps its own count."""
        base = self.BASE.replace(parallel=ParallelPolicy(
            n_workers=(os.cpu_count() or 1) + 1, pool="inline"))
        assert parse_policy({"seed": 3}, base) == base.replace(seed=3)


    def test_bootstrap_rounds_bounded(self):
        for rounds in (2, MAX_BOOTSTRAP_ROUNDS):
            policy = parse_policy(
                {"sampler_options": {"bootstrap_rounds": rounds}},
                self.BASE)
            assert policy.sampler_options == {"bootstrap_rounds": rounds}
        for rounds in (MAX_BOOTSTRAP_ROUNDS + 1, 10 ** 12):
            with pytest.raises(ProtocolError) as excinfo:
                parse_policy({"sampler_options": {
                    "bootstrap_rounds": rounds}}, self.BASE)
            assert f"bootstrap_rounds={rounds}" in str(excinfo.value)
            assert f"bound of {MAX_BOOTSTRAP_ROUNDS}" in str(excinfo.value)

    def test_bootstrap_bound_is_wire_only(self):
        """Library policies and a base policy that a document without
        ``sampler_options`` leaves alone keep their own count."""
        base = self.BASE.replace(
            sampler_options={"bootstrap_rounds": 10 ** 6}).validate()
        assert parse_policy({"seed": 3}, base) == base.replace(seed=3)
        assert parse_policy(None, base) is base


class TestPartitionAndThresholds:
    def test_partition_none_passthrough(self):
        assert parse_partition(None) is None

    def test_partition_builds_level_partition(self):
        partition = parse_partition([0.25, 0.5, 0.75])
        assert isinstance(partition, LevelPartition)
        assert partition.boundaries == (0.25, 0.5, 0.75)

    def test_partition_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            parse_partition("0.5")
        with pytest.raises(ProtocolError):
            parse_partition([0.5, 0.5])

    def test_thresholds_validated(self):
        assert parse_thresholds([1, 2.5]) == [1.0, 2.5]
        with pytest.raises(ProtocolError):
            parse_thresholds([])
        with pytest.raises(ProtocolError):
            parse_thresholds([1.0, True])


class TestCanonicalEncoding:
    def test_dumps_canonical_is_sorted_and_compact(self):
        assert dumps_canonical({"b": 1, "a": [1, 2]}) \
            == b'{"a":[1,2],"b":1}'

    def test_jsonable_drops_wall_clock_keys_at_every_depth(self):
        payload = {"elapsed_seconds": 1.0,
                   "inner": {"bootstrap_seconds": 2.0, "keep": 1},
                   "list": [{"elapsed_seconds": 3.0}]}
        assert jsonable(payload) == {"inner": {"keep": 1}, "list": [{}]}

    def test_jsonable_never_leaks_reprs(self):
        encoded = jsonable({"x": _Opaque()})
        assert encoded == {"x": "<_Opaque>"}
        # Two distinct instances encode identically (byte identity).
        assert jsonable(_Opaque()) == jsonable(_Opaque())

    def test_encode_estimate_excludes_wall_clock(self, small_chain_query):
        from repro.engine import DurabilityEngine
        with DurabilityEngine() as engine:
            estimate = engine.answer(small_chain_query, method="srs",
                                     max_roots=50, seed=3)
        encoded = encode_estimate(estimate)
        assert "elapsed_seconds" not in json.dumps(encoded)
        assert encoded["n_roots"] == 50

    def test_curve_events_are_pointwise_identical_to_unary(
            self, small_chain_query):
        from repro.engine import DurabilityEngine
        from repro.serve.protocol import encode_curve
        with DurabilityEngine() as engine:
            curve = engine.durability_curve(
                small_chain_query, [4.0, 8.0, 12.0], method="srs",
                max_roots=60, seed=5)
        events = curve_events(curve)
        assert [e["event"] for e in events] \
            == ["start", "point", "point", "point", "end"]
        unary = encode_curve(curve)
        for index, event in enumerate(events[1:-1]):
            assert dumps_canonical(event["estimate"]) \
                == dumps_canonical(unary["estimates"][index])
        assert events[1]["threshold"] < events[2]["threshold"] \
            < events[3]["threshold"]

    def test_error_body_shape(self):
        body = error_body("shed", "busy", retry_after=1.5)
        assert body == {"ok": False,
                        "error": {"kind": "shed", "message": "busy",
                                  "retry_after": 1.5}}
