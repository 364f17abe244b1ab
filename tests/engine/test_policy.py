"""Tests for ExecutionPolicy: validation, overrides, serialization."""

import pytest

from repro.core.quality import (ConfidenceIntervalTarget, NeverTarget,
                                RelativeErrorTarget)
from repro.engine.policy import (ExecutionPolicy, ParallelPolicy,
                                 quality_from_dict, quality_to_dict)

from ..helpers import MALFORMED_POLICIES


class TestValidate:
    def test_default_policy_has_no_stopping_rule(self):
        with pytest.raises(ValueError, match="stopping rule"):
            ExecutionPolicy().validate()

    def test_any_single_stopping_criterion_suffices(self):
        ExecutionPolicy(max_steps=10).validate()
        ExecutionPolicy(max_roots=10).validate()
        ExecutionPolicy(quality=RelativeErrorTarget()).validate()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ExecutionPolicy(method="magic", max_roots=1).validate()

    def test_unknown_backend_rejected(self):
        """``backend`` is not a policy field: every policy runs the one
        batched path, so a document that still names it fails loudly."""
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy.from_dict({"backend": "scalar", "max_roots": 1})
        with pytest.raises(TypeError):
            ExecutionPolicy(backend="gpu", max_roots=1)
        assert "backend" not in ExecutionPolicy(max_roots=1).to_dict()

    def test_bad_trial_steps_rejected(self):
        with pytest.raises(ValueError, match="trial_steps"):
            ExecutionPolicy(max_roots=1, trial_steps=0).validate()

    def test_validate_returns_self(self):
        policy = ExecutionPolicy(max_roots=5)
        assert policy.validate() is policy

    @pytest.mark.parametrize("document,field", MALFORMED_POLICIES)
    def test_malformed_numbers_rejected(self, document, field):
        with pytest.raises(ValueError, match=field):
            ExecutionPolicy.from_dict(
                dict({"max_roots": 100}, **document)).validate()

    def test_integer_fields_accept_numpy_integers(self):
        import numpy as np

        ExecutionPolicy(max_roots=np.int64(5), max_steps=np.int32(9),
                        seed=np.int64(0), num_levels=np.int64(2),
                        ratio=(np.int64(2), 3),
                        parallel=ParallelPolicy(
                            n_workers=np.int64(2),
                            max_worker_restarts=np.int64(0))).validate()

    def test_engine_rejects_a_zero_root_budget_before_simulating(
            self, small_chain_query, small_chain_partition):
        from repro.engine import DurabilityEngine

        engine = DurabilityEngine(ExecutionPolicy(max_steps=1000))
        with pytest.raises(ValueError, match="max_roots"):
            engine.answer(small_chain_query, method="gmlss",
                          partition=small_chain_partition, max_roots=0)


class TestSamplerOptions:
    def test_known_options_accepted(self):
        import numpy as np

        ExecutionPolicy(max_roots=1, sampler_options={
            "batch_roots": 50, "bootstrap_rounds": np.int64(100),
            "first_check_roots": 20, "check_growth": 2.0,
            "adaptive": False, "cluster_tolerance": 0}).validate()

    @pytest.mark.parametrize("options,message", [
        ({"bogus": 1}, "unknown sampler option 'bogus'"),
        (5, "sampler_options must be a mapping"),
        ({"batch_roots": 0}, "'batch_roots' must be an integer >= 1"),
        ({"batch_roots": True}, "'batch_roots' must be an integer >= 1"),
        ({"bootstrap_rounds": 1}, "'bootstrap_rounds'"),
        ({"check_growth": 1.0}, "'check_growth'"),
        ({"adaptive": "no"}, "'adaptive' must be a boolean"),
        ({"cluster_tolerance": -0.1}, "'cluster_tolerance'"),
        ({"backend": "scalar"}, "unknown sampler option 'backend'"),
    ])
    def test_bad_options_rejected(self, options, message):
        with pytest.raises(ValueError, match=message):
            ExecutionPolicy(max_roots=1, sampler_options=options).validate()


class TestReplaceAndSeeds:
    def test_replace_overrides_fields(self):
        policy = ExecutionPolicy(max_steps=100, seed=1)
        derived = policy.replace(seed=2, method="srs")
        assert derived.seed == 2
        assert derived.method == "srs"
        assert derived.max_steps == 100
        assert policy.seed == 1  # immutable original

    def test_derive_seed_depends_on_material_not_position(self):
        policy = ExecutionPolicy(max_roots=1, seed=42)
        material = ("gbm", 40, "price", 105.0)
        assert policy.derive_seed(material) == policy.derive_seed(material)
        assert policy.derive_seed(material) != \
            policy.derive_seed(("gbm", 40, "price", 106.0))

    def test_derive_seed_depends_on_base_seed(self):
        material = ("walk", 10, "position", 5.0)
        assert ExecutionPolicy(max_roots=1, seed=1).derive_seed(material) \
            != ExecutionPolicy(max_roots=1, seed=2).derive_seed(material)

    def test_derive_seed_none_stays_none(self):
        assert ExecutionPolicy(max_roots=1).derive_seed(("x",)) is None

    def test_derive_seed_in_valid_range(self):
        seed = ExecutionPolicy(max_roots=1, seed=7).derive_seed(("m",))
        assert 0 <= seed < 2 ** 31


class TestSerialization:
    def test_round_trip_defaults_plus_budget(self):
        policy = ExecutionPolicy(max_steps=1000)
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_round_trip_all_quality_targets(self):
        for quality in (ConfidenceIntervalTarget(half_width=0.02),
                        RelativeErrorTarget(target=0.2, min_hits=5),
                        NeverTarget(), None):
            policy = ExecutionPolicy(quality=quality, max_roots=10)
            assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_round_trip_per_level_ratios(self):
        policy = ExecutionPolicy(ratio=(2, 3, 4), max_roots=10)
        restored = ExecutionPolicy.from_dict(policy.to_dict())
        assert restored == policy
        assert restored.ratio == (2, 3, 4)

    def test_to_dict_is_json_ready(self):
        import json

        policy = ExecutionPolicy(
            method="gmlss", quality=RelativeErrorTarget(), max_steps=5,
            sampler_options={"batch_roots": 50})
        text = json.dumps(policy.to_dict())
        assert ExecutionPolicy.from_dict(json.loads(text)) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ExecutionPolicy.from_dict({"max_steps": 1, "budget": 2})

    def test_to_dict_is_version_stamped(self):
        from repro.engine.policy import POLICY_SCHEMA_VERSION

        assert ExecutionPolicy().to_dict()["v"] == POLICY_SCHEMA_VERSION

    def test_from_dict_accepts_current_and_missing_version(self):
        assert ExecutionPolicy.from_dict({"v": 1, "max_steps": 4}) \
            == ExecutionPolicy.from_dict({"max_steps": 4})

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            ExecutionPolicy.from_dict({"v": 99, "max_steps": 4})

    def test_quality_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            quality_from_dict({"kind": "entropy"})

    def test_quality_to_dict_rejects_custom_targets(self):
        class Custom(RelativeErrorTarget):
            pass

        # Subclasses serialize as their base (documented built-ins only).
        assert quality_to_dict(Custom())["kind"] == "re"


class TestParallelPolicy:
    def test_round_trip(self):
        policy = ExecutionPolicy(
            max_steps=1000,
            parallel=ParallelPolicy(n_workers=4, roots_per_task=128,
                                    members_per_task=16, pool="inline"))
        restored = ExecutionPolicy.from_dict(policy.to_dict())
        assert restored == policy
        assert restored.parallel.pool == "inline"

    def test_inline_mode_and_streaming_round_trip(self):
        policy = ExecutionPolicy(
            max_steps=1000,
            parallel=ParallelPolicy(n_workers=2, pool="inline"))
        data = policy.to_dict()
        assert data["parallel"]["pool"] == "inline"
        # Pooled rounds always stream; there is no toggle to serialize.
        assert "streamed" not in data["parallel"]
        restored = ExecutionPolicy.from_dict(data)
        assert restored == policy
        restored.validate()

    def test_streamed_field_rejected(self):
        """The retired barrier toggle fails the unknown-field check."""
        data = ExecutionPolicy(
            max_steps=1000,
            parallel=ParallelPolicy(n_workers=2)).to_dict()
        data["parallel"]["streamed"] = False
        with pytest.raises(ValueError, match="streamed"):
            ExecutionPolicy.from_dict(data)
        with pytest.raises(ValueError, match="unknown ParallelPolicy"):
            ParallelPolicy.from_dict({"streamed": True})

    def test_none_parallel_round_trips(self):
        policy = ExecutionPolicy(max_steps=10)
        data = policy.to_dict()
        assert data["parallel"] is None
        assert ExecutionPolicy.from_dict(data) == policy

    def test_to_dict_is_json_ready(self):
        import json

        policy = ExecutionPolicy(max_roots=5,
                                 parallel=ParallelPolicy(n_workers=2))
        text = json.dumps(policy.to_dict())
        assert ExecutionPolicy.from_dict(json.loads(text)) == policy

    def test_validation_rejects_bad_fields(self):
        for bad in (ParallelPolicy(n_workers=0),
                    ParallelPolicy(roots_per_task=0),
                    ParallelPolicy(members_per_task=0),
                    ParallelPolicy(pool="threads")):
            with pytest.raises(ValueError):
                bad.validate()
            with pytest.raises(ValueError):
                ExecutionPolicy(max_steps=1, parallel=bad).validate()

    def test_thread_mode_and_round_knob_are_gone(self):
        """``pool="thread"`` fails validation, and ``tasks_per_round``
        is no field: rounds always hold ``DEFAULT_TASKS_PER_ROUND``
        tasks."""
        with pytest.raises(ValueError, match="pool"):
            ParallelPolicy(pool="thread").validate()
        with pytest.raises(ValueError, match="pool"):
            ExecutionPolicy(max_steps=1, parallel=ParallelPolicy(
                pool="thread")).validate()
        with pytest.raises(TypeError):
            ParallelPolicy(tasks_per_round=8)
        assert "tasks_per_round" not in ParallelPolicy().to_dict()
        with pytest.raises(ValueError, match="unknown ParallelPolicy"):
            ParallelPolicy.from_dict({"tasks_per_round": 8})

    def test_default_n_workers_is_machine_sized(self):
        # None defers to os.cpu_count() at pool construction; results
        # are invariant under the resolved count, so this is safe.
        policy = ParallelPolicy()
        assert policy.n_workers is None
        policy.validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ParallelPolicy"):
            ParallelPolicy.from_dict({"n_workers": 2, "cores": 8})

    def test_replace_carries_parallel(self):
        policy = ExecutionPolicy(max_steps=10,
                                 parallel=ParallelPolicy(n_workers=2))
        derived = policy.replace(seed=3)
        assert derived.parallel == policy.parallel
