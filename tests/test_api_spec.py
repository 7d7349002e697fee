"""ScenarioSpec: validation, overrides, serialization, picklability."""

import json
import pickle

import pytest

from repro.api import ScenarioSpec, ServingSpec, TrafficSpec
from repro.core.config import NeuPimsConfig
from repro.model.spec import GPT3_13B
from repro.serving.request import InferenceRequest
from repro.serving.trace import SHAREGPT


class TestValidation:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            ScenarioSpec(system="tpu")

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            ScenarioSpec(fidelity="exact")

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            ScenarioSpec(model="gpt5")

    def test_unknown_traffic_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            TrafficSpec(kind="batch")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            TrafficSpec(dataset="the-pile")

    def test_nonpositive_parallelism_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(tp=0)
        with pytest.raises(ValueError):
            ScenarioSpec(pp=-1)

    def test_system_engine_constraints(self):
        # pp selects the NeuPimsSystem engine: NeuPIMs-only,
        # derived layers, analytic-only.
        with pytest.raises(ValueError, match="system='neupims'"):
            ScenarioSpec(system="gpu-only", pp=2)
        with pytest.raises(ValueError, match="derived from pp"):
            ScenarioSpec(pp=2, layers_resident=4)
        with pytest.raises(ValueError, match="device-level"):
            ScenarioSpec(pp=2, fidelity="cycle")

    def test_cycle_fidelity_needs_pim_estimator(self):
        with pytest.raises(ValueError, match="no PIM estimator"):
            ScenarioSpec(system="gpu-only", fidelity="cycle")

    def test_replay_needs_requests(self):
        with pytest.raises(ValueError, match="replay_requests"):
            TrafficSpec(kind="replay")

    def test_serving_spec_validation(self):
        with pytest.raises(ValueError):
            ServingSpec(max_batch_size=0)
        with pytest.raises(ValueError):
            ServingSpec(kv_capacity_bytes=0)


class TestResolution:
    def test_model_accepts_name_or_spec(self):
        assert ScenarioSpec(model="gpt3-13b").resolve_model() is GPT3_13B
        assert ScenarioSpec(model=GPT3_13B).resolve_model() is GPT3_13B

    def test_tp_defaults_to_table3(self):
        assert ScenarioSpec(model="gpt3-7b").resolve_tp() == 4
        assert ScenarioSpec(model="gpt3-7b", tp=2).resolve_tp() == 2

    def test_naive_baseline_forces_feature_flags(self):
        config = ScenarioSpec(system="npu-pim",
                              config=NeuPimsConfig()).resolve_config()
        assert not config.dual_row_buffer
        assert not config.composite_isa
        assert not config.greedy_binpack
        assert not config.sub_batch_interleaving

    def test_auto_fidelity_rules(self):
        warmed = ScenarioSpec(traffic=TrafficSpec.warmed())
        assert warmed.resolve_fidelity() == "cycle"
        streaming = ScenarioSpec(traffic=TrafficSpec.poisson())
        assert streaming.resolve_fidelity() == "analytic"
        system_engine = ScenarioSpec(pp=2)
        assert system_engine.resolve_fidelity() == "analytic"
        no_pim = ScenarioSpec(system="gpu-only")
        assert no_pim.resolve_fidelity() == "analytic"
        explicit = ScenarioSpec(fidelity="analytic")
        assert explicit.resolve_fidelity() == "analytic"

    def test_traffic_resolves_trace_objects(self):
        assert TrafficSpec(dataset="sharegpt").resolve_dataset() is SHAREGPT
        assert TrafficSpec(dataset=SHAREGPT).resolve_dataset() is SHAREGPT

    def test_replay_from_requests_and_triples(self):
        request = InferenceRequest(request_id=0, input_len=10, output_len=4,
                                   arrival_time=5.0)
        from_requests = TrafficSpec.replay([request])
        from_triples = TrafficSpec.replay([(10, 4, 5.0)])
        assert from_requests.replay_requests == ((10, 4, 5.0),)
        assert from_requests == from_triples


class TestOverride:
    def test_routes_fields_to_nested_specs(self):
        base = ScenarioSpec()
        derived = base.override(system="transpim", batch_size=128,
                                max_batch_size=32, dual_row_buffer=False)
        assert derived.system == "transpim"
        assert derived.traffic.batch_size == 128
        assert derived.serving.max_batch_size == 32
        assert derived.config is not None
        assert not derived.config.dual_row_buffer
        # the base is untouched (frozen)
        assert base.system == "neupims"
        assert base.config is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec().override(batchsize=4)

    def test_nested_updates_compose_with_explicit_objects(self):
        # A routed field passed alongside an explicit nested object must
        # apply on top of that object, not be silently dropped.
        derived = ScenarioSpec().override(
            traffic=TrafficSpec.poisson(seed=9), max_requests=5,
            config=NeuPimsConfig(), greedy_binpack=False,
            serving=ServingSpec(max_batch_size=64), paged_kv=False)
        assert derived.traffic.kind == "poisson"
        assert derived.traffic.seed == 9
        assert derived.traffic.max_requests == 5
        assert not derived.config.greedy_binpack
        assert derived.serving.max_batch_size == 64
        assert not derived.serving.paged_kv

    def test_noop_override_returns_equal_spec(self):
        base = ScenarioSpec()
        assert base.override() == base


class TestSerialization:
    def round_trip(self, spec):
        encoded = json.loads(json.dumps(spec.to_dict()))
        return ScenarioSpec.from_dict(encoded)

    def test_default_round_trips(self):
        spec = ScenarioSpec()
        assert self.round_trip(spec) == spec

    def test_full_round_trips(self):
        spec = ScenarioSpec(
            model=GPT3_13B, system="npu-pim",
            config=NeuPimsConfig(dual_row_buffer=False,
                                 bandwidth_derate=0.5),
            tp=2, layers_resident=4,
            traffic=TrafficSpec.poisson(dataset=SHAREGPT,
                                        rate_per_kcycle=0.5,
                                        horizon_cycles=1e6, seed=11,
                                        max_requests=7),
            serving=ServingSpec(max_batch_size=8, paged_kv=False),
            fidelity="analytic", label="sensitivity")
        restored = self.round_trip(spec)
        assert restored == spec
        assert restored.resolve_model() == GPT3_13B
        assert restored.traffic.resolve_dataset() == SHAREGPT

    def test_replay_round_trips(self):
        spec = ScenarioSpec(
            traffic=TrafficSpec.replay([(12, 3, 0.0), (40, 9, 128.5)]),
            fidelity="analytic")
        assert self.round_trip(spec) == spec

    def test_system_engine_round_trips(self):
        spec = ScenarioSpec(tp=2, pp=2, fidelity="analytic")
        assert self.round_trip(spec) == spec

    def test_unknown_keys_rejected_on_load(self):
        # A typo'd JSON spec must fail loudly, not silently simulate the
        # defaults.
        with pytest.raises(ValueError, match="unknown ScenarioSpec"):
            ScenarioSpec.from_dict({"sytem": "gpu-only"})
        payload = ScenarioSpec().to_dict()
        payload["traffic"]["bacth_size"] = 256
        with pytest.raises(ValueError, match="unknown TrafficSpec"):
            ScenarioSpec.from_dict(payload)
        payload = ScenarioSpec(config=NeuPimsConfig()).to_dict()
        payload["config"]["dualrow"] = True
        with pytest.raises(ValueError, match="unknown NeuPimsConfig"):
            ScenarioSpec.from_dict(payload)

    def test_specs_pickle(self):
        spec = ScenarioSpec(config=NeuPimsConfig(),
                            traffic=TrafficSpec.poisson(max_requests=3))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestComponentFields:
    def round_trip(self, spec):
        encoded = json.loads(json.dumps(spec.to_dict()))
        return ScenarioSpec.from_dict(encoded)

    def test_unknown_component_names_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            ScenarioSpec(scheduler="fifo")
        with pytest.raises(ValueError, match="unknown faults"):
            ScenarioSpec(faults="meteor")

    def test_builtin_only_specs_keep_their_json_shape(self):
        # The registry redesign must not disturb existing payloads: a
        # spec using only built-in component names serializes exactly as
        # it did before the component fields existed.
        payload = ScenarioSpec(fidelity="analytic").to_dict()
        for name in ("scheduler", "faults", "counters", "system_options",
                     "scheduler_options", "traffic_options",
                     "fidelity_options", "faults_options"):
            assert name not in payload
        explicit_defaults = ScenarioSpec(fidelity="analytic",
                                         scheduler="iteration",
                                         faults="none", counters="none",
                                         scheduler_options={})
        assert explicit_defaults.to_dict() == payload

    def test_option_dicts_round_trip_as_dicts(self):
        spec = ScenarioSpec(
            system_options={"channel_pool": 8},
            scheduler_options={"window": 4, "nested": {"a": [1, 2]}},
            faults_options={"seed": 3},
            fidelity="analytic")
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["scheduler_options"] == {"window": 4,
                                                "nested": {"a": [1, 2]}}
        restored = self.round_trip(spec)
        assert restored == spec
        assert restored.options_for("scheduler") == {
            "window": 4, "nested": {"a": [1, 2]}}
        # And the round trip is a fixed point at the JSON level too.
        assert restored.to_dict() == spec.to_dict()

    def test_options_are_order_insensitive_and_hashable(self):
        one = ScenarioSpec(scheduler_options={"a": 1, "b": 2})
        other = ScenarioSpec(scheduler_options={"b": 2, "a": 1})
        assert one == other
        assert hash(one) == hash(other)

    def test_override_routes_component_fields(self):
        derived = ScenarioSpec().override(
            scheduler_options={"window": 3}, faults_options={"seed": 8})
        assert derived.options_for("scheduler") == {"window": 3}
        assert derived.options_for("faults") == {"seed": 8}
        for kind in ("serving", "kv", "counters"):
            with pytest.raises(ValueError, match="no options for"):
                derived.options_for(kind)

    def test_unknown_keys_still_rejected_with_component_fields(self):
        # Regression: from_dict must never silently ignore a bad key —
        # including around the new component fields.
        payload = ScenarioSpec(scheduler_options={"window": 3}).to_dict()
        payload["sched_options"] = {"window": 3}
        with pytest.raises(ValueError, match="sched_options"):
            ScenarioSpec.from_dict(payload)
        with pytest.raises(TypeError, match="must be a mapping"):
            ScenarioSpec.from_dict({"scheduler_options": [1, 2]})

    def test_component_fields_pickle(self):
        spec = ScenarioSpec(scheduler_options={"window": 3},
                            system_options={"channel_pool": 4})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestPlainFields:
    """``fidelity`` and ``counters`` are checked when the spec is built."""

    @pytest.mark.parametrize("name, known", [
        ("counters", ("none", "typed")),
        ("fidelity", ("analytic", "cycle", "auto"))])
    def test_unknown_value_lists_known_values(self, name, known):
        with pytest.raises(ValueError) as err:
            ScenarioSpec(**{name: "bogus"})
        message = str(err.value)
        assert "bogus" in message
        assert all(value in message for value in known)

    def test_unknown_fidelity_option_named_at_construction(self):
        with pytest.raises(ValueError, match="samples"):
            ScenarioSpec(fidelity_options={"samples": 3})
        with pytest.raises(ValueError, match="samples"):
            ScenarioSpec(fidelity="analytic",
                         fidelity_options={"samples": 3})

    def test_profile_only_applies_to_auto(self):
        with pytest.raises(ValueError, match="auto"):
            ScenarioSpec(fidelity="cycle",
                         fidelity_options={"profile": {}})

    @pytest.mark.parametrize("name, value", [
        ("kv", "paged"), ("kv_options", {"block_tokens": 32}),
        ("counters_options", {})])
    def test_removed_fields_rejected_on_load(self, name, value):
        payload = ScenarioSpec().to_dict()
        payload[name] = value
        with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
            ScenarioSpec.from_dict(payload)

    def test_mixed_case_values_normalize(self):
        spec = ScenarioSpec(counters="TYPED", fidelity="Cycle")
        assert (spec.counters, spec.fidelity) == ("typed", "cycle")
        assert spec == ScenarioSpec(counters="typed", fidelity="cycle")
