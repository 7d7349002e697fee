"""The component registry: error paths, options, and custom components.

Covers the registration contract the API redesign promises: unknown
component names raise listing the registered alternatives, duplicate
registrations are rejected, option dicts freeze/thaw canonically, and a
user-registered component (spec'd by name) materializes and pickles
across process-pool workers like any built-in.
"""

import pickle

import pytest

from repro.api import ScenarioSpec, Session, TrafficSpec, run_scenarios
from repro.registry import (KINDS, REGISTRY, ComponentRegistry,
                            component_names, freeze_options, get_component,
                            register_builtins, thaw_options, unregister)
from repro.serving.scheduler import IterationScheduler

FAST = dict(model="gpt3-7b", fidelity="analytic", layers_resident=2)


class TestErrorPaths:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError) as err:
            get_component("scheduler", "no-such-policy")
        message = str(err.value)
        assert "no-such-policy" in message
        assert "iteration" in message  # the registered alternatives

    def test_unknown_system_lists_all_builtins(self):
        with pytest.raises(ValueError) as err:
            get_component("system", "tpu")
        for name in ("neupims", "npu-pim", "npu-only", "gpu-only",
                     "transpim"):
            assert name in str(err.value)

    def test_unknown_kind_rejected(self):
        registry = ComponentRegistry()
        with pytest.raises(ValueError, match="unknown component kind"):
            registry.register("flavor", "x", lambda: None)
        with pytest.raises(ValueError, match="unknown component kind"):
            registry.names("flavor")

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry()
        registry.register("traffic", "burst", lambda spec: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("traffic", "burst", lambda spec: None)

    def test_replace_overrides_existing(self):
        registry = ComponentRegistry()
        registry.register("traffic", "burst", lambda spec: 1)
        registry.register("traffic", "burst", lambda spec: 2, replace=True)
        assert registry.create("traffic", "burst", None) == 2

    def test_names_are_case_insensitive(self):
        assert get_component("system", "NeuPIMs").name == "neupims"

    def test_every_kind_has_builtins(self):
        for kind in KINDS:
            assert component_names(kind), f"no builtin {kind} components"

    def test_builtins_reregister_is_rejected_on_populated_registry(self):
        # The process-wide registry refuses a second builtin load.
        with pytest.raises(ValueError, match="already registered"):
            register_builtins(REGISTRY)


class TestOptionFreezing:
    def test_round_trips_nested_mappings(self):
        options = {"b": 2, "a": {"y": [1, 2], "x": "s"}}
        frozen = freeze_options(options)
        assert frozen == (("a", ("__mapping__", ("x", "s"),
                                 ("y", (1, 2)))), ("b", 2))
        assert thaw_options(frozen) == {"a": {"x": "s", "y": [1, 2]},
                                        "b": 2}

    def test_list_of_pairs_stays_a_list(self):
        # A list value shaped like (name, value) pairs must NOT come
        # back as a dict — the mapping tag disambiguates.
        options = {"schedule": [["stage", 1], ["other", 2]], "empty": {}}
        thawed = thaw_options(freeze_options(options))
        assert thawed == {"schedule": [["stage", 1], ["other", 2]],
                          "empty": {}}

    def test_reserved_marker_value_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            freeze_options({"x": ["__mapping__", 1, 2]})
        # Even when the tail happens to parse as pairs — a raw JSON
        # list must never be silently re-typed into a dict.
        with pytest.raises(ValueError, match="reserved"):
            freeze_options({"x": ["__mapping__", ["a", 1]]})
        with pytest.raises(ValueError, match="reserved"):
            freeze_options({"x": ["__mapping__"]})

    def test_component_kinds_are_case_insensitive(self):
        assert component_names("System") == component_names("system")
        assert get_component("SYSTEM", "neupims").name == "neupims"

    def test_idempotent_and_order_insensitive(self):
        one = freeze_options({"a": 1, "b": 2})
        other = freeze_options({"b": 2, "a": 1})
        assert one == other
        assert freeze_options(one) == one
        nested = freeze_options({"a": {"b": [1, 2]}, "c": [[1, 2]]})
        assert freeze_options(nested) == nested

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            freeze_options({1: "x"})

    def test_hashable(self):
        hash(freeze_options({"a": {"b": [1, 2]}}))


class CountingScheduler(IterationScheduler):
    """IterationScheduler that counts its boundary admissions."""

    def __init__(self, *, bonus: int = 0, **wiring) -> None:
        super().__init__(**wiring)
        self.bonus = bonus
        self.admit_calls = 0

    def _admit(self) -> int:
        self.admit_calls += 1
        return super()._admit()


REGISTRY.register("scheduler", "counting-test", CountingScheduler,
                  description="test-only scheduler", replace=True)


def _custom_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        scheduler="counting-test",
        scheduler_options={"bonus": 3},
        traffic=TrafficSpec.poisson(dataset="alpaca", rate_per_kcycle=0.02,
                                    horizon_cycles=2e6, seed=5,
                                    max_requests=12),
        **FAST)
    return spec.override(**overrides) if overrides else spec


class TestCustomComponents:
    def test_registered_scheduler_materializes_by_name(self):
        session = Session(_custom_spec()).materialize()
        assert isinstance(session.scheduler, CountingScheduler)
        assert session.scheduler.bonus == 3
        result = session.run()
        assert result.total_tokens > 0
        assert session.scheduler.admit_calls > 0

    def test_custom_scheduler_matches_builtin_records(self):
        # A pass-through subclass must reproduce the builtin exactly.
        custom = Session(_custom_spec()).run()
        builtin = Session(_custom_spec(scheduler="iteration",
                                       scheduler_options={})).run()
        assert custom.records == builtin.records
        assert custom.to_dict() == builtin.to_dict()

    def test_spec_with_custom_component_pickles(self):
        spec = _custom_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert Session(clone).run().records == Session(spec).run().records

    def test_custom_component_spec_runs_across_process_pool(self):
        # Fork workers inherit the parent's registrations, so a spec
        # naming a user component fans out like any built-in.  Two
        # workers on one core merely oversubscribe; no speedup assert.
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        from repro.exec import ProcessPoolBackend
        specs = [_custom_spec(), _custom_spec(seed=6)]
        serial = [Session(spec).run() for spec in specs]
        pooled = run_scenarios(
            specs, parallel=ProcessPoolBackend(2, start_method="fork"))
        assert [r.to_dict() for r in pooled] == \
            [r.to_dict() for r in serial]

    def test_system_options_forwarded_to_device(self):
        spec = ScenarioSpec(system_options={"channel_pool": 8},
                            traffic=TrafficSpec.warmed(batch_size=8),
                            **FAST)
        session = Session(spec).materialize()
        assert session.device.channel_pool == 8

    def test_serving_kv_knobs_reach_allocators(self):
        spec = _custom_spec(scheduler="iteration", scheduler_options={},
                            kv_block_tokens=32, kv_capacity_bytes=1 << 24)
        session = Session(spec).materialize()
        assert all(a.config.block_tokens == 32 and
                   a.config.capacity_bytes == 1 << 24
                   for a in session.allocators)
        assert Session(_custom_spec(paged_kv=False)).materialize() \
            .allocators is None

    def test_unknown_kv_option_rejected(self):
        # The paged KV allocators are no component, so kv / kv_options
        # are unknown fields (JSON loads: tests/test_api_spec.py).
        with pytest.raises(ValueError, match="kv_options"):
            _custom_spec(kv_options={"block_tokens": 32})
        with pytest.raises(TypeError, match="kv"):
            ScenarioSpec(kv="paged")

    def test_fidelity_options_reach_the_engine(self, monkeypatch):
        # The profile is the only fidelity option; it picks the tier,
        # and only the cycle tier calibrates the device's estimator.
        from repro.counters import FidelityProfile
        calibrated = []
        calibrate = Session.calibrated_estimator

        def recording(session):
            calibrated.append(session.spec)
            return calibrate(session)

        monkeypatch.setattr(Session, "calibrated_estimator", recording)
        for default in ("cycle", "analytic"):
            spec = ScenarioSpec(
                fidelity="auto",
                fidelity_options={
                    "profile": FidelityProfile(default=default).to_dict()},
                traffic=TrafficSpec.warmed(batch_size=4),
                model="gpt3-7b", layers_resident=2)
            session = Session(spec).materialize()
            assert session.fidelity == default
            assert (spec in calibrated) == (default == "cycle")

    def test_unknown_warmed_traffic_option_rejected(self):
        # Regression: multi-batch warmed traffic used to crash with a
        # TypeError deep in sample_batches instead of naming the option.
        spec = ScenarioSpec(
            traffic=TrafficSpec.warmed(batch_size=4, num_batches=2),
            traffic_options={"start_id": 10}, **FAST)
        with pytest.raises(ValueError, match="start_id"):
            Session(spec).materialize()

    def test_non_string_component_names_rejected_cleanly(self):
        # A null from a config loader must fail as a ValueError (the
        # CLI's exit-2 path), not an AttributeError on .lower().
        with pytest.raises(ValueError, match="must be a component name"):
            ScenarioSpec(system=None)
        with pytest.raises(ValueError, match="must be a string"):
            TrafficSpec(kind=None)

    def test_custom_system_may_opt_into_cycle_fidelity(self):
        # The built-in non-PIM baselines reject cycle fidelity, but a
        # registered system that accepts the estimator kwarg is allowed
        # to calibrate (the factory owns the decision).
        from repro.core.device import NeuPimsDevice
        REGISTRY.register(
            "system", "cycle-test-system",
            lambda model, config, *, tp, layers_resident=None,
            estimator=None, **options: NeuPimsDevice(
                model, config, tp=tp, layers_resident=layers_resident,
                estimator=estimator),
            replace=True)
        try:
            spec = ScenarioSpec(system="cycle-test-system",
                                fidelity="cycle", model="gpt3-7b",
                                layers_resident=2,
                                traffic=TrafficSpec.warmed(batch_size=4))
            session = Session(spec).materialize()
            assert session.device.estimator is not None
            with pytest.raises(ValueError, match="no PIM estimator"):
                ScenarioSpec(system="gpu-only", fidelity="cycle")
        finally:
            unregister("system", "cycle-test-system")

    def test_component_names_normalize_to_lowercase(self):
        # Registry lookups are case-insensitive; the stored spec fields
        # must agree with what will resolve, or downstream kind/system
        # comparisons would take the wrong branch.
        spec = ScenarioSpec(system="NeuPIMs", scheduler="Iteration",
                            fidelity="Analytic",
                            traffic=TrafficSpec(kind="Replay",
                                                replay_requests=((16, 2,
                                                                  0.0),)))
        assert spec.system == "neupims"
        assert spec.scheduler == "iteration"
        assert spec.fidelity == "analytic"
        assert spec.traffic.kind == "replay"
        with pytest.raises(ValueError, match="replay_requests"):
            TrafficSpec(kind="Replay")  # validated as replay traffic

    def test_registry_warmup_carries_registrations_to_spawn_workers(self):
        # Spawn workers start with a bare registry: only the builtin
        # components exist until the per-worker initializer imports the
        # registering module (this one).  Fork inherits; spawn must not
        # silently differ.
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        from repro.api.session import run_scenario
        from repro.exec import RegistryWarmup
        specs = [_custom_spec(max_requests=4, horizon_cycles=5e5),
                 _custom_spec(max_requests=4, horizon_cycles=5e5, seed=9)]
        # Two specs force a real pool (one chunk short-circuits to the
        # parent process, which would prove nothing about spawn); the
        # public run_scenarios path chains the registry warmup with the
        # perf-cache warmup it always installs.
        results = run_scenarios(specs, parallel=2, start_method="spawn",
                                warmup=RegistryWarmup((__name__,)))
        assert [r.to_dict() for r in results] == \
            [run_scenario(spec).to_dict() for spec in specs]

    def test_warmup_chain_runs_initializers_in_order(self):
        from repro.exec import RegistryWarmup, WarmupChain
        calls = []
        chain = WarmupChain((lambda: calls.append("a"),
                             lambda: calls.append("b")))
        chain()
        assert calls == ["a", "b"]
        RegistryWarmup(("json",))()  # idempotent stdlib import

    def test_cleanup_unregister(self):
        REGISTRY.register("traffic", "ephemeral-test", lambda spec: None)
        assert "ephemeral-test" in component_names("traffic")
        unregister("traffic", "ephemeral-test")
        assert "ephemeral-test" not in component_names("traffic")
