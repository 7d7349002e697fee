"""Fault plans, the injector, registry wiring and spec round-trips.

The determinism contract is the backbone: a plan is a pure function of
``(seed, options)`` — identical in this process, in a pickled sweep
worker, and across repeated construction — and the injector's queries
are pure in simulated time except for the explicit activation cursor.
"""

import pickle

import pytest

from repro.api import ScenarioSpec, ServingSpec, TrafficSpec
from repro.faults import (
    ChannelDegrade,
    ChannelStall,
    FaultInjector,
    FaultPlan,
    KvFault,
    RequestAbort,
    make_fault_plan,
)
from repro.registry import REGISTRY, get_component
from repro.serving.request import InferenceRequest, RequestStatus


def running(rid, channel):
    return InferenceRequest(rid, input_len=8, output_len=8,
                            status=RequestStatus.RUNNING, channel=channel)


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = make_fault_plan(7, channels=4, aborts=2)
        b = make_fault_plan(7, channels=4, aborts=2)
        assert a == b
        assert len(a) == 5  # 1 degrade + 1 stall + 1 kv + 2 aborts

    def test_different_seeds_differ(self):
        assert make_fault_plan(1, channels=4) != make_fault_plan(2,
                                                                 channels=4)

    def test_plan_survives_pickle(self):
        plan = make_fault_plan(3, channels=8, aborts=1)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_faults_sorted_by_start(self):
        plan = make_fault_plan(5, channels=4, degrades=3, stalls=3,
                               kv_faults=3, aborts=3)
        starts = [fault.start for fault in plan.faults]
        assert starts == sorted(starts)

    def test_windows_inside_horizon_geometry(self):
        plan = make_fault_plan(9, channels=4, horizon=1e6, degrades=4,
                               stalls=4, kv_faults=4)
        for fault in plan.faults:
            assert 0.0 <= fault.start <= 0.70 * 1e6
            assert fault.duration <= 0.25 * 1e6

    def test_counts_and_channel_bounds(self):
        plan = make_fault_plan(11, channels=2, degrades=2, stalls=0,
                               kv_faults=0, aborts=0)
        assert len(plan) == 2
        assert all(isinstance(f, ChannelDegrade) for f in plan.faults)
        assert all(0 <= f.channel < 2 for f in plan.faults)
        assert all(f.factor >= 1.25 for f in plan.faults)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_fault_plan(0, channels=0)
        with pytest.raises(ValueError):
            make_fault_plan(0, channels=4, horizon=0.0)
        with pytest.raises(ValueError):
            make_fault_plan(0, channels=4, degrades=-1)
        with pytest.raises(ValueError):
            ChannelDegrade(start=0.0, duration=1.0, factor=0.5)
        with pytest.raises(ValueError):
            ChannelStall(start=0.0, duration=1.0, stall_cycles=-1.0)
        with pytest.raises(ValueError):
            KvFault(start=-1.0, duration=1.0)

    def test_window_is_half_open(self):
        fault = KvFault(start=10.0, duration=5.0)
        assert not fault.active(9.999)
        assert fault.active(10.0)
        assert fault.active(14.999)
        assert not fault.active(15.0)
        assert fault.describe() == "KvFault"


class TestFaultInjector:
    def test_poll_fires_each_fault_once_in_order(self):
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=20.0, duration=5.0),
            ChannelDegrade(start=10.0, duration=5.0),
        ))
        injector = FaultInjector(plan)
        assert injector.poll(5.0) == []
        fired = injector.poll(15.0)
        assert len(fired) == 1 and isinstance(fired[0], ChannelDegrade)
        fired = injector.poll(25.0)
        assert len(fired) == 1 and isinstance(fired[0], KvFault)
        assert injector.poll(100.0) == []

    def test_latency_penalty_degrade_and_stall_compose(self):
        plan = FaultPlan(seed=0, faults=(
            ChannelDegrade(start=0.0, duration=100.0, channel=0, factor=2.0),
            ChannelStall(start=0.0, duration=100.0, channel=1,
                         stall_cycles=50.0),
        ))
        injector = FaultInjector(plan)
        batch = [running(0, channel=0), running(1, channel=1)]
        # Derate doubles the iteration, the stall adds on top.
        assert injector.latency_penalty(10.0, 1000.0, batch) == \
            pytest.approx(1000.0 + 50.0)
        # Outside every window: no penalty.
        assert injector.latency_penalty(200.0, 1000.0, batch) == 0.0
        # Batch not touching the faulty channels: no penalty.
        other = [running(2, channel=3)]
        assert injector.latency_penalty(10.0, 1000.0, other) == 0.0

    def test_degrade_factors_compose_as_max(self):
        plan = FaultPlan(seed=0, faults=(
            ChannelDegrade(start=0.0, duration=10.0, channel=0, factor=1.5),
            ChannelDegrade(start=0.0, duration=10.0, channel=0, factor=2.0),
        ))
        injector = FaultInjector(plan)
        penalty = injector.latency_penalty(5.0, 100.0, [running(0, 0)])
        assert penalty == pytest.approx(100.0)  # max factor 2.0, not 3.5

    def test_kv_blocked_matches_channel_and_window(self):
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=10.0, duration=10.0, channel=2),))
        injector = FaultInjector(plan)
        assert injector.kv_blocked(15.0, 2)
        assert not injector.kv_blocked(15.0, 1)
        assert not injector.kv_blocked(25.0, 2)

    def test_aborts_queue_until_batch_running(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=5.0, duration=0.0, ordinal=1),))
        injector = FaultInjector(plan)
        injector.poll(6.0)
        # No running requests yet: the abort stays queued.
        assert injector.take_aborts(6.0, []) == []
        batch = [running(10, 0), running(11, 0), running(12, 0)]
        victims = injector.take_aborts(7.0, batch)
        assert [v.request_id for v in victims] == [11]
        # Consumed: nothing left.
        assert injector.take_aborts(8.0, batch) == []

    def test_next_start_tracks_the_poll_cursor(self):
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=20.0, duration=5.0),
            ChannelDegrade(start=10.0, duration=5.0),
        ))
        injector = FaultInjector(plan)
        assert injector.next_start() == 10.0
        injector.poll(9.0)
        assert injector.next_start() == 10.0
        injector.poll(10.0)
        assert injector.next_start() == 20.0
        injector.poll(30.0)
        assert injector.next_start() == float("inf")

    def test_has_pending_aborts_until_taken(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=5.0, duration=0.0, ordinal=0),))
        injector = FaultInjector(plan)
        assert not injector.has_pending_aborts()
        injector.poll(6.0)
        assert injector.has_pending_aborts()
        # No running requests: still queued.
        injector.take_aborts(6.0, [])
        assert injector.has_pending_aborts()
        injector.take_aborts(7.0, [running(0, 0)])
        assert not injector.has_pending_aborts()

    def test_duplicate_abort_victims_deduplicated(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=1.0, duration=0.0, ordinal=0),
            RequestAbort(start=2.0, duration=0.0, ordinal=2),))
        injector = FaultInjector(plan)
        injector.poll(3.0)
        batch = [running(5, 0), running(6, 0)]
        victims = injector.take_aborts(3.0, batch)
        assert [v.request_id for v in victims] == [5]  # 2 % 2 == 0 too


class TestRegistryWiring:
    def test_none_returns_no_injector(self):
        assert REGISTRY.create("faults", "none", None, 8) is None

    def test_none_rejects_options(self):
        with pytest.raises(ValueError, match="unknown faults option"):
            REGISTRY.create("faults", "none", None, 8, seed=1)

    def test_seeded_builds_deterministic_injector(self):
        a = REGISTRY.create("faults", "seeded", None, 8, seed=4, aborts=1)
        b = REGISTRY.create("faults", "seeded", None, 8, seed=4, aborts=1)
        assert isinstance(a, FaultInjector)
        assert a.plan == b.plan

    def test_faults_kind_listed(self):
        assert "none" in REGISTRY.names("faults")
        assert "seeded" in REGISTRY.names("faults")
        assert get_component("faults", "seeded").option_names

    def test_unknown_faults_component_lists_alternatives(self):
        with pytest.raises(ValueError) as err:
            get_component("faults", "byzantine")
        assert "seeded" in str(err.value)


class TestSpecRoundTrip:
    def _spec(self):
        return ScenarioSpec(
            model="gpt3-7b", fidelity="analytic", layers_resident=2,
            traffic=TrafficSpec.warmed(batch_size=4),
            serving=ServingSpec(max_batch_size=4, deadline_cycles=1e7,
                                max_retries=2, retry_backoff_cycles=1e5,
                                shed_wait_cycles=2e7),
            faults="seeded", faults_options={"seed": 3, "aborts": 1})

    def test_round_trip_preserves_faults_fields(self):
        spec = self._spec()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.faults == "seeded"
        assert dict(clone.faults_options) == {"seed": 3, "aborts": 1}
        assert clone.serving.deadline_cycles == 1e7
        assert clone.serving.max_retries == 2

    def test_default_spec_payload_omits_faults_keys(self):
        payload = ScenarioSpec(model="gpt3-7b", fidelity="analytic",
                               layers_resident=2).to_dict()
        assert "faults" not in payload
        assert "faults_options" not in payload
        serving = payload.get("serving", {})
        for key in ("deadline_cycles", "max_retries",
                    "retry_backoff_cycles", "shed_wait_cycles"):
            assert key not in serving

    def test_serving_resilience_validation(self):
        with pytest.raises(ValueError):
            ServingSpec(deadline_cycles=0.0)
        with pytest.raises(ValueError):
            ServingSpec(max_retries=-1)
        with pytest.raises(ValueError):
            ServingSpec(retry_backoff_cycles=-1.0)
        with pytest.raises(ValueError):
            ServingSpec(shed_wait_cycles=0.0)

    def test_resilience_active_follows_the_knobs(self):
        assert not ServingSpec().resilience_active
        assert not ServingSpec(retry_backoff_cycles=5.0).resilience_active
        assert ServingSpec(deadline_cycles=1.0).resilience_active
        assert ServingSpec(max_retries=1).resilience_active
        assert ServingSpec(shed_wait_cycles=1.0).resilience_active

    def test_unknown_faults_name_rejected_at_spec_time(self):
        with pytest.raises(ValueError):
            ScenarioSpec(model="gpt3-7b", fidelity="analytic",
                         layers_resident=2, faults="chaos-monkey")
