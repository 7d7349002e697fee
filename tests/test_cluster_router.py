"""The cluster tier: fleet specs, routing policies, failover, results.

Unit tests pin the policy strategies and the FleetSpec/FleetResult
round-trips; the integration tests pin the tentpole invariants — a
1-node fleet is bit-identical to a plain Session, node kills conserve
every request through failover, runs are deterministic per (spec,
fault seed), group-commit chunking never changes the payload, and
parallel fleet sweeps merge identically to serial ones.
"""

import json

import pytest

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.cluster import (FleetHealthSpec, FleetResult, FleetSpec,
                           LeastLoadedPolicy, PowerOfTwoPolicy,
                           RoundRobinPolicy, Router, RoutingPolicy,
                           SessionAffinityPolicy, run_fleet, run_fleets)
from repro.faults.chaos import fleet_chaos_spec

FAST_NODE = ScenarioSpec(
    model="gpt3-7b", system="neupims", layers_resident=2,
    fidelity="analytic",
    serving=ServingSpec(max_batch_size=8, deadline_cycles=6e7,
                        max_retries=1, retry_backoff_cycles=2e5))


def small_fleet(**updates):
    """A fast 2-node fleet with a short Poisson stream."""
    defaults = dict(
        nodes=(FAST_NODE, FAST_NODE),
        traffic=TrafficSpec.poisson(rate_per_kcycle=0.02,
                                    horizon_cycles=1e6, seed=7,
                                    max_requests=8))
    defaults.update(updates)
    return FleetSpec(**defaults)


class TestFleetSpec:
    def test_requires_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            FleetSpec(nodes=())

    def test_rejects_non_scenario_nodes(self):
        with pytest.raises(TypeError, match="ScenarioSpec"):
            FleetSpec(nodes=({"model": "gpt3-7b"},))

    def test_rejects_external_traffic(self):
        with pytest.raises(ValueError, match="poisson or replay"):
            small_fleet(traffic=TrafficSpec(kind="external"))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown router policy"):
            small_fleet(policy="teleport")

    def test_rejects_bad_watermark_and_window(self):
        with pytest.raises(ValueError, match="shed_watermark"):
            small_fleet(shed_watermark=0)
        with pytest.raises(ValueError, match="pressure_window"):
            small_fleet(pressure_window_cycles=0.0)

    def test_health_knob_validation(self):
        with pytest.raises(ValueError):
            FleetHealthSpec(probe_interval_cycles=0.0)
        with pytest.raises(ValueError):
            FleetHealthSpec(fail_threshold=0)
        with pytest.raises(ValueError):
            FleetHealthSpec(cooldown_cycles=-1.0)

    def test_homogeneous_builder(self):
        fleet = FleetSpec.homogeneous(FAST_NODE, 4, policy="least-loaded")
        assert fleet.num_nodes == 4
        assert all(node == FAST_NODE for node in fleet.nodes)
        assert fleet.policy == "least-loaded"
        with pytest.raises(ValueError, match="count"):
            FleetSpec.homogeneous(FAST_NODE, 0)

    def test_dict_round_trip_through_json(self):
        fleet = small_fleet(policy="p2c",
                            policy_options={"seed": 3},
                            fault_seed=5,
                            fault_options={"horizon": 2e7, "downs": 1},
                            shed_watermark=4, label="rt")
        payload = json.loads(json.dumps(fleet.to_dict()))
        clone = FleetSpec.from_dict(payload)
        assert clone == fleet
        assert clone.to_dict() == fleet.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        data = small_fleet().to_dict()
        data["replicas"] = 3
        with pytest.raises(ValueError, match="replicas"):
            FleetSpec.from_dict(data)


class TestRoutingPolicies:
    def test_base_validates_fleet_size(self):
        with pytest.raises(ValueError, match="num_nodes"):
            RoutingPolicy(0)

    def test_round_robin_cycles_and_skips_down_nodes(self):
        policy = RoundRobinPolicy(4)
        all_up = [0, 1, 2, 3]
        load = [0.0] * 4
        assert [policy.choose(i, all_up, load) for i in range(5)] == \
            [0, 1, 2, 3, 0]
        # Node 2 goes down: the rotation continues from the cursor,
        # skipping it, and 2 re-enters in place once healthy again.
        degraded = [0, 1, 3]
        assert [policy.choose(i, degraded, load) for i in range(3)] == \
            [1, 3, 0]
        assert policy.choose(9, all_up, load) == 1

    def test_least_loaded_min_with_index_tiebreak(self):
        policy = LeastLoadedPolicy(3)
        assert policy.choose(0, [0, 1, 2], [2.0, 1.0, 3.0]) == 1
        assert policy.choose(0, [0, 1, 2], [1.0, 1.0, 1.0]) == 0
        # Load entries of unhealthy nodes are ignored even when lowest.
        assert policy.choose(0, [1, 2], [0.0, 5.0, 4.0]) == 2

    def test_affinity_pins_home_and_spills_forward(self):
        policy = SessionAffinityPolicy(4)
        load = [0.0] * 4
        assert policy.choose(5, [0, 1, 2, 3], load) == 1
        assert policy.choose(5, [0, 2, 3], load) == 2   # home 1 down
        assert policy.choose(3, [0, 1], load) == 0      # wraps past 3

    def test_power_of_two_is_seed_deterministic(self):
        healthy = [0, 1, 2, 3]
        load = [4.0, 1.0, 3.0, 2.0]
        a = PowerOfTwoPolicy(4, seed=9)
        b = PowerOfTwoPolicy(4, seed=9)
        seq_a = [a.choose(i, healthy, load) for i in range(20)]
        seq_b = [b.choose(i, healthy, load) for i in range(20)]
        assert seq_a == seq_b
        assert set(seq_a) <= set(healthy)
        # A single healthy node needs no sampling at all.
        assert PowerOfTwoPolicy(4, seed=9).choose(0, [2], load) == 2


class TestSingleNodeEquivalence:
    def test_one_node_fleet_matches_plain_session_bit_identically(self):
        fleet = small_fleet(nodes=(FAST_NODE,))
        fleet_result = run_fleet(fleet)
        plain = Session(FAST_NODE.override(traffic=fleet.traffic)).run()
        assert fleet_result.nodes[0].to_dict() == plain.to_dict()
        assert fleet_result.ledger["requests"] == len(plain.requests)
        assert fleet_result.ledger["failed_over"] == 0
        assert fleet_result.conserved()


class TestFailover:
    def test_node_kill_conserves_every_request(self):
        result = run_fleet(fleet_chaos_spec(0))
        assert result.conserved()
        assert result.ledger["failed_over"] > 0
        assert {s["status"] for s in result.statuses} <= \
            {"completed", "timed_out", "shed", "aborted"}
        events = {entry["event"] for entry in result.node_log}
        assert "down" in events, \
            "the seeded NodeDown never tripped the health model"
        assert "failover" in events

    def test_deterministic_per_spec_and_seed(self):
        fleet = fleet_chaos_spec(1)
        assert run_fleet(fleet).to_dict() == run_fleet(fleet).to_dict()

    def test_group_step_chunking_never_changes_payload(self):
        fleet = small_fleet(fault_seed=1,
                            fault_options={"horizon": 2e7, "downs": 1})
        batch = Router(fleet)
        batch.materialize()
        stepped = Router(fleet)
        stepped.max_group_steps = 1
        stepped.materialize()
        assert batch.run().to_dict() == stepped.run().to_dict()


class TestGroupingInvariance:
    """Grouping ``auto`` and ``off`` give the same fleet payload.

    The nodes carry no resilience knobs, so their grouped fast path is
    live and the router sees nodes in the middle of grouped windows.
    """

    NODE = ScenarioSpec(model="gpt3-7b", system="neupims",
                        layers_resident=2, fidelity="analytic",
                        serving=ServingSpec(max_batch_size=32))
    TRAFFIC = TrafficSpec.poisson(dataset="sharegpt", rate_per_kcycle=0.04,
                                  horizon_cycles=4e6, seed=11,
                                  max_requests=120)

    def _fleet(self, grouping, **updates):
        node = self.NODE.override(
            serving=ServingSpec(max_batch_size=32, grouping=grouping))
        return FleetSpec(nodes=(node,) * 3, traffic=self.TRAFFIC,
                         **updates)

    def test_load_aware_routing_reads_synchronized_loads(self):
        # Regression: least-loaded routing read channel loads that a
        # grouped window had not written back yet, so the two modes
        # routed (and finished) differently.
        results = [run_fleet(self._fleet(grouping, policy="least-loaded"))
                   for grouping in ("auto", "off")]
        assert results[0].to_dict() == results[1].to_dict()

    def test_dispatch_windows_run_up_to_the_next_arrival(self):
        import dataclasses
        from repro.serving.events import WindowCommitted
        # Arrivals sparser than iterations, so nodes step between them.
        sparse = TrafficSpec.poisson(dataset="sharegpt",
                                     rate_per_kcycle=0.005,
                                     horizon_cycles=2e7, seed=11,
                                     max_requests=24)

        def fleet(grouping):
            return dataclasses.replace(
                self._fleet(grouping, policy="least-loaded"), traffic=sparse)

        router = Router(fleet("auto"))
        router.materialize()
        windows = []
        for handle in router.handles:
            handle.session.events.subscribe(WindowCommitted, windows.append)
        last_arrival = router.stream[-1].arrival_time
        payload = router.run().to_dict()
        # Between two arrivals one node step commits a multi-iteration
        # window, and routing is unchanged.
        assert any(w.iterations > 1 and w.time < last_arrival
                   for w in windows)
        assert payload == run_fleet(fleet("off")).to_dict()

    def test_watermark_fleet_sheds_and_keeps_grouped_windows(self):
        from repro.serving.events import FleetShedding, WindowCommitted
        # Tight KV budgets make the nodes report KvPressure, so the
        # router sheds; nodes still commit whole windows between
        # arrivals, because the watermark reads per-node pressure logs.
        traffic = TrafficSpec.poisson(dataset="sharegpt",
                                      rate_per_kcycle=0.005,
                                      horizon_cycles=1.5e8, seed=5,
                                      max_requests=300)

        def router(grouping, max_group_steps=None):
            node = self.NODE.override(serving=ServingSpec(
                max_batch_size=32, kv_capacity_bytes=1 << 24,
                grouping=grouping))
            fleet = FleetSpec(nodes=(node,) * 3, traffic=traffic,
                              policy="least-loaded", shed_watermark=3,
                              pressure_window_cycles=1e7)
            built = Router(fleet).materialize()
            built.max_group_steps = max_group_steps
            return built

        auto = router("auto")
        sheds, windows = [], []
        auto.events.subscribe(FleetShedding, sheds.append)
        for handle in auto.handles:
            handle.session.events.subscribe(WindowCommitted, windows.append)
        last_arrival = auto.stream[-1].arrival_time
        payload = auto.run().to_dict()
        assert any(shed.time < last_arrival for shed in sheds)
        assert any(w.iterations > 1 and w.time < last_arrival
                   for w in windows)
        assert payload == router("auto", max_group_steps=1).run().to_dict()
        assert payload == router("off").run().to_dict()

    def test_degraded_nodes_keep_grouped_windows(self):
        from repro.serving.events import WindowCommitted
        faults = dict(policy="least-loaded", fault_seed=4,
                      fault_options={"horizon": 4e6, "downs": 0,
                                     "degrades": 3})
        payloads = {}
        for grouping in ("auto", "off"):
            router = Router(self._fleet(grouping, **faults)).materialize()
            windows = []
            for index, handle in enumerate(router.handles):
                if router.schedule.degrades(index):
                    handle.session.events.subscribe(WindowCommitted,
                                                    windows.append)
            payloads[grouping] = router.run().to_dict()
            assert bool(windows) == (grouping == "auto")
        assert payloads["auto"] == payloads["off"]
        # The derate really moved simulated time.
        healthy = run_fleet(self._fleet("auto", policy="least-loaded"))
        assert payloads["auto"]["makespan_cycles"] != \
            healthy.makespan_cycles


class TestFleetResult:
    def test_round_trip_through_json(self):
        result = run_fleet(small_fleet())
        payload = json.loads(json.dumps(result.to_dict()))
        clone = FleetResult.from_dict(payload)
        assert clone.to_dict() == result.to_dict()
        assert clone.conserved() == result.conserved()
        assert clone.num_nodes == result.num_nodes

    def test_summary_rows_render(self):
        rows = run_fleet(small_fleet()).summary_rows()
        metrics = [name for name, _ in rows]
        for expected in ("policy", "nodes", "requests", "completed",
                         "failed over"):
            assert expected in metrics


class TestRunFleets:
    def test_parallel_merge_identical_to_serial(self):
        fleets = [small_fleet(),
                  small_fleet(policy="least-loaded")]
        serial = run_fleets(fleets)
        pooled = run_fleets(fleets, parallel=2)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in pooled]

    def test_accepts_spec_dicts(self):
        fleet = small_fleet()
        assert run_fleet(fleet.to_dict()).to_dict() == \
            run_fleet(fleet).to_dict()
