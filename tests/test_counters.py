"""The cross-fidelity counters subsystem: taxonomy, conservation, PGO.

Covers the ``counters="typed"`` spec field end to end:

* the frozen :class:`~repro.counters.report.CounterReport` (canonical
  pairs, merge/drift arithmetic, JSON round trips);
* the spec layer — the plain ``counters`` field and the pre-counters
  JSON shape of built-in-only payloads;
* conservation invariants — identical :class:`CounterReport`\\ s across
  ``drain_fast`` on/off, grouping ``auto``/``off``, stream vs batch
  consumption, and the 1-node fleet rollup vs a plain ``Session``;
  KV page churn charged once per pool stay under fleet failover;
* latency hooks — a degrade hook scales simulated time but leaves the
  device-level counters alone, and grouped windows stay bit-identical
  to the per-request path under it;
* the refutation harness and the :class:`FidelityProfile` behind
  ``fidelity="auto"`` (deterministic audits, spec resolution, and the
  analytic-where-proven / cycle-where-refuted speed contract).
"""

import json
from dataclasses import replace

import pytest

from repro.api.session import RunResult, Session
from repro.api.spec import ScenarioSpec, TrafficSpec
from repro.counters import (COUNTER_NAMES, CounterReport, FidelityProfile,
                            region_key, spec_region)
from repro.counters.refute import (DEFAULT_BOUNDS, REGIONS, fine_wave_pitch,
                                   predict_gemv_counters, run_refute)
from repro.serving.events import WindowCommitted


def serving_spec(**overrides):
    """A small serving scenario with typed counters attached."""
    base = dict(
        model="gpt3-7b", counters="typed",
        traffic=TrafficSpec(kind="poisson", max_requests=8,
                            horizon_cycles=5e6, seed=3))
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# CounterReport.
# ----------------------------------------------------------------------

class TestCounterReport:
    def test_taxonomy_is_sorted_and_namespaced(self):
        assert list(COUNTER_NAMES) == sorted(COUNTER_NAMES)
        assert all("." in name for name in COUNTER_NAMES)

    def test_canonical_pairs(self):
        a = CounterReport.from_mapping(
            {"b.x": 2.0, "a.y": 1.0, "c.z": 0.0})
        assert a.counters == (("a.y", 1.0), ("b.x", 2.0))
        assert a.get("a.y") == 1.0
        assert a.get("missing") == 0.0
        assert bool(a) and not bool(CounterReport())

    def test_merge_sums_counterwise(self):
        a = CounterReport.from_mapping({"a": 1.0, "b": 2.0})
        b = CounterReport.from_mapping({"b": 3.0, "c": 4.0})
        merged = CounterReport.merge([a, b])
        assert merged.as_dict() == {"a": 1.0, "b": 5.0, "c": 4.0}

    def test_json_round_trip(self):
        report = CounterReport.from_mapping({"a": 1.5, "b": 2.0})
        payload = json.loads(json.dumps(report.to_dict()))
        assert CounterReport.from_dict(payload) == report

    def test_drift_is_symmetric_relative_error(self):
        a = CounterReport.from_mapping({"x": 100.0, "y": 1.0})
        b = CounterReport.from_mapping({"x": 80.0, "z": 2.0})
        drift = a.drift(b)
        assert drift["x"] == pytest.approx(0.2)
        assert drift["y"] == 1.0 and drift["z"] == 1.0
        assert drift == b.drift(a)
        assert CounterReport().drift(CounterReport()) == {}


# ----------------------------------------------------------------------
# Spec-layer satellite.
# ----------------------------------------------------------------------

class TestSpecCountersFields:
    def test_defaults_omitted_from_payload(self):
        """Built-in-only payloads keep their exact pre-counters shape."""
        payload = ScenarioSpec().to_dict()
        assert "counters" not in payload

    def test_round_trip_with_counters(self):
        spec = ScenarioSpec(counters="typed")
        payload = spec.to_dict()
        assert payload["counters"] == "typed"
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(payload))) == spec

    def test_options_freeze_canonically(self):
        spec = ScenarioSpec(fidelity="auto",
                            fidelity_options={"profile": {"regions": {}}})
        assert spec == ScenarioSpec.from_dict(spec.to_dict())
        assert hash(spec) == hash(ScenarioSpec.from_dict(spec.to_dict()))

    def test_unknown_counters_component_rejected(self):
        with pytest.raises(ValueError, match="counters"):
            ScenarioSpec(counters="nope")

    def test_unknown_key_regression(self):
        payload = ScenarioSpec().to_dict()
        payload["countres"] = "typed"
        with pytest.raises((TypeError, ValueError)):
            ScenarioSpec.from_dict(payload)

    def test_counters_rejected_under_pipeline_parallelism(self):
        with pytest.raises(ValueError, match="pp"):
            ScenarioSpec(counters="typed", pp=2)

    def test_session_counters_are_plain_totals(self):
        assert Session(ScenarioSpec()).counters is None
        session = Session(serving_spec())
        assert session.counters == {}
        report = session.run().counters.as_dict()
        # The session's totals are the iteration charges; the report
        # adds the KV page churn on top.
        assert report.pop("kv.page_churn") > 0
        assert CounterReport.from_mapping(session.counters).as_dict() == \
            report


# ----------------------------------------------------------------------
# Conservation invariants.
# ----------------------------------------------------------------------

class TestConservation:
    def test_drain_fast_preserves_counter_view(self):
        """Batch replay charges counters arithmetically, bit-identical."""
        from repro.pim.engine import measure_gemv_latency
        from repro.pim.gemv import GemvOp
        op = GemvOp(rows=2048, cols=512, tag="t")
        for composite, dual in REGIONS:
            slow_t, slow = measure_gemv_latency(
                op, dual_row_buffer=dual, composite=composite, fast=False)
            fast_t, fast = measure_gemv_latency(
                op, dual_row_buffer=dual, composite=composite, fast=True)
            assert fast_t == slow_t
            assert fast.counter_view() == slow.counter_view(), \
                region_key(composite, dual)

    def test_grouping_modes_bit_identical(self):
        reports = {}
        for grouping in ("auto", "off"):
            spec = serving_spec()
            spec = spec.override(
                serving=replace(spec.serving, grouping=grouping))
            reports[grouping] = Session(spec).run().counters
        assert reports["auto"] == reports["off"]
        assert reports["auto"]

    def test_stream_vs_batch_bit_identical(self):
        batch = Session(serving_spec()).run()
        streamed = Session(serving_spec())
        for _ in streamed.stream():
            pass
        assert streamed.result().counters == batch.counters

    def test_result_rebuild_never_double_charges(self):
        session = Session(serving_spec())
        first = session.run().counters
        assert session.result().counters == first
        assert session.result().counters == first

    def test_expected_counter_names_present(self):
        report = Session(serving_spec()).run().counters
        assert set(report.as_dict()) <= set(COUNTER_NAMES)
        assert report.get("pim.gemv_issue_slots") > 0
        assert report.get("npu.systolic_busy_cycles") > 0
        assert report.get("kv.page_churn") > 0

    def test_single_node_fleet_rollup_matches_plain_session(self):
        """1-node fleet counters == plain Session counters (rollup)."""
        from repro.cluster import FleetSpec, run_fleet
        node = serving_spec()
        fleet = FleetSpec(nodes=(node,), traffic=node.traffic)
        fleet_result = run_fleet(fleet)
        plain = Session(node).run()
        node_report = fleet_result.nodes[0].counters
        assert node_report == plain.counters
        assert CounterReport.merge(
            n.counters for n in fleet_result.nodes) == plain.counters

    def test_disabled_path_reports_nothing(self):
        spec = serving_spec(counters="none")
        session = Session(spec)
        result = session.run()
        assert session.counters is None
        assert not result.counters
        assert "counters" not in result.to_dict()

    def test_released_request_charged_at_release_context(self):
        """A request handed to another node costs its origin only the
        KV blocks of the context it had when it left."""
        from repro.serving.request import InferenceRequest
        spec = serving_spec(traffic=TrafficSpec(kind="external"))
        origin = Session(spec).materialize()
        target = Session(spec).materialize()
        request = InferenceRequest(request_id=0, input_len=30,
                                   output_len=40)
        origin.pool.submit(request)
        for _ in range(3):
            origin.step()
        released_at = request.seq_len
        origin.scheduler.release_request(request)
        target.pool.submit(request)
        target.run()
        blocks_for = origin.allocators[0].blocks_for
        assert blocks_for(released_at) < blocks_for(request.seq_len)
        assert origin.result().counters.get("kv.page_churn") == \
            blocks_for(released_at)
        assert target.result().counters.get("kv.page_churn") == \
            blocks_for(request.seq_len)

    def test_fleet_failover_charges_each_pool_stay_once(self):
        """Fleet churn = final contexts + contexts at each failover."""
        from repro.cluster import FleetSpec, Router
        from repro.serving.events import RequestFailedOver
        node = serving_spec(layers_resident=2)
        router = Router(FleetSpec.homogeneous(
            node, 3, policy="least-loaded",
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.02,
                                        horizon_cycles=2e6, seed=5,
                                        max_requests=40),
            fault_seed=2, fault_options={"horizon": 2e6, "downs": 1}))
        router.materialize()
        requests = {r.request_id: r for r in router.stream}
        released = []

        def on_failover(event):
            assert event.to_node >= 0  # re-routed, not queued
            released.append((event.request_id,
                             requests[event.request_id].seq_len))

        router.events.subscribe(RequestFailedOver, on_failover)
        result = router.run()
        blocks_for = router.handles[0].session.allocators[0].blocks_for
        # Some failed-over request grew past a block boundary later on.
        assert any(blocks_for(context) < blocks_for(requests[rid].seq_len)
                   for rid, context in released)
        expected = sum(blocks_for(r.seq_len) for r in requests.values()) \
            + sum(blocks_for(context) for _, context in released)
        churn = sum(n.counters.get("kv.page_churn") for n in result.nodes)
        assert churn == expected


# ----------------------------------------------------------------------
# RunResult integration.
# ----------------------------------------------------------------------

class TestRunResultCounters:
    def test_round_trip(self):
        result = Session(serving_spec()).run()
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = RunResult.from_dict(payload)
        assert rebuilt.counters == result.counters
        assert rebuilt.to_dict() == result.to_dict()

    def test_counters_sampled_events_fold_to_iteration_charges(self):
        from repro.serving.events import CountersSampled
        session = Session(serving_spec())
        sampled = [e for e in session.stream()
                   if isinstance(e, CountersSampled)]
        assert sampled
        folded = CounterReport.merge(
            CounterReport(counters=e.counters) for e in sampled)
        # Events carry the per-iteration device vectors; the final
        # report adds the build-time KV churn on top.
        expected = session.result().counters.as_dict()
        expected.pop("kv.page_churn", None)
        assert folded.as_dict() == pytest.approx(expected)


# ----------------------------------------------------------------------
# Latency hooks.
# ----------------------------------------------------------------------

class TestLatencyHook:
    @staticmethod
    def _run(grouping, hook=None):
        spec = serving_spec()
        spec = spec.override(
            serving=replace(spec.serving, grouping=grouping))
        session = Session(spec)
        session.latency_hook = hook
        session.materialize()
        windows = []
        session.events.subscribe(WindowCommitted, windows.append)
        return session.run(), len(windows)

    def test_degrade_hook_keeps_counters_and_grouping_identical(self):
        """A derate moves simulated time only, on both serving paths."""
        def degrade(now, latency):
            return latency * 1.25

        plain, _ = self._run("off")
        auto, windows = self._run("auto", degrade)
        off, _ = self._run("off", degrade)
        assert windows > 0  # the hook does not stand grouping down
        assert auto.to_dict() == off.to_dict()
        assert auto.counters == plain.counters
        assert auto.total_time_cycles > plain.total_time_cycles


# ----------------------------------------------------------------------
# Refutation harness.
# ----------------------------------------------------------------------

class TestRefute:
    def test_default_grid_within_bounds(self):
        report = run_refute(seq_lens=(128, 512))
        assert report["passed"] and not report["violations"]
        for name, entry in report["worst"].items():
            assert entry["drift"] <= report["bounds"][name]
        assert len(report["cells"]) == len(REGIONS) * 2 * 2
        # JSON-ready end to end.
        json.dumps(report)

    def test_issue_slots_exact_everywhere(self):
        report = run_refute(seq_lens=(128,))
        for cell in report["cells"]:
            slot = cell["counters"]["pim.gemv_issue_slots"]
            assert slot["predicted"] == slot["measured"]

    def test_fine_wave_pitch_matches_measurement(self):
        """The closed-form fine pitch is exact (refresh off)."""
        from repro.dram.timing import (HbmOrganization, PimTiming,
                                       TimingParams)
        from repro.pim.engine import measure_gemv_latency
        from repro.pim.gemv import GemvOp
        org, timing, pim = HbmOrganization(), TimingParams(), PimTiming()
        pitch = fine_wave_pitch(timing, org, pim)
        per_wave = {}
        for rows in (2048, 4096):
            op = GemvOp(rows=rows, cols=128, tag="t")
            latency, _ = measure_gemv_latency(
                op, composite=False, refresh=False, fast=True)
            per_wave[op.waves(org, 2)] = latency
        waves = sorted(per_wave)
        measured_pitch = ((per_wave[waves[1]] - per_wave[waves[0]])
                          / (waves[1] - waves[0]))
        assert measured_pitch == pytest.approx(pitch)

    def test_bad_bounds_and_seq_lens_rejected(self):
        with pytest.raises(ValueError, match="unknown counter bound"):
            run_refute(seq_lens=(128,), bounds={"nope": 1.0})
        with pytest.raises(ValueError, match="positive"):
            run_refute(seq_lens=(0,))

    def test_violations_pin_regions_to_cycle(self):
        """A refuted region is demoted to cycle in the emitted profile."""
        report = run_refute(seq_lens=(512,),
                            bounds={"dram.ca_busy_cycles": 0.0})
        assert not report["passed"]
        violated = {v["region"] for v in report["violations"]}
        assert violated
        profile = FidelityProfile.from_dict(report["profile"])
        for composite, dual in REGIONS:
            region = region_key(composite, dual)
            expected = "cycle" if region in violated else "analytic"
            assert profile.tier_for(region) == expected

    def test_predictions_are_pure_arithmetic(self):
        from repro.core.estimator import analytic_latencies
        from repro.dram.timing import (HbmOrganization, PimTiming,
                                       TimingParams)
        from repro.pim.gemv import GemvOp
        org, timing, pim = HbmOrganization(), TimingParams(), PimTiming()
        latencies = analytic_latencies(timing, org, pim)
        op = GemvOp(rows=1024, cols=128, tag="t")
        counters, latency = predict_gemv_counters(
            op, org, True, 2, timing, pim, latencies)
        assert latency > 0
        assert set(counters) == set(DEFAULT_BOUNDS)
        again, _ = predict_gemv_counters(op, org, True, 2, timing, pim,
                                         latencies)
        assert counters == again


# ----------------------------------------------------------------------
# FidelityProfile and fidelity="auto".
# ----------------------------------------------------------------------

class TestFidelityProfile:
    def test_round_trip_and_unknown_key(self):
        profile = FidelityProfile(
            regions=(("composite:dual", "cycle"),),
            default="analytic", audit_fraction=0.25, seed=7)
        payload = json.loads(json.dumps(profile.to_dict()))
        assert FidelityProfile.from_dict(payload) == profile
        with pytest.raises(ValueError, match="unknown FidelityProfile"):
            FidelityProfile.from_dict({"regions": {}, "nope": 1})

    def test_validation(self):
        with pytest.raises(ValueError, match="tier"):
            FidelityProfile(regions=(("r", "quantum"),))
        with pytest.raises(ValueError, match="audit_fraction"):
            FidelityProfile(audit_fraction=1.5)

    def test_audit_is_deterministic_and_seeded(self):
        profile = FidelityProfile(audit_fraction=0.5, seed=1)
        tokens = [f"scenario-{i}" for i in range(200)]
        first = [profile.decide("composite:dual", t) for t in tokens]
        assert first == [profile.decide("composite:dual", t)
                         for t in tokens]
        audited = first.count("cycle")
        assert 0 < audited < len(tokens)
        other = FidelityProfile(audit_fraction=0.5, seed=2)
        assert first != [other.decide("composite:dual", t)
                         for t in tokens]

    def test_resolve_honors_spec_constraints(self):
        cycle_everywhere = FidelityProfile(default="cycle")
        spec = ScenarioSpec(model="gpt3-7b")
        assert spec_region(spec) == "composite:dual"
        assert cycle_everywhere.resolve(spec) == "cycle"
        # Non-PIM baselines and pipeline-parallel engines stay analytic.
        assert cycle_everywhere.resolve(
            ScenarioSpec(system="npu-only")) == "analytic"
        assert cycle_everywhere.resolve(
            ScenarioSpec(pp=2)) == "analytic"

    def test_auto_fidelity_resolves_through_profile(self):
        profile = FidelityProfile(
            regions=(("composite:dual", "cycle"),)).to_dict()
        spec = ScenarioSpec(model="gpt3-7b", fidelity="auto",
                            fidelity_options={"profile": profile})
        assert spec.resolve_fidelity() == "cycle"
        session = Session(spec)
        assert session.fidelity == "cycle"
        assert session.run().fidelity == "cycle"
        # The blocked-buffer region is not pinned, so it runs analytic.
        blocked = ScenarioSpec(model="gpt3-7b", system="npu-pim",
                               fidelity="auto",
                               fidelity_options={"profile": profile})
        assert blocked.resolve_fidelity() == "analytic"

    def test_auto_profile_pickles_through_parallel_runner(self):
        from repro.api.session import run_scenarios
        profile = run_refute(seq_lens=(128,))["profile"]
        specs = [ScenarioSpec(model="gpt3-7b", fidelity="auto",
                              fidelity_options={"profile": profile}),
                 ScenarioSpec(model="gpt3-7b", fidelity="cycle")]
        results = run_scenarios(specs, parallel=2)
        assert [r.fidelity for r in results] == ["analytic", "cycle"]

    def test_auto_matches_cycle_latency_percentiles(self):
        """The accuracy half of the PGO payoff: near-cycle percentiles.

        The default grid's profile keeps every region analytic; the
        resulting sweep must reproduce the cycle tier's serving latency
        percentiles within the refutation-backed tolerance.
        """
        profile = FidelityProfile().to_dict()  # all-analytic

        def sweep(fidelity, options):
            return [
                Session(ScenarioSpec(
                    model="gpt3-7b", fidelity=fidelity,
                    fidelity_options=options,
                    traffic=TrafficSpec(kind="poisson", max_requests=6,
                                        horizon_cycles=4e6,
                                        seed=seed))).run()
                for seed in (1, 2, 3)
            ]

        cycle_results = sweep("cycle", None)
        auto_results = sweep("auto", {"profile": profile})
        assert all(r.fidelity == "analytic" for r in auto_results)
        percentiles = ("ttft_p50_ms", "tpot_p50_ms", "end_to_end_p50_ms",
                       "end_to_end_p99_ms")
        for auto, cycle in zip(auto_results, cycle_results):
            assert set(percentiles) <= set(cycle.latency_ms)
            for key in percentiles:
                assert auto.latency_ms[key] == pytest.approx(
                    cycle.latency_ms[key], rel=0.15)

    def test_auto_is_measurably_faster_than_all_cycle(self):
        """The speed half: auto skips the cycle tier's calibration.

        What the profile buys is the per-hardware-config command-level
        calibration replay the cycle tier pays on every fresh perf
        cache (every sweep worker, every new config).  Best-of-3 minima
        over 20 cold materializations keep the ratio robust to
        shared-runner noise; the margin is ~3x locally, so the >1.5x
        gate has headroom.
        """
        import time

        from repro.perf import invalidate
        profile = FidelityProfile().to_dict()
        auto_spec = ScenarioSpec(
            model="gpt3-7b", fidelity="auto",
            fidelity_options={"profile": profile},
            traffic=TrafficSpec(kind="external"))
        cycle_spec = ScenarioSpec(model="gpt3-7b", fidelity="cycle",
                                  traffic=TrafficSpec(kind="external"))

        def cold_materializations(spec, reps=20):
            start = time.perf_counter()
            for _ in range(reps):
                invalidate()
                Session(spec).materialize()
            return time.perf_counter() - start

        cold_materializations(cycle_spec, 2)  # warm both code paths
        cold_materializations(auto_spec, 2)
        cycle_wall = min(cold_materializations(cycle_spec)
                         for _ in range(3))
        auto_wall = min(cold_materializations(auto_spec)
                        for _ in range(3))
        assert cycle_wall > auto_wall * 1.5, \
            f"auto ({auto_wall:.3f}s) not measurably faster than " \
            f"all-cycle ({cycle_wall:.3f}s)"
