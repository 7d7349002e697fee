"""The streaming Session API: events, step-wise execution, early stop.

Pins the redesign's core guarantee — the event stream is a pure
*observation* of the batch run: records and all aggregates are
bit-identical between ``run()``, ``stream()`` and manual ``step()``
loops, across grouping modes and traffic kinds, and a bus without
subscribers never constructs an event (zero-overhead contract).
"""

import pytest

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.api.bench import bucketed_replay_triples
from repro.serving.events import (IterationCompleted, KvPressure,
                                  RequestAdmitted, RequestRetired,
                                  WindowCommitted)
from repro.sim.events import ClockAdvanced, EventBus

FAST = dict(model="gpt3-7b", fidelity="analytic")


def poisson_spec(grouping="auto", **serving_overrides):
    serving = dict(max_batch_size=16, grouping=grouping)
    serving.update(serving_overrides)
    return ScenarioSpec(
        layers_resident=4, **FAST,
        traffic=TrafficSpec.poisson(dataset="alpaca", rate_per_kcycle=0.02,
                                    horizon_cycles=1e7, seed=7,
                                    max_requests=24),
        serving=ServingSpec(**serving))


def replay_spec(grouping="auto", requests=48):
    return ScenarioSpec(
        layers_resident=4, **FAST,
        traffic=TrafficSpec.replay(bucketed_replay_triples(requests)),
        serving=ServingSpec(max_batch_size=requests,
                            kv_capacity_bytes=1 << 30, grouping=grouping))


def stack_state(session):
    """Everything a caller may read between steps, as plain values."""
    return ([(r.generated, r.status, r.channel) for r in session.arrivals],
            [allocator.used_blocks for allocator in session.allocators],
            [sorted(allocator._allocations.items())
             for allocator in session.allocators],
            list(session.load_tracker.loads),
            session.latency_tracker.report().requests)


#: Specs whose ``auto`` stack must equal the ``off`` stack after every
#: step: no pressure, open-loop arrivals, KV starvation, and deadlines
#: with retries.
LOCKSTEP_SPECS = {
    "replay": replay_spec,
    "poisson": poisson_spec,
    "tight-kv": lambda grouping: poisson_spec(
        grouping, kv_capacity_bytes=1 << 22),
    "deadline-retry": lambda grouping: poisson_spec(
        grouping, deadline_cycles=8e6, max_retries=1,
        retry_backoff_cycles=1e6),
}


class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        unsubscribe = bus.subscribe(None, lambda e: None)
        assert bus.active
        unsubscribe()
        assert not bus.active
        unsubscribe()  # double-unsubscribe is harmless
        assert not bus.active

    def test_double_unsubscribe_spares_duplicate_subscription(self):
        # Two consumers may register the same handler object; one
        # consumer's (harmless) repeated unsubscribe must not tear down
        # the other's live subscription.
        bus = EventBus()
        seen = []
        first = bus.subscribe(None, seen.append)
        second = bus.subscribe(None, seen.append)
        first()
        first()  # repeated: must not remove the second subscription
        bus.emit("event")
        assert seen == ["event"]
        second()
        assert not bus.active

    def test_in_handler_unsubscribe_does_not_skip_peers(self):
        # A one-shot handler tearing itself down mid-delivery must not
        # starve the subscriber registered after it.
        bus = EventBus()
        seen_a, seen_b = [], []

        def one_shot(event):
            seen_a.append(event)
            unsubscribe_a()

        unsubscribe_a = bus.subscribe(None, one_shot)
        bus.subscribe(None, seen_b.append)
        bus.emit("first")
        bus.emit("second")
        assert seen_a == ["first"]
        assert seen_b == ["first", "second"]

    def test_type_dispatch_and_wildcard_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(ClockAdvanced, lambda e: seen.append(("typed", e)))
        bus.subscribe(None, lambda e: seen.append(("any", e)))
        event = ClockAdvanced(time=3.0)
        bus.emit(event)
        bus.emit("unrelated")
        assert seen == [("typed", event), ("any", event),
                        ("any", "unrelated")]

    def test_engine_publishes_clock_advanced(self):
        from repro.sim.engine import EventEngine
        engine = EventEngine()
        bus = EventBus()
        engine.attach_events(bus)
        engine.schedule_at(5.0, lambda: None)
        engine.run()  # no subscribers: nothing constructed, still runs
        times = []
        bus.subscribe(ClockAdvanced, lambda e: times.append(e.time))
        engine.schedule_at(7.0, lambda: None)
        engine.schedule_at(9.0, lambda: None)
        engine.run()
        assert times == [7.0, 9.0]


class TestStreamBatchEquality:
    @pytest.mark.parametrize("grouping", ["auto", "off"])
    @pytest.mark.parametrize("build", [poisson_spec, replay_spec])
    def test_records_identical(self, build, grouping):
        batch = Session(build(grouping)).run()
        streaming = Session(build(grouping))
        events = list(streaming.stream())
        streamed = streaming.result()
        assert streamed.to_dict() == batch.to_dict()
        iteration_events = [e for e in events
                            if isinstance(e, IterationCompleted)]
        assert len(iteration_events) == batch.iterations
        streamed_records = [
            (e.record.index, e.record.start_time, e.record.latency,
             e.record.batch_size) for e in iteration_events]
        assert streamed_records == [
            (r["index"], r["start_time"], r["latency"], r["batch_size"])
            for r in batch.records]

    @pytest.mark.parametrize("grouping", ["auto", "off"])
    def test_step_loop_matches_run(self, grouping):
        batch = Session(poisson_spec(grouping)).run()
        stepped = Session(poisson_spec(grouping))
        stepped.materialize()
        while stepped.step() is not None:
            pass
        assert stepped.result().to_dict() == batch.to_dict()

    def test_no_stale_state_between_steps(self):
        """A grouped window never outlives the step that opened it."""
        auto = Session(replay_spec("auto")).materialize()
        off = Session(replay_spec("off")).materialize()
        steps = 0
        while True:
            record = auto.step()
            assert (record is None) == (off.step() is None)
            if record is None:
                break
            steps += 1
            assert stack_state(auto) == stack_state(off), steps
        assert steps == len(auto.scheduler.stats.iterations) > 1

    def test_grouping_modes_agree_through_stream(self):
        auto = Session(replay_spec("auto"))
        off = Session(replay_spec("off"))
        list(auto.stream())
        list(off.stream())
        assert auto.result().to_dict() == off.result().to_dict()

    def test_warmed_stream_matches_run(self):
        spec = ScenarioSpec(layers_resident=2, **FAST,
                            traffic=TrafficSpec.warmed(batch_size=16,
                                                       num_batches=3,
                                                       seed=2))
        batch = Session(spec).run()
        streaming = Session(spec)
        events = list(streaming.stream())
        assert streaming.result().to_dict() == batch.to_dict()
        assert [e.record.latency for e in events
                if isinstance(e, IterationCompleted)] == \
            [r["latency"] for r in batch.records]


class TestEventTaxonomy:
    def test_admissions_and_retirements_match_records(self):
        session = Session(poisson_spec("off"))
        events = list(session.stream())
        result = session.result()
        admitted = sum(r["admitted"] for r in result.records)
        retired = sum(r["retired"] for r in result.records)
        admitted_events = [e for e in events
                           if isinstance(e, RequestAdmitted)]
        retired_events = [e for e in events
                          if isinstance(e, RequestRetired)]
        # Every arrival is admitted and eventually retired; the *last*
        # retirement happens in the drain step after the final record,
        # so the stream sees it while the record sums stop one short.
        assert len(admitted_events) == len(session.arrivals)
        assert len(retired_events) == len(session.arrivals)
        assert admitted == len(admitted_events)
        assert retired <= len(retired_events) <= retired + \
            session.scheduler.max_batch_size

    def test_window_committed_under_grouping(self):
        session = Session(replay_spec("auto"))
        events = list(session.stream())
        windows = [e for e in events if isinstance(e, WindowCommitted)]
        assert windows, "class-friendly replay should group-commit"
        grouped_iterations = sum(w.iterations for w in windows)
        assert 0 < grouped_iterations <= session.result().iterations
        # No window events when grouping is off.
        off = Session(replay_spec("off"))
        assert not [e for e in off.stream()
                    if isinstance(e, WindowCommitted)]

    def test_kv_pressure_emitted_when_capacity_is_tight(self):
        session = Session(poisson_spec(
            "auto", kv_capacity_bytes=1 << 22, max_batch_size=8))
        events = list(session.stream())
        assert [e for e in events if isinstance(e, KvPressure)]

    def test_kv_pressure_reported_once_per_starved_iteration(self):
        # A window that stops on a KV shortage reports nothing: the
        # per-request path owns the starved iteration and its report, so
        # the pressure stream depends neither on step chunking nor on
        # the grouping mode.
        def pressure(max_steps, grouping="auto"):
            session = Session(poisson_spec(
                grouping, kv_capacity_bytes=1 << 22, max_batch_size=8))
            session.materialize()
            seen = []
            session.events.subscribe(KvPressure, seen.append)
            while session.step(max_steps=max_steps) is not None:
                pass
            return seen

        single = pressure(1)
        assert single
        assert pressure(1000) == single
        assert pressure(1000, grouping="off") == single

    def test_subscribers_see_events_during_batch_run(self):
        session = Session(poisson_spec("auto"))
        seen = []
        session.events.subscribe(IterationCompleted,
                                 lambda e: seen.append(e))
        result = session.run()
        assert len(seen) == result.iterations


class TestZeroOverhead:
    def test_batch_run_never_activates_the_bus(self):
        session = Session(poisson_spec("auto"))
        session.run()
        assert not session.events.active

    def test_stream_unsubscribes_on_close(self):
        session = Session(poisson_spec("auto"))
        stream = session.stream()
        next(stream)
        assert session.events.active
        stream.close()
        assert not session.events.active


class TestRunUntil:
    def test_early_stop_returns_partial_then_resumes(self):
        session = Session(poisson_spec("auto"))
        partial = session.run_until(
            lambda s: len(s.scheduler.stats.iterations) >= 5)
        assert 0 < partial.iterations < Session(poisson_spec("auto")) \
            .run().iterations
        full = session.run()
        assert full.to_dict() == Session(poisson_spec("auto")).run() \
            .to_dict()

    def test_predicate_sees_synchronized_state(self):
        session = Session(replay_spec("auto"))
        twin = Session(replay_spec("off")).materialize()
        observed = []

        def snoop(s):
            # The predicate sees exactly the state the per-request path
            # has after the same iteration.
            twin.step()
            assert stack_state(s) == stack_state(twin)
            observed.append(len(s.pool.running()))
            return False

        session.run_until(snoop)
        assert observed and max(observed) > 0

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_SPECS))
    def test_auto_matches_off_after_every_step(self, name):
        # Each auto step may commit a window of several iterations; the
        # off twin catches up one iteration at a time, and both stacks
        # (requests, KV pools and ledgers, channel loads, latency
        # report) must then be the same.
        auto = Session(LOCKSTEP_SPECS[name]("auto")).materialize()
        off = Session(LOCKSTEP_SPECS[name]("off")).materialize()
        steps = 0
        while auto.step(max_steps=4) is not None:
            done = len(auto.scheduler.stats.iterations)
            while len(off.scheduler.stats.iterations) < done:
                assert off.step() is not None
            assert stack_state(auto) == stack_state(off)
            steps += 1
        assert off.step() is None
        assert steps > 1
        assert auto.result().to_dict() == off.result().to_dict()

    def test_run_until_never_caches(self):
        session = Session(poisson_spec("off"))
        partial = session.run_until(lambda s: True)
        assert partial.iterations == 1
        assert session.run().iterations > 1

    def test_warmed_run_until(self):
        spec = ScenarioSpec(layers_resident=2, **FAST,
                            traffic=TrafficSpec.warmed(batch_size=8,
                                                       num_batches=4))
        session = Session(spec)
        partial = session.run_until(lambda s: s._batch_cursor >= 2)
        assert partial.iterations == 2
        assert session.run().iterations == 4
