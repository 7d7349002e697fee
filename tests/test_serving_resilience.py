"""Deadlines, retries, shedding, aborts and fault windows in the scheduler.

Scheduler-level units drive :class:`IterationScheduler` with a constant
latency executor so every boundary decision is hand-checkable; the
session-level tests pin that an attached-but-idle resilience runtime is
latency-neutral and that the fault events surface through the bus.
"""

import pytest

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.faults import (
    FaultInjector,
    FaultPlan,
    KvFault,
    RequestAbort,
    ResilienceRuntime,
)
from repro.faults.plan import ChannelStall
from repro.model.spec import GPT3_7B
from repro.serving.events import (FaultInjected, IterationCompleted,
                                  RequestRetired, RequestRetried,
                                  RequestShed, RequestTimedOut,
                                  WindowCommitted)
from repro.serving.grouping import GroupedExecutor
from repro.serving.paging import PagedKvAllocator, PagedKvConfig
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import IterationScheduler

LATENCY = 1000.0

FAST = dict(model="gpt3-7b", fidelity="analytic", layers_resident=2)


def constant_executor(batch):
    """Unit-test executor: every iteration costs ``LATENCY`` cycles."""
    return LATENCY


def request(rid, output_len=10, arrival=0.0):
    return InferenceRequest(rid, input_len=8, output_len=output_len,
                            arrival_time=arrival)


def scheduler_with(requests, serving, injector=None, **kwargs):
    pool = RequestPool()
    pool.submit_all(requests)
    runtime = ResilienceRuntime(serving, injector=injector)
    scheduler = IterationScheduler(pool, constant_executor,
                                   max_batch_size=kwargs.pop("batch", 4),
                                   resilience=runtime, **kwargs)
    return scheduler, runtime


class TestDeadlinesAndRetries:
    def test_timeout_retries_then_terminates(self):
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=1,
                              retry_backoff_cycles=500.0)
        scheduler, runtime = scheduler_with([request(0, output_len=50)],
                                            serving)
        scheduler.run(max_iterations=100)
        assert scheduler.outcomes == {0: "timed_out"}
        assert runtime.counters["timeouts"] == 2
        assert runtime.counters["retries"] == 1
        assert runtime.counters["timed_out"] == 1
        assert len(scheduler.pool) == 0

    def test_retry_rebases_deadline_and_applies_backoff(self):
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=1,
                              retry_backoff_cycles=500.0)
        scheduler, runtime = scheduler_with([request(0, output_len=50)],
                                            serving)
        # Three iterations pass the deadline at the fourth boundary
        # (now = 3000 > 2500); the retry re-arrives at 3000 + 500 and is
        # re-admitted by the same iteration's idle-forward jump.
        for _ in range(4):
            scheduler.run_iteration()
        assert runtime.attempts[0] == 1
        assert runtime.deadline_base[0] == pytest.approx(3500.0)
        running = scheduler.pool.running()
        assert len(running) == 1
        assert running[0].arrival_time == pytest.approx(3500.0)
        assert scheduler.now == pytest.approx(4500.0)

    def test_completes_before_deadline_keeps_completed_status(self):
        serving = ServingSpec(deadline_cycles=1e6, max_retries=1)
        scheduler, runtime = scheduler_with([request(0, output_len=5)],
                                            serving)
        scheduler.run(max_iterations=100)
        assert scheduler.outcomes == {0: "completed"}
        assert runtime.counters["timeouts"] == 0

    def test_zero_retries_times_out_terminally_at_once(self):
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=0)
        scheduler, runtime = scheduler_with([request(0, output_len=50)],
                                            serving)
        scheduler.run(max_iterations=100)
        assert scheduler.outcomes == {0: "timed_out"}
        assert runtime.counters["retries"] == 0

    def test_timeout_and_retry_events_emitted(self):
        from repro.sim.events import EventBus
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=1,
                              retry_backoff_cycles=500.0)
        bus = EventBus()
        seen = []
        bus.subscribe(None, seen.append)
        scheduler, _ = scheduler_with([request(0, output_len=50)], serving,
                                      events=bus)
        scheduler.run(max_iterations=100)
        timeouts = [e for e in seen if isinstance(e, RequestTimedOut)]
        retries = [e for e in seen if isinstance(e, RequestRetried)]
        retired = [e for e in seen if isinstance(e, RequestRetired)]
        assert len(timeouts) == 2 and len(retries) == 1
        assert retries[0].attempt == 1
        assert retries[0].next_arrival == pytest.approx(3500.0)
        assert [e.status for e in retired] == ["timed_out"]


class TestSheddingAndAborts:
    def test_waiting_request_past_window_is_shed(self):
        serving = ServingSpec(shed_wait_cycles=1500.0)
        blocker = request(0, output_len=50)
        starved = request(1, output_len=5)
        scheduler, runtime = scheduler_with([blocker, starved], serving,
                                            batch=1)
        scheduler.run(max_iterations=10)
        assert scheduler.outcomes[1] == "shed"
        assert runtime.counters["shed"] == 1
        # The blocker keeps running: only the starved request left.
        assert scheduler.pool.running_count() == 1

    def test_shed_event_reports_wait(self):
        from repro.sim.events import EventBus
        serving = ServingSpec(shed_wait_cycles=1500.0)
        bus = EventBus()
        shed = []
        bus.subscribe(RequestShed, shed.append)
        scheduler, _ = scheduler_with(
            [request(0, output_len=50), request(1, output_len=5)],
            serving, batch=1, events=bus)
        scheduler.run(max_iterations=10)
        assert len(shed) == 1
        assert shed[0].request_id == 1
        assert shed[0].waited > 1500.0

    def test_abort_terminates_running_victim(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=1500.0, duration=0.0, ordinal=0),))
        serving = ServingSpec(deadline_cycles=1e6)
        scheduler, runtime = scheduler_with(
            [request(0, output_len=50)], serving,
            injector=FaultInjector(plan))
        scheduler.run(max_iterations=10)
        assert scheduler.outcomes == {0: "aborted"}
        assert runtime.counters["aborted"] == 1
        assert runtime.counters["faults"] == 1
        assert len(scheduler.pool) == 0


class TestKvFaultWindows:
    def _allocator(self, blocks=64):
        block_bytes = 2 * 4096 * 2 * 32 * 16
        return PagedKvAllocator(
            PagedKvConfig(block_tokens=16,
                          capacity_bytes=block_bytes * blocks), GPT3_7B)

    def test_admission_skips_blocked_channel_until_window_ends(self):
        from repro.sim.events import EventBus
        from repro.serving.events import RequestAdmitted
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=0.0, duration=2500.0, channel=0),))
        serving = ServingSpec(deadline_cycles=1e6)
        bus = EventBus()
        admitted = []
        bus.subscribe(RequestAdmitted, admitted.append)

        def assign(requests):
            """Pin request id to channel id for the window test."""
            for req in requests:
                if req.channel is None:
                    req.channel = req.request_id

        pool = RequestPool()
        blocked = request(0, output_len=10)
        driver = request(1, output_len=10)
        pool.submit_all([blocked, driver])
        runtime = ResilienceRuntime(serving, injector=FaultInjector(plan))
        scheduler = IterationScheduler(
            pool, constant_executor, max_batch_size=4,
            allocators=[self._allocator(), self._allocator()],
            assign_channels=assign, events=bus, resilience=runtime)
        scheduler.run(max_iterations=50)
        assert scheduler.outcomes == {0: "completed", 1: "completed"}
        times = {e.request_id: e.time for e in admitted}
        # The driver admits immediately; the blocked request only after
        # its channel's KV window closes.
        assert times[1] == pytest.approx(0.0)
        assert times[0] >= 2500.0


class TestLatencyPenalties:
    def test_stall_penalty_and_owed_cycles_drain_once(self):
        plan = FaultPlan(seed=0, faults=(
            ChannelStall(start=0.0, duration=1e5, channel=0,
                         stall_cycles=250.0),))
        runtime = ResilienceRuntime(ServingSpec(),
                                    injector=FaultInjector(plan))
        runtime.charge(100.0)
        batch = [InferenceRequest(0, input_len=8, output_len=8, channel=0)]
        assert runtime.apply(50.0, LATENCY, batch) == \
            pytest.approx(LATENCY + 250.0 + 100.0)
        # Owed cycles drained; only the stall remains.
        assert runtime.apply(50.0, LATENCY, batch) == \
            pytest.approx(LATENCY + 250.0)
        # Outside the window.
        assert runtime.apply(2e5, LATENCY, batch) == pytest.approx(LATENCY)

    def test_scheduler_charges_penalties_itself(self):
        """A hand-built scheduler with a runtime needs no executor shim.

        The stall covers the first two iterations' start times only, so
        exactly those records carry the penalty, and the latency tracker
        sees the charged latency.
        """
        from repro.serving.latency import LatencyTracker
        plan = FaultPlan(seed=0, faults=(
            ChannelStall(start=0.0, duration=1500.0, channel=0,
                         stall_cycles=250.0),))
        tracker = LatencyTracker()

        def on_channel_zero(requests):
            for req in requests:
                req.channel = 0

        scheduler, _ = scheduler_with(
            [request(0, output_len=4)], ServingSpec(),
            injector=FaultInjector(plan), latency_tracker=tracker,
            assign_channels=on_channel_zero)
        scheduler.run(max_iterations=10)
        latencies = [r.latency for r in scheduler.stats.iterations]
        assert latencies == [LATENCY + 250.0] * 2 + [LATENCY] * 2
        assert tracker.clock == scheduler.now == sum(latencies)
        (entry,) = tracker.report().requests
        assert entry.completion_time == sum(latencies)


class TestRetryExhaustion:
    """Persistent stalls exhaust retries into exactly one terminal status.

    A :class:`ChannelStall` covering every channel for the whole run
    guarantees each attempt blows its deadline, so every request walks
    the full retry ladder and must land in ``timed_out`` exactly once —
    no double-retire, and the pool lets go of every request on the way
    out.
    The behaviour must be identical under ``grouping="auto"`` and
    ``"off"`` (grouped windows stop at every resilience boundary).
    """

    @staticmethod
    def _register_stall_wall():
        from repro.registry import REGISTRY

        def stall_wall(serving, channels, **options):
            """Persistent stall on every channel (test-only component)."""
            stall = float(options.pop("stall_cycles", 1e6))
            if options:
                raise ValueError(f"unknown faults option(s) "
                                 f"{sorted(options)} for 'stall-wall'")
            faults = tuple(
                ChannelStall(start=0.0, duration=1e15, channel=channel,
                             stall_cycles=stall)
                for channel in range(max(1, channels)))
            return FaultInjector(FaultPlan(seed=0, faults=faults))

        REGISTRY.register("faults", "stall-wall", stall_wall,
                          option_names=("stall_cycles",), replace=True)

    def _spec(self, grouping):
        self._register_stall_wall()
        return ScenarioSpec(
            **FAST, system="neupims",
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.02,
                                        horizon_cycles=2e5, seed=5,
                                        max_requests=3),
            serving=ServingSpec(max_batch_size=4, grouping=grouping,
                                deadline_cycles=5e5, max_retries=1,
                                retry_backoff_cycles=1e5),
            faults="stall-wall")

    @pytest.mark.parametrize("grouping", ["auto", "off"])
    def test_exhausted_retries_terminate_exactly_once(self, grouping):
        retired = []
        session = Session(self._spec(grouping))
        session.events.subscribe(RequestRetired, retired.append)
        session.materialize()
        submitted = session.scheduler.pool.waiting()
        assert len(submitted) == 3
        result = session.run()

        # Exactly one terminal status per request, all timed out.
        assert {r["status"] for r in result.requests} == {"timed_out"}
        assert sorted(r["request_id"] for r in result.requests) == [0, 1, 2]
        per_request = {}
        for event in retired:
            per_request[event.request_id] = \
                per_request.get(event.request_id, 0) + 1
        assert per_request == {0: 1, 1: 1, 2: 1}, "double retire"

        # Every attempt blew its deadline: max_retries + 1 timeouts per
        # request, the final one terminal.
        assert result.resilience["timed_out"] == 3
        assert result.resilience["retries"] == 3
        assert result.resilience["timeouts"] == 6
        assert result.resilience.get("completed", 0) == 0

        # The pool drained and holds none of the requests any more, so
        # it rejects their transitions and leaves their status alone.
        pool = session.scheduler.pool
        assert len(pool) == 0
        for request in submitted:
            assert request.request_id not in pool
            status = request.status
            with pytest.raises(KeyError):
                pool.transition(request, RequestStatus.DONE)
            assert request.status is status

    def test_grouping_modes_agree_bit_identically(self):
        auto = Session(self._spec("auto")).run()
        off = Session(self._spec("off")).run()
        assert auto.to_dict() == off.to_dict()


class TestGroupedWindowGuard:
    """Grouped windows stop exactly where a resilience boundary acts.

    Each case runs the same hand-built scheduler under grouping ``auto``
    and ``off``: the records, outcomes and counters must agree, and the
    grouped steps' start times show where the windows stopped.  A
    boundary iteration is a window's first step, so a window opens only
    after its boundary has acted: the boundary's events precede the
    iteration's ``IterationCompleted``.
    """

    @staticmethod
    def _acted_before(seen, kind, start):
        """Whether a ``kind`` event precedes the iteration at ``start``."""
        order = [e for e in seen if isinstance(e, kind) or (
            isinstance(e, IterationCompleted)
            and e.record.start_time == start)]
        return bool(order) and isinstance(order[0], kind)

    def _run(self, grouping, make_requests, serving, plan=None, batch=4,
             iterations=100):
        from repro.sim.events import EventBus
        injector = FaultInjector(plan) if plan is not None else None
        bus = EventBus()
        seen = []
        bus.subscribe(None, seen.append)
        grouped_starts = []
        holder = {}

        def grouped_run(plan, shift):
            grouped_starts.append(holder["scheduler"].now)
            return LATENCY

        scheduler, runtime = scheduler_with(
            make_requests(), serving, injector=injector, batch=batch,
            events=bus,
            grouped=(GroupedExecutor(lambda batch: None, grouped_run)
                     if grouping == "auto" else None))
        holder["scheduler"] = scheduler
        scheduler.run(max_iterations=iterations)
        return scheduler, runtime, seen, grouped_starts

    def _both(self, *args, **kwargs):
        auto = self._run("auto", *args, **kwargs)
        off = self._run("off", *args, **kwargs)
        assert auto[0].stats.iterations == off[0].stats.iterations
        assert auto[0].outcomes == off[0].outcomes
        assert auto[1].counters == off[1].counters
        assert off[3] == []
        return auto, off

    def test_deadline_mid_window_times_out_at_same_iteration(self):
        serving = ServingSpec(deadline_cycles=2500.0)
        auto, off = self._both(lambda: [request(0, output_len=50)], serving)
        for scheduler, _, seen, _ in (auto, off):
            assert scheduler.outcomes == {0: "timed_out"}
            (timeout,) = [e for e in seen if isinstance(e, RequestTimedOut)]
            assert timeout.time == 3000.0
        # One window, opened by the admitting iteration at 0, ran the
        # iterations before the deadline and stopped at the boundary
        # (3000 - 0 > 2500) without committing it.
        assert auto[3] == [0.0, 1000.0, 2000.0]
        windows = [e for e in auto[2] if isinstance(e, WindowCommitted)]
        assert [w.iterations for w in windows] == [3]
        assert len(auto[0].stats.iterations) == 3

    def test_fault_start_inside_window_ends_it_before_the_start(self):
        plan = FaultPlan(seed=0, faults=(
            ChannelStall(start=2500.0, duration=1000.0, channel=0,
                         stall_cycles=250.0),))
        serving = ServingSpec(deadline_cycles=1e9)
        auto, off = self._both(lambda: [request(0, output_len=6)], serving,
                               plan)
        assert auto[1].counters["faults"] == 1
        (fired,) = [e for e in auto[2] if isinstance(e, FaultInjected)]
        assert fired.time == 3000.0
        # The first window stops before the iteration starting at 3000
        # (the first boundary at or past the fault's start).  That
        # boundary polls the fault, and the stalled iteration opens the
        # next window.
        assert auto[3] == [0.0, 1000.0, 2000.0, 3000.0, 4250.0, 5250.0]
        windows = [e for e in auto[2] if isinstance(e, WindowCommitted)]
        assert [w.iterations for w in windows] == [3, 3]
        assert self._acted_before(auto[2], FaultInjected, 3000.0)
        latencies = [r.latency for r in auto[0].stats.iterations]
        assert latencies[3] == LATENCY + 250.0

    def test_active_kv_fault_on_batch_channel_keeps_window_closed(self):
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=0.0, duration=2500.0, channel=0),))
        serving = ServingSpec(deadline_cycles=1e9)
        auto, _ = self._both(lambda: [request(0, output_len=6)], serving,
                             plan)
        # Iterations at 0/1000/2000 start inside the KV window on the
        # batch's channel; windows only open once it has closed.
        assert auto[3] and min(auto[3]) >= 2500.0

    def test_kv_fault_elsewhere_does_not_close_the_window(self):
        plan = FaultPlan(seed=0, faults=(
            KvFault(start=0.0, duration=1e9, channel=3),))
        runtime = ResilienceRuntime(ServingSpec(deadline_cycles=1e9),
                                    injector=FaultInjector(plan))
        runtime.injector.poll(0.0)
        batch = [InferenceRequest(0, input_len=8, output_len=8, channel=0)]
        assert runtime.window_guard(10.0, batch, RequestPool()) is not None
        batch[0].channel = 3
        assert runtime.window_guard(10.0, batch, RequestPool()) is None

    def test_queued_aborts_keep_window_closed(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=5.0, duration=0.0, ordinal=0),))
        runtime = ResilienceRuntime(ServingSpec(),
                                    injector=FaultInjector(plan))
        batch = [InferenceRequest(0, input_len=8, output_len=8, channel=0)]
        due = runtime.window_guard(0.0, batch, RequestPool())
        assert due is not None and not due(4.0) and due(5.0)
        runtime.injector.poll(6.0)
        assert runtime.window_guard(6.0, batch, RequestPool()) is None
        runtime.injector.take_aborts(6.0, batch)
        assert runtime.window_guard(6.0, batch, RequestPool()) is not None

    def test_full_batch_waiter_is_shed_at_same_iteration(self):
        serving = ServingSpec(shed_wait_cycles=1500.0)
        auto, off = self._both(
            lambda: [request(0, output_len=10), request(1, output_len=5)],
            serving, batch=1)
        assert auto[0].outcomes[1] == "shed"
        for _, _, seen, _ in (auto, off):
            (shed,) = [e for e in seen if isinstance(e, RequestShed)]
            assert shed.time == 2000.0
        # The window opened at 0 stops before 2000; the shed acts at that
        # boundary before the next window's first step.
        assert auto[3][:3] == [0.0, 1000.0, 2000.0]
        windows = [e for e in auto[2] if isinstance(e, WindowCommitted)]
        assert windows[0].iterations == 2
        assert self._acted_before(auto[2], RequestShed, 2000.0)


class TestSessionNeutrality:
    def _spec(self, **serving):
        return ScenarioSpec(
            **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.02,
                                        horizon_cycles=2e5, seed=5,
                                        max_requests=6),
            serving=ServingSpec(max_batch_size=4, **serving))

    def test_idle_runtime_is_latency_neutral(self):
        # Resilience knobs set but never firing: records identical to a
        # run with no runtime attached at all.
        plain = Session(self._spec()).run()
        guarded = Session(self._spec(deadline_cycles=1e12,
                                     max_retries=3,
                                     retry_backoff_cycles=1e5,
                                     shed_wait_cycles=1e12)).run()
        assert guarded.records == plain.records
        assert guarded.latency_ms == plain.latency_ms
        assert guarded.total_time_cycles == plain.total_time_cycles
        assert guarded.resilience.get("completed") == len(plain.requests)
        assert guarded.resilience.get("retries", 0) == 0

    def test_default_session_has_no_runtime(self):
        session = Session(self._spec())
        session.run()
        assert session.resilience is None
        assert session.fault_injector is None

    def test_default_result_statuses_all_completed(self):
        result = Session(self._spec()).run()
        assert result.requests
        assert {r["status"] for r in result.requests} == {"completed"}
