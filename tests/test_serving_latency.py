"""Tests for the latency accounting layer."""

import pytest

from repro.api import ServingSpec
from repro.core.device import NeuPimsDevice
from repro.faults import (FaultInjector, FaultPlan, RequestAbort,
                          ResilienceRuntime)
from repro.model.spec import GPT3_7B
from repro.serving.grouping import GroupedExecutor
from repro.serving.latency import (
    LatencyReport,
    LatencyTracker,
    RequestLatency,
    iteration_latency_histogram,
    percentile,
    queueing_delay_curve,
)
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import IterationScheduler


def latency(rid=0, arrival=0.0, first=10.0, done=100.0, tokens=10):
    return RequestLatency(rid, arrival, first, done, tokens)


class TestRequestLatency:
    def test_ttft(self):
        assert latency(arrival=5.0, first=25.0).ttft == 20.0

    def test_end_to_end(self):
        assert latency(arrival=5.0, done=105.0).end_to_end == 100.0

    def test_tpot_excludes_first_token(self):
        lat = latency(first=10.0, done=100.0, tokens=10)
        assert lat.tpot == pytest.approx(10.0)

    def test_tpot_single_token_zero(self):
        assert latency(tokens=1).tpot == 0.0

    def test_out_of_order_timestamps_raise(self):
        with pytest.raises(ValueError):
            latency(arrival=50.0, first=10.0)

    def test_nonpositive_tokens_raise(self):
        with pytest.raises(ValueError):
            latency(tokens=0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p99_near_max(self):
        values = list(range(100))
        assert percentile(values, 99) == 98

    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestLatencyReport:
    def test_summary_scales_to_ms(self):
        report = LatencyReport()
        report.add(latency(first=1e6, done=2e6, tokens=11))
        summary = report.summary()
        assert summary["ttft_mean_ms"] == pytest.approx(1.0)
        assert summary["tpot_mean_ms"] == pytest.approx(0.1)

    def test_empty_summary(self):
        assert LatencyReport().summary() == {}

    def test_slo_attainment(self):
        report = LatencyReport()
        report.add(latency(rid=0, first=10.0))
        report.add(latency(rid=1, first=1000.0, done=2000.0))
        assert report.slo_attainment(ttft_cycles=100.0) == 0.5

    def test_slo_attainment_no_targets(self):
        report = LatencyReport()
        report.add(latency())
        assert report.slo_attainment() == 1.0


class TestLatencyTracker:
    def test_tracks_scheduler_run(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        requests = [InferenceRequest(i, input_len=16, output_len=3)
                    for i in range(4)]
        pool.submit_all(requests)
        tracker = LatencyTracker()
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=8,
            assign_channels=device.assign_channels,
            latency_tracker=tracker)
        stats = scheduler.run()
        report = tracker.report()
        assert len(report.requests) == 4
        for lat in report.requests:
            assert lat.ttft > 0
            assert lat.completion_time == pytest.approx(stats.total_time)

    def test_late_arrival_has_longer_ttft(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        early = InferenceRequest(0, input_len=16, output_len=6)
        late = InferenceRequest(1, input_len=16, output_len=2,
                                arrival_time=1.0)
        pool.submit_all([early, late])
        tracker = LatencyTracker()
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=8,
            assign_channels=device.assign_channels,
            latency_tracker=tracker)
        scheduler.run()
        report = tracker.report()
        by_id = {r.request_id: r for r in report.requests}
        assert by_id[1].first_token_time >= by_id[0].first_token_time

    def test_idle_gap_keeps_first_token_after_arrival(self):
        # Regression: when the pool drains and the scheduler idles
        # forward to a late arrival, the tracker clock must jump with it
        # — otherwise the late request's first token is stamped before
        # its arrival and report() rejects the reconstruction.
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        early = InferenceRequest(0, input_len=16, output_len=2)
        late = InferenceRequest(1, input_len=16, output_len=2,
                                arrival_time=1e9)
        pool.submit_all([early, late])
        tracker = LatencyTracker()
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=8,
            assign_channels=device.assign_channels,
            latency_tracker=tracker)
        scheduler.run()
        report = tracker.report()  # must not raise
        by_id = {r.request_id: r for r in report.requests}
        assert by_id[1].first_token_time > 1e9
        assert by_id[1].ttft >= 0


class TestStatsHelpers:
    def _stats(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        pool.submit_all(InferenceRequest(i, input_len=16, output_len=4)
                        for i in range(8))
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=8,
            assign_channels=device.assign_channels)
        return scheduler.run()

    def test_queueing_delay_curve(self):
        stats = self._stats()
        delays = queueing_delay_curve(stats, [0.0, stats.total_time + 1])
        assert delays[0] > 0          # waits for iteration 1 to end
        assert delays[1] == 0.0       # after the run: no boundary ahead

    def test_iteration_histogram_counts_all(self):
        stats = self._stats()
        histogram = iteration_latency_histogram(stats, bins=4)
        assert sum(histogram.values()) == len(stats.iterations)

    def test_histogram_empty_stats(self):
        from repro.serving.scheduler import ServingStats
        assert iteration_latency_histogram(ServingStats()) == {}


def run_iteration(tracker, batch, latency=100.0):
    """What the scheduler's iteration epilogue does with its tracker."""
    end = tracker.advance_clock(latency)
    for request in batch:
        tracker.observe_running(request, end)


class TestSyncClockMonotonicity:
    """Regression: the tracker clock never runs backwards.

    Idle-forward jumps (scheduler skipping ahead to the next arrival)
    and retried requests (whose ``arrival_time`` is re-based into the
    future) are the two paths that historically could stamp first-token
    times before arrivals; :meth:`LatencyTracker.sync_clock` and the
    setdefault semantics of :meth:`observe_running` pin both.
    """

    def test_sync_clock_moves_forward_only(self):
        tracker = LatencyTracker()
        tracker.advance_clock(1000.0)
        tracker.sync_clock(500.0)  # behind: must not rewind
        assert tracker.clock == 1000.0
        tracker.sync_clock(5000.0)  # idle-forward jump
        assert tracker.clock == 5000.0

    def test_idle_forward_keeps_first_token_after_arrival(self):
        tracker = LatencyTracker()
        early = InferenceRequest(0, input_len=8, output_len=1,
                                 arrival_time=0.0)
        run_iteration(tracker, [early])
        # Late arrival: the scheduler idles forward before serving it.
        late = InferenceRequest(1, input_len=8, output_len=1,
                                arrival_time=9000.0)
        tracker.sync_clock(9000.0)
        run_iteration(tracker, [late])
        report = tracker.report()
        by_id = {r.request_id: r for r in report.requests}
        assert by_id[1].first_token_time == pytest.approx(9100.0)
        assert by_id[1].ttft == pytest.approx(100.0)
        for entry in report.requests:
            assert entry.arrival_time <= entry.first_token_time \
                <= entry.completion_time

    def test_retried_request_keeps_original_arrival(self):
        # A retry re-bases arrival_time into the future (backoff); the
        # tracker must keep the original arrival or the reconstructed
        # latency would have first_token < arrival and report() raises.
        tracker = LatencyTracker()
        request = InferenceRequest(0, input_len=8, output_len=4,
                                   arrival_time=0.0)
        run_iteration(tracker, [request])  # first token at clock 100
        request.arrival_time = 5000.0  # retry backoff re-base
        tracker.sync_clock(5000.0)
        run_iteration(tracker, [request])
        report = tracker.report()
        assert len(report.requests) == 1
        entry = report.requests[0]
        assert entry.arrival_time == 0.0
        assert entry.first_token_time == pytest.approx(100.0)
        assert entry.completion_time == pytest.approx(5100.0)

    def test_scheduler_idle_jumps_produce_valid_report(self):
        pool = RequestPool()
        pool.submit_all([
            InferenceRequest(0, input_len=8, output_len=2,
                             arrival_time=0.0),
            InferenceRequest(1, input_len=8, output_len=2,
                             arrival_time=1e6),
            InferenceRequest(2, input_len=8, output_len=2,
                             arrival_time=7e6),
        ])
        tracker = LatencyTracker()
        scheduler = IterationScheduler(pool, lambda batch: 1000.0,
                                       max_batch_size=4,
                                       latency_tracker=tracker)
        scheduler.run(max_iterations=100)
        report = tracker.report()  # raises if any timestamps disorder
        assert len(report.requests) == 3
        for entry in report.requests:
            assert entry.ttft >= 0.0


class TestDepartures:
    """A running request completes at the tracker clock; its completion
    is stamped once, when it leaves the batch.

    Every case runs one hand-built scheduler with a constant-latency
    executor under grouping ``auto`` (a class engine that ignores its
    plan) and ``off``: the reports must agree, and the completion times
    are the end of each request's last iteration.
    """

    STEP = 1000.0

    def _engine(self):
        return GroupedExecutor(lambda batch: None,
                               lambda plan, shift: self.STEP)

    def _run(self, grouped, requests, serving=None, plan=None, batch=4,
             iterations=100):
        pool = RequestPool()
        pool.submit_all(requests)
        tracker = LatencyTracker()
        runtime = None
        if serving is not None:
            runtime = ResilienceRuntime(
                serving,
                injector=FaultInjector(plan) if plan is not None else None)
        scheduler = IterationScheduler(
            pool, lambda batch: self.STEP, max_batch_size=batch,
            latency_tracker=tracker, resilience=runtime,
            grouped=self._engine() if grouped else None)
        scheduler.run(max_iterations=iterations)
        return scheduler, tracker

    def _both(self, make_requests, **kwargs):
        auto = self._run(True, make_requests(), **kwargs)
        off = self._run(False, make_requests(), **kwargs)
        assert auto[0].stats.iterations == off[0].stats.iterations
        assert auto[1].report().requests == off[1].report().requests
        return auto

    @staticmethod
    def _completions(tracker):
        return {r.request_id: r.completion_time
                for r in tracker.report().requests}

    def test_retire_stamps_last_iteration_end(self):
        _, tracker = self._both(lambda: [
            InferenceRequest(i, input_len=8, output_len=2 + 3 * i)
            for i in range(3)])
        assert self._completions(tracker) == {0: 2000.0, 1: 5000.0,
                                              2: 8000.0}

    def test_timeout_and_retry_stamp_each_departure(self):
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=1,
                              retry_backoff_cycles=500.0)
        scheduler, tracker = self._both(
            lambda: [InferenceRequest(0, input_len=8, output_len=50)],
            serving=serving)
        assert scheduler.outcomes == {0: "timed_out"}
        (entry,) = tracker.report().requests
        # Runs 0..3000, retried at 3000, re-arrives at 3500 and runs
        # until its re-based deadline passes: the last iteration ends
        # at 6500, where the terminal timeout stamps it.
        assert entry.first_token_time == 1000.0
        assert entry.completion_time == 6500.0

    def test_retry_stamps_before_the_backoff(self):
        # Request 0 is retried at the boundary at 3000 and waits out its
        # backoff while request 1 keeps the clock moving: its completion
        # stays at the end of the last iteration it ran in.
        serving = ServingSpec(deadline_cycles=2500.0, max_retries=1,
                              retry_backoff_cycles=5000.0)
        scheduler, tracker = self._both(
            lambda: [InferenceRequest(0, input_len=8, output_len=50),
                     InferenceRequest(1, input_len=8, output_len=50,
                                      arrival_time=2000.0)],
            serving=serving, iterations=4)
        assert scheduler.pool.get(0).status is RequestStatus.WAITING
        assert self._completions(tracker) == {0: 3000.0, 1: 4000.0}

    def test_abort_stamps_the_victim(self):
        plan = FaultPlan(seed=0, faults=(
            RequestAbort(start=2500.0, duration=0.0, ordinal=0),))
        scheduler, tracker = self._both(
            lambda: [InferenceRequest(i, input_len=8, output_len=6)
                     for i in range(2)],
            serving=ServingSpec(), plan=plan)
        assert scheduler.outcomes == {0: "aborted", 1: "completed"}
        assert self._completions(tracker) == {0: 3000.0, 1: 6000.0}

    def test_shed_request_never_enters_the_report(self):
        scheduler, tracker = self._both(
            lambda: [InferenceRequest(0, input_len=8, output_len=10),
                     InferenceRequest(1, input_len=8, output_len=5)],
            serving=ServingSpec(shed_wait_cycles=1500.0), batch=1)
        assert scheduler.outcomes == {0: "completed", 1: "shed"}
        assert self._completions(tracker) == {0: 10000.0}

    def test_failover_release_stamps_the_clock(self):
        for grouped in (True, False):
            request = InferenceRequest(0, input_len=8, output_len=20)
            scheduler, tracker = self._run(grouped, [request], iterations=3)
            scheduler.release_request(request)
            # The clock moves on (another node's traffic, an idle jump);
            # the released request keeps its completion.
            tracker.advance_clock(self.STEP)
            assert self._completions(tracker) == {0: 3000.0}

    def test_truncated_run_reads_the_clock_for_live_requests(self):
        scheduler, tracker = self._both(
            lambda: [InferenceRequest(0, input_len=8, output_len=50)],
            iterations=3)
        assert self._completions(tracker) == {0: 3000.0}
        # The memo follows the clock while the request is live.
        scheduler.run(max_iterations=5)
        assert self._completions(tracker) == {0: 5000.0}
