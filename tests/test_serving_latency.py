"""Tests for the latency accounting layer."""

import pytest

from repro.core.device import NeuPimsDevice
from repro.model.spec import GPT3_7B
from repro.serving.latency import (
    LatencyReport,
    LatencyTracker,
    RequestLatency,
    iteration_latency_histogram,
    percentile,
    queueing_delay_curve,
)
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest
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
