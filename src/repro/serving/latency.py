"""Per-request latency accounting for inference serving.

The paper's evaluation is throughput-centric, but its serving substrate
(Orca-style iteration-level scheduling, §2.2) exists to bound *latency*:
new requests join at iteration boundaries instead of waiting for a whole
batch to finish.  This module tracks the standard serving metrics over a
scheduler run — time-to-first-token (TTFT), time-per-output-token (TPOT),
end-to-end latency — and evaluates SLO attainment, enabling the
latency-oriented examples and tests.
"""

from __future__ import annotations

from bisect import bisect_right
from math import ceil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.serving.scheduler import ServingStats


@dataclass
class RequestLatency:
    """Latency decomposition of one completed request (in cycles)."""

    request_id: int
    arrival_time: float
    first_token_time: float
    completion_time: float
    output_tokens: int

    def __post_init__(self) -> None:
        if self.output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        if not (self.arrival_time <= self.first_token_time
                <= self.completion_time):
            raise ValueError("latency timestamps out of order")

    @property
    def ttft(self) -> float:
        """Time to first token."""
        return self.first_token_time - self.arrival_time

    @property
    def end_to_end(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first."""
        if self.output_tokens == 1:
            return 0.0
        return ((self.completion_time - self.first_token_time)
                / (self.output_tokens - 1))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100])."""
    if not values:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class LatencyReport:
    """Aggregate latency statistics over completed requests."""

    requests: List[RequestLatency] = field(default_factory=list)

    def add(self, latency: RequestLatency) -> None:
        """Record one completed request's latency."""
        self.requests.append(latency)

    def _values(self, metric: str) -> List[float]:
        return [getattr(r, metric) for r in self.requests]

    def summary(self, clock_hz: float = 1e9) -> Dict[str, float]:
        """Mean / p50 / p99 for TTFT, TPOT and end-to-end, in milliseconds."""
        if not self.requests:
            return {}
        scale = 1e3 / clock_hz  # cycles -> ms at the given clock
        out: Dict[str, float] = {}
        for metric in ("ttft", "tpot", "end_to_end"):
            values = self._values(metric)
            out[f"{metric}_mean_ms"] = sum(values) / len(values) * scale
            out[f"{metric}_p50_ms"] = percentile(values, 50) * scale
            out[f"{metric}_p99_ms"] = percentile(values, 99) * scale
        return out

    def slo_attainment(self, ttft_cycles: Optional[float] = None,
                       tpot_cycles: Optional[float] = None) -> float:
        """Fraction of requests meeting the given latency targets."""
        if not self.requests:
            return 1.0
        met = 0
        for request in self.requests:
            ok = True
            if ttft_cycles is not None and request.ttft > ttft_cycles:
                ok = False
            if tpot_cycles is not None and request.tpot > tpot_cycles:
                ok = False
            met += ok
        return met / len(self.requests)


class LatencyTracker:
    """Reconstructs per-request latencies from a scheduler run.

    Handed to an :class:`~repro.serving.scheduler.IterationScheduler` as
    ``latency_tracker``: the scheduler's iteration epilogue advances the
    clock and records, per request, the end time of its first generation
    iteration and of its completing iteration.

    A request that has run and is still in the batch is *live*: it ran in
    every iteration since it joined, so its completion time is the clock
    and nothing is written per iteration.  The completion is stamped once,
    by :meth:`note_completion`, when the request leaves the batch
    (retired, retried, terminated or released for failover), and a
    re-admitted request is live again from its next iteration.
    """

    def __init__(self) -> None:
        self._first_token: Dict[int, float] = {}
        self._completion: Dict[int, float] = {}
        self._arrivals: Dict[int, float] = {}
        self._outputs: Dict[int, int] = {}
        #: ids of the requests in the batch that have run (see class doc)
        self._live: Set[int] = set()
        #: execution clock: the end time of the last observed iteration
        self._clock = 0.0
        #: memoized :meth:`report`, dropped on new observations
        self._report_cache: Optional[LatencyReport] = None

    @property
    def clock(self) -> float:
        """End time of the last observed iteration (cycles)."""
        return self._clock

    def advance_clock(self, latency: float) -> float:
        """Account one executed iteration; returns its end time."""
        self._clock += latency
        if self._live:
            self._report_cache = None
        return self._clock

    def sync_clock(self, now: float) -> None:
        """Catch the clock up to the scheduler's ``now`` (idle jumps).

        :meth:`advance_clock` only accumulates iteration latencies; when
        the scheduler idles forward to the next arrival the clock would
        lag behind, stamping first-token times *earlier* than the
        request's arrival (and :meth:`report` would reject the
        reconstructed latency as out of order).  The scheduler calls
        this at every idle jump; the clock never moves backwards.
        """
        if now > self._clock:
            self._clock = now
            if self._live:
                self._report_cache = None

    def observe_running(self, request, end: float) -> None:
        """Record that ``request`` ran in the iteration ending at ``end``
        (the clock); a no-op while the request is live."""
        rid = request.request_id
        if rid in self._live:
            return
        self._live.add(rid)
        self._arrivals.setdefault(rid, request.arrival_time)
        self._outputs[rid] = request.output_len
        self._first_token.setdefault(rid, end)
        self._report_cache = None

    def observe_batch(self, batch, end: float) -> None:
        """:meth:`observe_running` for every request of ``batch`` — one
        call per grouped window, only the requests that just joined the
        batch write anything."""
        live = self._live
        for request in batch:
            if request.request_id not in live:
                self.observe_running(request, end)

    def has_first_token(self, request_id: int) -> bool:
        """Whether the request has produced its first token yet."""
        return request_id in self._first_token

    def note_completion(self, request_id: int) -> None:
        """Stamp the completion of a request leaving the batch.

        A live request's last iteration is the one that ended at the
        clock, so that is its completion time; the report does not
        change.  A request that is not live (it never ran, or it already
        left) is ignored.
        """
        if request_id in self._live:
            self._live.remove(request_id)
            self._completion[request_id] = self._clock

    def report(self) -> LatencyReport:
        """Build the latency report for all requests seen.

        Live requests complete at the clock.  The report is memoized
        until the next observation lands (the session result and any
        fleet-level merge both read it), so callers must treat the
        returned report as read-only.
        """
        if self._report_cache is not None:
            return self._report_cache
        report = LatencyReport()
        live, clock = self._live, self._clock
        for rid, first in sorted(self._first_token.items()):
            report.add(RequestLatency(
                request_id=rid,
                arrival_time=self._arrivals.get(rid, 0.0),
                first_token_time=first,
                completion_time=(clock if rid in live
                                 else self._completion[rid]),
                output_tokens=max(1, self._outputs.get(rid, 1)),
            ))
        self._report_cache = report
        return report


def queueing_delay_curve(stats: ServingStats,
                         arrival_times: Sequence[float]) -> List[float]:
    """Per-arrival delay until the next iteration boundary (admission lag).

    Quantifies the benefit of iteration-level scheduling: with per-batch
    scheduling the lag would be the remaining *batch* time instead.
    """
    boundaries = [record.end_time for record in stats.iterations]
    delays: List[float] = []
    for arrival in arrival_times:
        idx = bisect_right(boundaries, arrival)
        if idx < len(boundaries):
            delays.append(boundaries[idx] - arrival)
        else:
            delays.append(0.0)
    return delays


def iteration_latency_histogram(stats: ServingStats,
                                bins: int = 10) -> Dict[str, int]:
    """Histogram of iteration latencies (diagnostics for examples)."""
    if not stats.iterations:
        return {}
    latencies = [record.latency for record in stats.iterations]
    low, high = min(latencies), max(latencies)
    if high == low:
        return {f"{low:.0f}": len(latencies)}
    width = (high - low) / bins
    histogram: Dict[str, int] = {}
    for value in latencies:
        bucket = min(bins - 1, int((value - low) / width))
        key = f"{low + bucket * width:.0f}"
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
