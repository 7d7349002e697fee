"""Resilience policy and the runtime shared by session and scheduler.

The mechanisms that absorb injected (or organic) failures live here:

* :class:`ResiliencePolicy` — the frozen knobs from
  ``ScenarioSpec.serving``: per-request deadlines, bounded retry with
  exponential backoff, and graceful-degradation shedding of requests
  that waited too long for admission;
* :class:`ResilienceRuntime` — the mutable state the
  :class:`~repro.serving.scheduler.IterationScheduler` threads through
  its boundaries (timeouts, retries re-admitted through the
  :class:`~repro.serving.preemption.PreemptingAllocatorPool` restore
  machinery) and its iteration epilogue, which charges
  :meth:`ResilienceRuntime.apply` — fault latency penalties and owed
  restore cycles — before the latency tracker sees the iteration, so
  penalty cycles move the latency clock exactly like device cycles.

A session only constructs a runtime when ``faults != "none"`` or a
resilience knob is set; the default path carries no runtime and the
scheduler's fault branches reduce to ``resilience is not None`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.serving.preemption import PreemptingAllocatorPool

__all__ = ["ResiliencePolicy", "ResilienceRuntime"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Frozen resilience knobs (mirrors ``ScenarioSpec.serving``).

    ``deadline_cycles`` bounds how long a *running* request may go
    without completing before it times out (measured from arrival, or
    from its re-admission time after a retry); ``max_retries`` bounds
    re-admissions per request; ``retry_backoff_cycles`` is the base of
    the exponential backoff applied to retry arrival times;
    ``shed_wait_cycles`` sheds waiting requests that were never admitted
    within the window (graceful degradation under KV pressure).
    """

    deadline_cycles: Optional[float] = None
    max_retries: int = 0
    retry_backoff_cycles: float = 0.0
    shed_wait_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ValueError(
                f"deadline_cycles must be > 0, got {self.deadline_cycles}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_cycles < 0:
            raise ValueError(f"retry_backoff_cycles must be >= 0, "
                             f"got {self.retry_backoff_cycles}")
        if self.shed_wait_cycles is not None and self.shed_wait_cycles <= 0:
            raise ValueError(
                f"shed_wait_cycles must be > 0, got {self.shed_wait_cycles}")

    @property
    def active(self) -> bool:
        """Whether any resilience mechanism is enabled."""
        return (self.deadline_cycles is not None or self.max_retries > 0
                or self.shed_wait_cycles is not None)


class ResilienceRuntime:
    """Mutable fault/resilience state shared across the serving stack.

    The scheduler calls :meth:`charge` when a retried request is
    re-admitted (its swap/recompute restore cost) and :meth:`apply` on
    every iteration, which drains the owed cycles and adds fault latency
    penalties.  ``counters`` accumulates the taxonomy surfaced in
    ``RunResult.resilience``.
    """

    def __init__(self, policy: ResiliencePolicy,
                 injector: Optional[FaultInjector] = None,
                 preempting: Optional[PreemptingAllocatorPool] = None
                 ) -> None:
        self.policy = policy
        self.injector = injector
        self.preempting = preempting
        self.pending_cycles = 0.0
        self.counters: Dict[str, int] = {
            "faults": 0, "timeouts": 0, "retries": 0,
            "timed_out": 0, "shed": 0, "aborted": 0,
        }
        #: Retry attempts so far, keyed by request id.
        self.attempts: Dict[int, int] = {}
        #: Deadline epoch per request (arrival, re-based on each retry).
        self.deadline_base: Dict[int, float] = {}

    def charge(self, cycles: float) -> None:
        """Owe ``cycles`` (e.g. a restore cost) to the next iteration."""
        self.pending_cycles += cycles

    def retry_delay(self, attempt: int) -> float:
        """Exponential backoff delay for 1-based retry ``attempt``."""
        return self.policy.retry_backoff_cycles * (2.0 ** (attempt - 1))

    def apply(self, now: float, latency: float,
              batch: Sequence[Any]) -> float:
        """Penalized latency for one iteration of base ``latency``.

        ``now`` is the iteration's start time (fault windows are
        half-open in simulated time).
        """
        extra = self.pending_cycles
        self.pending_cycles = 0.0
        if self.injector is not None:
            extra += self.injector.latency_penalty(now, latency, batch)
        return latency + extra
