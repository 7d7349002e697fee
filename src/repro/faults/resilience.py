"""The resilience runtime shared by session and scheduler.

:class:`ResilienceRuntime` is the mutable state the
:class:`~repro.serving.scheduler.IterationScheduler` threads through
its boundaries (timeouts, retries re-admitted through the
:class:`~repro.serving.preemption.PreemptingAllocatorPool` restore
machinery) and its iteration epilogue, which charges
:meth:`ResilienceRuntime.apply` — fault latency penalties and owed
restore cycles — before the latency tracker sees the iteration, so
penalty cycles move the latency clock exactly like device cycles.  Its
knobs are the ``ServingSpec`` resilience fields, read directly.

A session only constructs a runtime when ``faults != "none"`` or
``ServingSpec.resilience_active``; the default path carries no runtime
and the scheduler's fault branches reduce to ``resilience is not None``
checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.serving.preemption import PreemptingAllocatorPool

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.api.spec import ServingSpec

__all__ = ["ResilienceRuntime"]


class ResilienceRuntime:
    """Mutable fault/resilience state shared across the serving stack.

    The scheduler calls :meth:`charge` when a retried request is
    re-admitted (its swap/recompute restore cost) and :meth:`apply` on
    every iteration, which drains the owed cycles and adds fault latency
    penalties.  ``counters`` accumulates the taxonomy surfaced in
    ``RunResult.resilience``.  ``serving`` supplies the knobs:
    ``deadline_cycles`` bounds how long a *running* request may go
    without completing (measured from arrival, or from its re-admission
    after a retry), ``max_retries`` bounds re-admissions per request,
    ``retry_backoff_cycles`` is the base of the exponential retry
    backoff and ``shed_wait_cycles`` sheds waiting requests never
    admitted within the window.
    """

    def __init__(self, serving: "ServingSpec",
                 injector: Optional[FaultInjector] = None,
                 preempting: Optional[PreemptingAllocatorPool] = None
                 ) -> None:
        self.serving = serving
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
        return self.serving.retry_backoff_cycles * (2.0 ** (attempt - 1))

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
