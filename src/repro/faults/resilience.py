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
checks.  Grouped windows stop before the first iteration at which a
boundary would act (:meth:`ResilienceRuntime.window_guard`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.serving.preemption import PreemptingAllocatorPool

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.api.spec import ServingSpec
    from repro.serving.pool import RequestPool

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

    def window_guard(self, now: float, batch: Sequence[Any],
                     pool: "RequestPool"
                     ) -> Optional[Callable[[float], bool]]:
        """When a grouped window over the frozen ``batch`` must stop.

        ``None`` when no window may open at ``now``: aborts are queued,
        or a KV fault blocks a batch channel, where every per-request
        growth step raises.  Otherwise a ``due(t)`` predicate, true at
        the first iteration start ``t`` where the iteration boundary
        would act: the next unpolled fault starts, a batch request
        passes its deadline, or a waiting request passes the shedding
        window.  Float subtraction is monotone, so testing the smallest
        deadline base and waiting arrival is exact.  The batch is frozen
        and polls, retries and admissions only happen at boundaries, so
        nothing the predicate reads changes inside a window.
        """
        injector = self.injector
        next_start = math.inf
        if injector is not None:
            if injector.has_pending_aborts() or any(
                    injector.kv_blocked(now, channel)
                    for channel in {r.channel for r in batch}):
                return None
            next_start = injector.next_start()
        serving = self.serving
        deadline = serving.deadline_cycles
        if deadline is None:
            deadline = min_base = math.inf  # t - inf > inf never holds
        else:
            base = self.deadline_base
            min_base = min(base.get(r.request_id, r.arrival_time)
                           for r in batch)
        shed_wait = serving.shed_wait_cycles
        pending = pool.next_arrival() if shed_wait is not None else None
        if pending is not None:
            min_arrival = pending.arrival_time
        else:
            shed_wait = min_arrival = math.inf

        def due(t: float) -> bool:
            return (next_start <= t or t - min_base > deadline
                    or t - min_arrival > shed_wait)
        return due
