"""Runtime that feeds a :class:`~repro.faults.plan.FaultPlan` into serving.

The :class:`FaultInjector` is polled by the iteration scheduler at every
iteration boundary.  It exposes these queries, all pure with respect to
simulated time except for the activation cursor and pending-abort queue:

* :meth:`poll` — faults whose start time has been reached since the last
  poll (for event emission and abort queuing);
* :meth:`next_start` / :meth:`has_pending_aborts` — whether the next
  boundary has anything to poll or abort (read by
  :meth:`~repro.faults.resilience.ResilienceRuntime.window_guard`);
* :meth:`latency_penalty` — extra cycles a fault window adds to an
  iteration touching a degraded/stalled channel;
* :meth:`kv_blocked` — whether a channel's KV pool is inside a
  :class:`~repro.faults.plan.KvFault` window;
* :meth:`take_aborts` — running requests a queued
  :class:`~repro.faults.plan.RequestAbort` selects as victims.

Plans are tiny (a handful of faults), so active-window checks are plain
linear scans; the injector only exists at all when ``faults != "none"``,
preserving the zero-overhead default.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence

from repro.faults.plan import (FaultPlan, KvFault, NodeDegrade, NodeDown,
                               RequestAbort)

__all__ = ["FaultInjector", "NodeFaultSchedule"]


class FaultInjector:
    """Stateful cursor over a time-sorted :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._cursor = 0
        self._pending_aborts: List[RequestAbort] = []

    def poll(self, now: float) -> List[Any]:
        """Return faults newly activated at or before ``now``.

        Each fault is returned exactly once, in start order; aborts are
        additionally queued until :meth:`take_aborts` consumes them.
        """
        fired: List[Any] = []
        faults = self.plan.faults
        while self._cursor < len(faults) and \
                faults[self._cursor].start <= now:
            fault = faults[self._cursor]
            self._cursor += 1
            fired.append(fault)
            if isinstance(fault, RequestAbort):
                self._pending_aborts.append(fault)
        return fired

    def next_start(self) -> float:
        """Start of the next fault :meth:`poll` has not returned (or inf)."""
        faults = self.plan.faults
        if self._cursor < len(faults):
            return faults[self._cursor].start
        return math.inf

    def has_pending_aborts(self) -> bool:
        """Whether polled aborts await :meth:`take_aborts`."""
        return bool(self._pending_aborts)

    def latency_penalty(self, now: float, latency: float,
                        batch: Sequence[Any]) -> float:
        """Extra cycles fault windows add to an iteration of ``latency``.

        Degrade factors compose as the max over active windows touching
        the batch's channels (a derated channel gates the whole
        sub-batch iteration); stall cycles are additive.
        """
        derate = 1.0
        stall = 0.0
        channels = None
        for fault in self.plan.faults:
            if not fault.active(now):
                continue
            channel = getattr(fault, "channel", None)
            if channel is None:
                continue
            factor = getattr(fault, "factor", None)
            cycles = getattr(fault, "stall_cycles", None)
            if factor is None and cycles is None:
                continue
            if channels is None:
                channels = {request.channel for request in batch
                            if request.channel is not None}
            if channel not in channels:
                continue
            if factor is not None and factor > derate:
                derate = factor
            if cycles is not None:
                stall += cycles
        return latency * (derate - 1.0) + stall

    def kv_blocked(self, now: float, channel: int) -> bool:
        """Whether ``channel`` is inside an active KV-fault window."""
        for fault in self.plan.faults:
            if isinstance(fault, KvFault) and fault.channel == channel \
                    and fault.active(now):
                return True
        return False

    def take_aborts(self, now: float, running: Sequence[Any]) -> List[Any]:
        """Consume queued aborts, returning the selected victim requests.

        Victims are picked as ``running[ordinal % len(running)]`` and
        deduplicated; with no running requests the aborts stay queued
        for the next boundary.
        """
        if not self._pending_aborts or not running:
            return []
        victims: List[Any] = []
        seen = set()
        for fault in self._pending_aborts:
            victim = running[fault.ordinal % len(running)]
            if victim.request_id not in seen:
                seen.add(victim.request_id)
                victims.append(victim)
        self._pending_aborts = []
        return victims


class NodeFaultSchedule:
    """Pure time-indexed view of a node-scoped :class:`FaultPlan`.

    The fleet router consults it instead of polling per-iteration: a
    health probe at time ``p`` asks :meth:`down` (is the probed node
    inside a :class:`~repro.faults.plan.NodeDown` window?) and routing
    asks :meth:`degrade_factor` to derate a node's apparent capacity.
    Every query is a pure function of ``(plan, now, node)`` — no
    cursors, no consumed state — so fleet runs stay bit-reproducible
    across stream/batch stepping and repeated runs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def down(self, now: float, node: int) -> bool:
        """Whether ``node`` is inside an active ``NodeDown`` window."""
        for fault in self.plan.faults:
            if isinstance(fault, NodeDown) and fault.node == node \
                    and fault.active(now):
                return True
        return False

    def degrade_factor(self, now: float, node: int) -> float:
        """Latency derate for ``node`` at ``now`` (1.0 = healthy).

        Factors compose as the max over active windows, matching the
        channel-degrade composition rule of :meth:`FaultInjector.
        latency_penalty`.
        """
        factor = 1.0
        for fault in self.plan.faults:
            if isinstance(fault, NodeDegrade) and fault.node == node \
                    and fault.active(now) and fault.factor > factor:
                factor = fault.factor
        return factor

    def degrades(self, node: int) -> bool:
        """Whether the plan holds any ``NodeDegrade`` window for ``node``."""
        return any(isinstance(fault, NodeDegrade) and fault.node == node
                   for fault in self.plan.faults)

    @property
    def last_end(self) -> float:
        """Exclusive end of the last fault window (0.0 for empty plans)."""
        return max((fault.end for fault in self.plan.faults), default=0.0)
