"""Typed events the serving loop publishes (the streaming taxonomy).

The iteration-level scheduler emits these through a
:class:`~repro.sim.events.EventBus` when one is attached *and* has
subscribers (zero-overhead-when-empty; see :mod:`repro.sim.events`).
``Session.stream()`` turns them into a generator; live policies (SLO
monitors, admission throttles) subscribe directly.

All events are frozen dataclasses carrying ``time`` — the scheduler
clock in cycles at emission.  The taxonomy:

* :class:`RequestAdmitted` / :class:`RequestRetired` — pool transitions
  at iteration boundaries.
* :class:`IterationCompleted` — one executed generation iteration, with
  its full :class:`~repro.serving.scheduler.IterationRecord`.  Emitted
  on both the per-request path and the grouped fast path (one event per
  committed iteration), so subscribers see an identical stream either
  way.
* :class:`KvPressure` — a channel could not supply the KV blocks an
  iteration needed (grouped-window boundary or mid-generation OOM).
* :class:`WindowCommitted` — a group-commit steady-state window was
  synchronized back to per-request state (grouped engine only).
* :class:`CountersSampled` — one iteration's typed counter vector
  (:mod:`repro.counters` taxonomy), emitted when the session runs
  with ``counters="typed"``; carries canonical sorted
  pairs so subscribers can fold them into a
  :class:`~repro.counters.report.CounterReport` directly.
* :class:`FaultInjected` / :class:`NodeDegraded` /
  :class:`RequestTimedOut` / :class:`RequestRetried` /
  :class:`RequestShed` — the fault/recovery taxonomy emitted when a
  :class:`~repro.faults.resilience.ResilienceRuntime` is attached
  (``faults`` component or resilience knobs in the spec).
* :class:`NodeMarkedDown` / :class:`NodeRecovered` /
  :class:`RequestFailedOver` / :class:`FleetShedding` — the fleet
  taxonomy the cluster tier's :class:`~repro.cluster.router.Router`
  emits on its own bus (health transitions, failover re-dispatch,
  watermark backpressure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.serving.scheduler import IterationRecord


@dataclass(frozen=True)
class ServingEvent:
    """Base class: every serving event is stamped with the clock."""

    time: float


@dataclass(frozen=True)
class RequestAdmitted(ServingEvent):
    """A waiting request entered the generation batch."""

    request_id: int
    channel: int


@dataclass(frozen=True)
class RequestRetired(ServingEvent):
    """A request left the pool and freed its KV blocks.

    ``status`` is the terminal outcome: ``"completed"`` (the default,
    so pre-resilience consumers and pinned records are unchanged),
    ``"timed_out"``, ``"shed"`` or ``"aborted"``.
    """

    request_id: int
    status: str = "completed"


@dataclass(frozen=True)
class IterationCompleted(ServingEvent):
    """One generation iteration executed (``time`` is its end time)."""

    record: "IterationRecord"


@dataclass(frozen=True)
class KvPressure(ServingEvent):
    """A channel lacked free KV blocks for an iteration's growth."""

    channel: int
    needed_blocks: int
    free_blocks: int


@dataclass(frozen=True)
class WindowCommitted(ServingEvent):
    """A grouped steady-state window closed (``iterations`` deep)."""

    iterations: int


@dataclass(frozen=True)
class CountersSampled(ServingEvent):
    """One device iteration's typed counter vector was charged.

    ``counters`` holds canonical ``(name, value)`` pairs sorted by name
    (the :data:`repro.counters.report.COUNTER_NAMES` taxonomy), so the
    event is hashable like every other serving event and folds into a
    :class:`~repro.counters.report.CounterReport` without re-sorting.
    """

    counters: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class FaultInjected(ServingEvent):
    """A planned fault activated (``kind`` is the fault class name)."""

    kind: str
    channel: Optional[int] = None


@dataclass(frozen=True)
class NodeDegraded(ServingEvent):
    """A channel entered a degradation window (derate and/or stall)."""

    channel: int
    factor: float
    stall_cycles: float


@dataclass(frozen=True)
class RequestTimedOut(ServingEvent):
    """A running request exceeded its deadline (``attempt`` so far)."""

    request_id: int
    attempt: int


@dataclass(frozen=True)
class RequestRetried(ServingEvent):
    """A timed-out/KV-starved request was re-admitted with backoff."""

    request_id: int
    attempt: int
    next_arrival: float


@dataclass(frozen=True)
class RequestShed(ServingEvent):
    """A waiting request was shed after ``waited`` cycles unadmitted."""

    request_id: int
    waited: float


@dataclass(frozen=True)
class NodeMarkedDown(ServingEvent):
    """The router convicted a fleet node after ``failures`` failed probes."""

    node: int
    failures: int


@dataclass(frozen=True)
class NodeRecovered(ServingEvent):
    """A downed node passed its post-cooldown probe and rejoined."""

    node: int
    down_for: float


@dataclass(frozen=True)
class RequestFailedOver(ServingEvent):
    """A request left a downed node and was re-dispatched elsewhere.

    ``to_node`` is ``-1`` while no healthy node exists (the request is
    parked in the router queue and re-dispatched on recovery);
    ``restore_cycles`` is the recompute cost re-basing its arrival.
    """

    request_id: int
    from_node: int
    to_node: int
    restore_cycles: float


@dataclass(frozen=True)
class FleetShedding(ServingEvent):
    """The router shed a request (node ``-1``, status ``shed``).

    At dispatch, the fleet's KV pressure reached the admission
    watermark: ``pressure`` is the summed length of the per-node
    ``KvPressure`` logs after pruning to the pressure window.  At the
    closeout sweep (a request still stuck when the fleet drained) it is
    the same sum without a fresh prune: the events kept at the last
    dispatch plus any logged after it.
    """

    request_id: int
    pressure: int


__all__ = [
    "CountersSampled",
    "FaultInjected",
    "FleetShedding",
    "IterationCompleted",
    "KvPressure",
    "NodeDegraded",
    "NodeMarkedDown",
    "NodeRecovered",
    "RequestAdmitted",
    "RequestFailedOver",
    "RequestRetired",
    "RequestRetried",
    "RequestShed",
    "RequestTimedOut",
    "ServingEvent",
    "WindowCommitted",
]
