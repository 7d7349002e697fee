"""The fleet router: lockstep node stepping, health probes, failover.

The :class:`Router` dispatches one fleet-level arrival stream across N
per-node :class:`~repro.api.session.Session` stacks, driving them in
lockstep through the PR-5 ``step()`` core: before each arrival every
node is advanced until its local clock reaches the arrival time, then a
pluggable :class:`~repro.cluster.policies.RoutingPolicy` picks the
target node and the request is submitted to that node's pool (nodes run
the ``"external"`` traffic kind, so the router is their only arrival
source).

When the fleet spec carries a ``fault_seed``, a pure-seeded
:class:`~repro.faults.injector.NodeFaultSchedule` drives the health
model: the router probes every node each ``probe_interval_cycles``;
``fail_threshold`` consecutive failed probes mark a node down (emitting
:class:`~repro.serving.events.NodeMarkedDown`) and trigger failover —
the node's in-flight and waiting requests are extracted through
:meth:`~repro.serving.scheduler.IterationScheduler.release_request`,
charged a recompute-based restore delay via the preemption cost model,
re-based to a fresh arrival/deadline and re-routed to surviving nodes
(:class:`~repro.serving.events.RequestFailedOver`).  A downed node
re-admits only after a successful probe past the cooldown
(half-open; :class:`~repro.serving.events.NodeRecovered`).  With a
``shed_watermark`` set, the router also sheds new arrivals while the
fleet's recent ``KvPressure`` events (one log per node) cross the
watermark (:class:`~repro.serving.events.FleetShedding`).

Everything is deterministic per (fleet spec, fault seed): probes fire
at fixed multiples of the interval, the schedule is pure (no cursors),
and node stepping order is resolved by (next-event time, node index).
A single-node fleet with round-robin routing and no fault plan produces
request records bit-identical to running the node's
:class:`~repro.api.spec.ScenarioSpec` through a plain ``Session`` —
the probe machinery is entirely absent without a fault plan.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.api.session import Session, aggregate_resilience
from repro.api.spec import TrafficSpec
from repro.cluster.result import FleetResult
from repro.cluster.spec import FleetSpec
from repro.faults.injector import NodeFaultSchedule
from repro.faults.plan import make_node_fault_plan
from repro.registry import REGISTRY, thaw_options
from repro.serving.events import (FleetShedding, KvPressure, NodeMarkedDown,
                                  NodeRecovered, RequestFailedOver)
from repro.serving.latency import LatencyReport, RequestLatency
from repro.serving.preemption import PreemptionCosts
from repro.serving.request import InferenceRequest
from repro.sim.events import EventBus

__all__ = ["NodeHandle", "Router"]

#: Hard stop for the drain loop — far above any real fleet's step count,
#: so a wiring bug surfaces as an error instead of a hang.
_DRAIN_GUARD = 10_000_000


@dataclass
class NodeHandle:
    """Router-side state for one fleet node.

    ``down`` tracks the health verdict (probe-driven); ``stalled`` marks
    a node whose scheduler returned "nothing runnable" while requests
    were still pooled (KV starvation) — it is skipped by the stepping
    loop until a new submission clears the flag, and anything still
    stuck at the end of the run is router-shed to preserve request
    conservation.
    """

    index: int
    session: Session
    down: bool = False
    stalled: bool = False
    consecutive_failures: int = 0
    last_fail: float = 0.0
    down_since: float = 0.0
    #: cached `Router._next_time` value; valid until the node's sim
    #: state changes (step, failover extraction) — dispatches update it
    #: incrementally, keeping the per-arrival routing loop O(1) per node
    next_hint: Optional[float] = None
    hint_valid: bool = False
    #: hot references resolved once at materialization so the
    #: per-arrival dispatch path skips the session attribute chains
    pool: Any = None
    scheduler: Any = None
    max_iterations: int = 0


class Router:
    """Dispatches one arrival stream across a health-checked fleet.

    Construction only stores the :class:`~repro.cluster.spec.FleetSpec`;
    :meth:`materialize` builds the per-node sessions, the routing policy
    (a ``router`` registry component) and the optional seeded node-fault
    schedule; :meth:`run` executes the stream and caches the
    :class:`~repro.cluster.result.FleetResult`.  Fleet-level typed
    events (node health, failover, shedding) publish on :attr:`events`
    with the usual zero-overhead-when-unsubscribed guard.
    """

    def __init__(self, fleet: FleetSpec) -> None:
        self.fleet = fleet
        #: fleet-level typed events (node health, failover, shedding)
        self.events = EventBus()
        #: optional cap on per-call group-commit budgets (``1`` forces
        #: pure step-by-step draining); results are bit-identical for
        #: any value — the chunking-equivalence invariant the fleet
        #: chaos harness pins across its ``batch | stream`` modes
        self.max_group_steps: Optional[int] = None
        self.handles: List[NodeHandle] = []
        self.stream: Tuple[InferenceRequest, ...] = ()
        #: pure-seeded node fault schedule (``None`` without a seed)
        self.schedule: Optional[NodeFaultSchedule] = None
        self.policy = None
        #: requests awaiting re-dispatch while no node is healthy
        self._queue: Deque[InferenceRequest] = deque()
        #: router-level terminal outcomes (watermark/stuck sheds)
        self._outcomes: Dict[int, str] = {}
        self._failed_over = 0
        #: cached healthy-index list, dropped on any health transition
        self._healthy_view: Optional[List[int]] = None
        self._node_log: List[Dict[str, Any]] = []
        #: recent KvPressure event times, one time-ordered log per node
        self._pressure: List[Deque[float]] = []
        self._next_probe = fleet.health.probe_interval_cycles
        self._probing_done = False
        self._materialized = False
        self._result: Optional[FleetResult] = None

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------

    def materialize(self) -> "Router":
        """Build the node sessions, policy and fault schedule (idempotent)."""
        if self._materialized:
            return self
        fleet = self.fleet
        workload = REGISTRY.create("traffic", fleet.traffic.kind,
                                   fleet.traffic)
        self.stream = tuple(sorted(
            workload.arrivals, key=attrgetter("arrival_time", "request_id")))
        if fleet.fault_seed is not None:
            plan = make_node_fault_plan(fleet.fault_seed, fleet.num_nodes,
                                        **thaw_options(fleet.fault_options))
            self.schedule = NodeFaultSchedule(plan)
        self.policy = REGISTRY.create("router", fleet.policy,
                                      fleet.num_nodes,
                                      **thaw_options(fleet.policy_options))
        for index, node_spec in enumerate(fleet.nodes):
            spec = node_spec.override(traffic=TrafficSpec(kind="external"))
            session = Session(spec)
            if self.schedule is not None and self.schedule.degrades(index):
                session.latency_hook = self._degrade_hook(index)
            session.materialize()
            self.handles.append(NodeHandle(
                index=index, session=session,
                pool=session.pool, scheduler=session.scheduler,
                max_iterations=spec.serving.max_iterations))
            if fleet.shed_watermark is not None:
                log: Deque[float] = deque()
                self._pressure.append(log)
                session.events.subscribe(
                    KvPressure, lambda event, log=log: log.append(event.time))
        self._materialized = True
        return self

    def _degrade_hook(self, index: int) -> Callable[[float, float], float]:
        """The node's latency hook applying its degrade derate.

        The scheduler applies it to every iteration before the latency
        tracker sees it, so the extra cycles move the latency clock
        exactly like device cycles.  The factor is read from the
        schedule at each iteration's start time, so half-open degrade
        windows start and stop mid-run.
        """
        schedule = self.schedule

        def derate(now: float, latency: float) -> float:
            return latency * schedule.degrade_factor(now, index)
        return derate

    # ------------------------------------------------------------------
    # Lockstep stepping.
    # ------------------------------------------------------------------

    def _next_time(self, handle: NodeHandle) -> Optional[float]:
        """When the node can next make progress (``None`` = idle/capped).

        A node with running (or retiring) work continues at its own
        clock; one with only waiting requests resumes at the earliest
        arrival; an empty or iteration-capped node reports ``None``.
        """
        scheduler = handle.scheduler
        if len(scheduler.stats.iterations) >= handle.max_iterations:
            return None
        pool = handle.pool
        if pool.running_count() or pool.has_finished():
            return scheduler.now
        pending = pool.next_arrival()
        if pending is None:
            return None
        return max(scheduler.now, pending.arrival_time)

    def _cached_next_time(self, handle: NodeHandle) -> Optional[float]:
        """Memoized :meth:`_next_time` (recomputed only after changes).

        ``_next_time`` builds the pool's sorted waiting view; calling it
        per node per arrival would re-sort after every dispatch (the
        view cache is invalidated by ``submit``), turning the routing
        loop quadratic.  The hint is invalidated on steps and failover
        extraction and updated in O(1) by :meth:`_route`.
        """
        if not handle.hint_valid:
            handle.next_hint = self._next_time(handle)
            handle.hint_valid = True
        return handle.next_hint

    def _step_node(self, handle: NodeHandle, until: Optional[float]) -> None:
        """Advance one node; ``None`` from the core marks it stalled.

        The one stepping rule, in every phase: the call may group-commit
        the node's remaining iteration budget (capped by
        :attr:`max_group_steps`), and ``until`` is the next arrival or
        probe — iterations after the first commit only while they start
        before it, exactly the ones single-iteration steps would have
        run before the router next reads or changes node state.  Between
        those times nodes are independent (the shed watermark reads
        per-node pressure logs), so stepping order cannot matter.
        """
        budget = handle.max_iterations - len(handle.scheduler.stats.iterations)
        if self.max_group_steps is not None:
            budget = min(budget, self.max_group_steps)
        record = handle.session.step(max_steps=max(1, budget), until=until)
        handle.hint_valid = False
        if record is None:
            handle.stalled = True

    def _earliest_node(self, bound: float) -> Optional[NodeHandle]:
        """The steppable node with the smallest next time below ``bound``.

        Down and stalled nodes are skipped; ties go to the lower index.
        """
        best: Optional[NodeHandle] = None
        for handle in self.handles:
            if handle.down or handle.stalled:
                continue
            next_time = self._cached_next_time(handle)
            if next_time is not None and next_time < bound:
                best, bound = handle, next_time
        return best

    def _advance_nodes(self, until: float) -> None:
        """Step nodes (earliest next event first) until all reach ``until``."""
        best = self._earliest_node(until)
        while best is not None:
            self._step_node(best, until)
            best = self._earliest_node(until)

    # ------------------------------------------------------------------
    # Health model.
    # ------------------------------------------------------------------

    def _healthy(self) -> List[int]:
        """Indices of nodes currently accepting traffic (cached).

        Health only changes in :meth:`_mark_down` / :meth:`_mark_up`,
        which drop the cache; callers (and policies) must treat the
        returned list as read-only.
        """
        if self._healthy_view is None:
            self._healthy_view = [h.index for h in self.handles
                                  if not h.down]
        return self._healthy_view

    def _next_probe_time(self) -> Optional[float]:
        """When the next health probe fires (``None`` once pointless).

        Probes fire at fixed multiples of the probe interval (fleet
        wall-clock), so their timing — and therefore every failover —
        is a pure function of (fleet spec, fault seed).  Once no node is
        down, nothing is queued and the next probe falls past the
        schedule's last fault, no probe can change anything: probing
        stops for good (zero steady-state overhead).
        """
        if self.schedule is None or self._probing_done:
            return None
        if self._next_probe > self.schedule.last_end and not self._queue \
                and not any(h.down for h in self.handles):
            self._probing_done = True
            return None
        return self._next_probe

    def _process_probes(self, limit: float) -> None:
        """Run every pending health probe at or before ``limit``."""
        while True:
            probe_time = self._next_probe_time()
            if probe_time is None or probe_time > limit:
                return
            self._next_probe += self.fleet.health.probe_interval_cycles
            self._probe(probe_time)

    def _probe(self, probe_time: float) -> None:
        """Probe every node once; apply threshold/cooldown transitions."""
        threshold = self.fleet.health.fail_threshold
        cooldown = self.fleet.health.cooldown_cycles
        for handle in self.handles:
            if self.schedule.down(probe_time, handle.index):
                handle.consecutive_failures += 1
                handle.last_fail = probe_time
                if not handle.down and \
                        handle.consecutive_failures >= threshold:
                    self._mark_down(handle, probe_time)
            elif handle.down:
                if probe_time >= handle.last_fail + cooldown:
                    self._mark_up(handle, probe_time)
            else:
                handle.consecutive_failures = 0

    def _mark_down(self, handle: NodeHandle, probe_time: float) -> None:
        """Take a node out of rotation and fail over its requests."""
        handle.down = True
        handle.down_since = probe_time
        handle.stalled = False
        self._healthy_view = None
        if self.events.active:
            self.events.emit(NodeMarkedDown(
                time=probe_time, node=handle.index,
                failures=handle.consecutive_failures))
        self._node_log.append({
            "event": "down", "time": probe_time, "node": handle.index,
            "failures": handle.consecutive_failures})
        self._failover_node(handle, probe_time)

    def _mark_up(self, handle: NodeHandle, probe_time: float) -> None:
        """Re-admit a recovered node and flush the waiting queue."""
        handle.down = False
        handle.consecutive_failures = 0
        handle.stalled = False
        self._healthy_view = None
        if self.events.active:
            self.events.emit(NodeRecovered(
                time=probe_time, node=handle.index,
                down_for=probe_time - handle.down_since))
        self._node_log.append({
            "event": "recovered", "time": probe_time, "node": handle.index,
            "down_for": probe_time - handle.down_since})
        self._flush_queue(probe_time)

    def _failover_node(self, handle: NodeHandle, probe_time: float) -> None:
        """Extract a downed node's pooled requests and re-dispatch them.

        Requests leave through the scheduler's
        ``release_request`` (KV freed, load-tracker dropped, evicted from
        the pool) and re-enter the fleet with a re-based arrival: the
        failover time plus a recompute-based restore delay for any
        generation progress (the same cost model the preemption/restore
        machinery charges).  Deadlines re-base automatically — the
        target node's resilience runtime falls back to arrival time.
        """
        scheduler = handle.scheduler
        costs = PreemptionCosts()
        for request in self._release_pooled(handle):
            restore = (request.seq_len * costs.recompute_cycles_per_token
                       if request.generated > 0 else 0.0)
            request.arrival_time = max(probe_time, scheduler.now) + restore
            healthy = self._healthy()
            if healthy:
                to_node = self._route(request, probe_time, healthy)
            else:
                self._queue.append(request)
                to_node = -1
            self._failed_over += 1
            if self.events.active:
                self.events.emit(RequestFailedOver(
                    time=probe_time, request_id=request.request_id,
                    from_node=handle.index, to_node=to_node,
                    restore_cycles=restore))
            self._node_log.append({
                "event": "failover", "time": probe_time,
                "request_id": request.request_id,
                "from_node": handle.index, "to_node": to_node,
                "restore_cycles": restore})

    @staticmethod
    def _release_pooled(handle: NodeHandle) -> Iterator[InferenceRequest]:
        """Release a node's pooled requests, yielding them by request id.

        Finished requests retire first and the node's next-time hint is
        dropped; each request leaves through ``release_request`` just
        before it is yielded.
        """
        scheduler = handle.scheduler
        scheduler.flush_finished()
        handle.hint_valid = False
        pool = handle.pool
        for request in sorted(pool.running() + pool.waiting(),
                              key=attrgetter("request_id")):
            scheduler.release_request(request)
            yield request

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def _loads(self, now: float) -> List[float]:
        """Per-node load estimates for the routing policy.

        Channel-load rollups (from the node's ``ChannelLoadTracker``)
        when available, pooled request counts otherwise; nodes inside a
        degrade window are derated by the degrade factor so policies
        prefer full-speed peers.
        """
        loads: List[float] = []
        for handle in self.handles:
            session = handle.session
            if session.load_tracker is not None:
                load = float(sum(session.load_tracker.loads))
            else:
                pool = session.pool
                load = float(pool.running_count() + pool.waiting_count())
            if self.schedule is not None:
                load = (load + 1.0) * self.schedule.degrade_factor(
                    now, handle.index)
            loads.append(load)
        return loads

    def _route(self, request: InferenceRequest, now: float,
               healthy: List[int]) -> int:
        """Submit ``request`` to the policy's chosen healthy node."""
        load: Sequence[float] = \
            self._loads(now) if self.policy.uses_load else ()
        node = self.policy.choose(request.request_id, healthy, load)
        handle = self.handles[node]
        handle.pool.submit(request)
        # A stalled node may become steppable again once it has new work.
        handle.stalled = False
        if handle.hint_valid:
            # O(1) hint refresh mirroring `_next_time`: the new waiting
            # request can only move the node's next event earlier (the
            # iteration cap, if hit, keeps the node idle regardless).
            scheduler = handle.scheduler
            if len(scheduler.stats.iterations) < handle.max_iterations:
                candidate = scheduler.now
                if request.arrival_time > candidate:
                    candidate = request.arrival_time
                hint = handle.next_hint
                if hint is None or candidate < hint:
                    handle.next_hint = candidate
        return node

    def _dispatch(self, request: InferenceRequest, now: float) -> None:
        """Admit, shed or queue one fleet arrival."""
        rid = request.request_id
        if self.fleet.shed_watermark is not None:
            horizon = now - self.fleet.pressure_window_cycles
            for log in self._pressure:
                while log and log[0] < horizon:
                    log.popleft()
            pressure = sum(map(len, self._pressure))
            if pressure >= self.fleet.shed_watermark:
                self._outcomes[rid] = "shed"
                if self.events.active:
                    self.events.emit(FleetShedding(
                        time=now, request_id=rid, pressure=pressure))
                return
        healthy = self._healthy()
        if not healthy:
            self._queue.append(request)
            return
        self._route(request, now, healthy)

    def _flush_queue(self, now: float) -> None:
        """Re-dispatch queued requests while healthy nodes exist."""
        while self._queue:
            healthy = self._healthy()
            if not healthy:
                return
            self._route(self._queue.popleft(), now, healthy)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self) -> FleetResult:
        """Dispatch the stream, drain the fleet, return the merged result."""
        if self._result is not None:
            return self._result
        self.materialize()
        if self.schedule is None and self.fleet.shed_watermark is None \
                and not self.policy.uses_load:
            # Static fleet: no probes can fire, nothing sheds, and a
            # load-blind policy routes independently of node state, so
            # interleaving node stepping with dispatch cannot change
            # the outcome (chunking equivalence — the invariant the
            # fleet chaos harness pins).  Route the whole stream
            # upfront and let the drain run nodes at full budget; the
            # disabled-cluster path then costs one policy call and one
            # pool submit per request (no node has stepped yet, so
            # there is no stall flag or next-event hint to refresh).
            healthy = self._healthy()
            choose = self.policy.choose
            pools = [handle.pool for handle in self.handles]
            for request in self.stream:
                pools[choose(request.request_id, healthy, ())].submit(request)
        else:
            for request in self.stream:
                arrival = request.arrival_time
                self._process_probes(arrival)
                self._advance_nodes(arrival)
                self._dispatch(request, arrival)
        self._drain()
        self._result = self._build_result()
        return self._result

    def _drain(self) -> None:
        """Run the fleet to completion after the last arrival.

        Interleaves remaining probes (node recovery, late fault windows)
        with node stepping in event-time order; once probing is finished
        nodes drain on their full iteration budgets.  Ends with the
        conservation sweep: anything still stuck (stalled nodes, a queue
        with nobody healthy left) is router-shed so every admitted
        request reaches a terminal status.
        """
        guard = 0
        while True:
            guard += 1
            if guard > _DRAIN_GUARD:
                raise RuntimeError("fleet drain exceeded its step guard")
            probe_time = self._next_probe_time()
            best = self._earliest_node(
                math.inf if probe_time is None else probe_time)
            if best is not None:
                self._step_node(best, probe_time)
            elif probe_time is not None:
                self._process_probes(probe_time)
            elif self._queue and self._healthy():
                self._flush_queue(self._fleet_now())
            else:
                break
        self._final_sweep()

    def _final_sweep(self) -> None:
        """Shed anything still pooled or queued (conservation closeout)."""
        for handle in self.handles:
            for request in self._release_pooled(handle):
                self._shed_stuck(request, handle.scheduler.now)
        while self._queue:
            self._shed_stuck(self._queue.popleft(), self._fleet_now())

    def _fleet_now(self) -> float:
        """The latest node clock in the fleet."""
        return max(h.scheduler.now for h in self.handles)

    def _shed_stuck(self, request: InferenceRequest, now: float) -> None:
        """Record a router-level shed for one stuck request."""
        rid = request.request_id
        self._outcomes[rid] = "shed"
        if self.events.active:
            self.events.emit(FleetShedding(
                time=now, request_id=rid,
                pressure=sum(map(len, self._pressure))))
        self._node_log.append({"event": "stuck_shed", "time": now,
                               "request_id": rid})

    # ------------------------------------------------------------------
    # Result assembly.
    # ------------------------------------------------------------------

    def _build_result(self) -> FleetResult:
        """Merge per-node results into one :class:`FleetResult`."""
        node_results = tuple(h.session.result() for h in self.handles)
        statuses: List[Dict[str, Any]] = []
        counts = {"completed": 0, "timed_out": 0, "shed": 0, "aborted": 0}
        for node_index, result in enumerate(node_results):
            for record in result.requests:
                statuses.append({"request_id": record["request_id"],
                                 "status": record["status"],
                                 "node": node_index})
                counts[record["status"]] += 1
        for rid in sorted(self._outcomes):
            status = self._outcomes[rid]
            statuses.append({"request_id": rid, "status": status,
                             "node": -1})
            counts[status] += 1
        statuses.sort(key=itemgetter("request_id"))
        ledger = {"requests": len(self.stream), **counts,
                  "failed_over": self._failed_over,
                  "router_shed": len(self._outcomes)}
        completed = {s["request_id"] for s in statuses
                     if s["status"] == "completed"}
        # Merge per-node latency entries, keeping the record from the
        # node that last ran each request (failed-over requests measure
        # from their re-dispatch arrival — the restore re-base — not
        # from the original fleet arrival).  Without failover a request
        # has at most one entry fleet-wide, so the max-completion merge
        # reduces to a plain concatenation.
        best: Dict[int, RequestLatency] = {}
        for handle in self.handles:
            tracker = handle.session.latency_tracker
            if tracker is None:
                continue
            entries = tracker.report().requests
            if not self._failed_over:
                best.update({entry.request_id: entry for entry in entries})
                continue
            for entry in entries:
                prior = best.get(entry.request_id)
                if prior is None or \
                        entry.completion_time > prior.completion_time:
                    best[entry.request_id] = entry
        if len(self.handles) == 1 and not self._failed_over and \
                completed.issuperset(best):
            # Single node, nothing failed over, no entry filtered:
            # the merged summary is exactly the node's own (its
            # ``latency_ms`` came from the same tracker report).
            latency_summary = dict(node_results[0].latency_ms)
        else:
            report = LatencyReport()
            for rid in sorted(best):
                if rid in completed:
                    report.add(best[rid])
            latency_summary = report.summary()
        total_tokens = sum(r.total_tokens for r in node_results)
        makespan = max((r.total_time_cycles for r in node_results),
                       default=0.0)
        return FleetResult(
            policy=self.fleet.policy,
            nodes=node_results,
            statuses=tuple(statuses),
            ledger=ledger,
            total_tokens=int(total_tokens),
            makespan_cycles=makespan,
            tokens_per_second=(total_tokens / (makespan / 1e9)
                               if makespan > 0 else 0.0),
            latency_ms=latency_summary,
            resilience=aggregate_resilience(node_results),
            node_log=tuple(self._node_log),
            label=self.fleet.label,
        )
