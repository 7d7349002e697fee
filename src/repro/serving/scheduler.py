"""Iteration-level scheduling with selective batching (Orca-style).

The serving loop operates at iteration boundaries (paper §2.2): before
each generation iteration, finished requests leave the batch and waiting
requests are admitted — subject to the batch-size cap and to KV-cache
capacity on their assigned channel (paged allocation).  Within an
iteration, QKV generation and FFN layers are batched while MHA is computed
per request (*selective batching*).

The scheduler is device-agnostic: a ``BatchExecutor`` maps the current
batch to an iteration latency, and the scheduler advances request states.
This is how the same serving loop drives NeuPIMs and every baseline.

Every iteration starts at a boundary: finished requests retire, waiting
ones are admitted, and (with a resilience runtime) faults, deadlines and
shedding act.  Under grouping, that iteration and the steady-state ones
after it commit through the class engine as one window
(:mod:`repro.serving.grouping`).

Everything that happens to an iteration's latency after the device
returns it — fault penalties and owed restore cycles, an optional
latency hook (fleet node degrades), the latency tracker's clock and
per-request timestamps, the record and the ``IterationCompleted`` event
— is one epilogue shared by the per-request and the class-grouped path
(:meth:`IterationScheduler._charge` / :meth:`IterationScheduler._commit`),
so the executor is the bare device call and nothing wraps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.serving.events import (FaultInjected, IterationCompleted,
                                  KvPressure, NodeDegraded,
                                  RequestAdmitted, RequestRetired,
                                  RequestRetried, RequestShed,
                                  RequestTimedOut, WindowCommitted)
from repro.serving.grouping import ClassTable, GroupedExecutor
from repro.serving.paging import OutOfMemoryError, PagedKvAllocator
from repro.serving.pool import RequestPool
from repro.serving.request import DONE, RUNNING, WAITING, InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.binpack import ChannelLoadTracker
    from repro.faults.resilience import ResilienceRuntime
    from repro.serving.latency import LatencyTracker
    from repro.sim.events import EventBus

#: Maps the generation batch to the latency (cycles) of one iteration.
BatchExecutor = Callable[[Sequence[InferenceRequest]], float]

#: Assigns channels to newly admitted requests (e.g. Algorithm 2).
ChannelAssigner = Callable[[Sequence[InferenceRequest]], None]

#: Maps ``(iteration start time, latency)`` to the latency charged.
LatencyHook = Callable[[float, float], float]


@dataclass
class IterationRecord:
    """Bookkeeping for one executed iteration."""

    index: int
    start_time: float
    latency: float
    batch_size: int
    tokens_generated: int
    admitted: int
    retired: int

    @property
    def end_time(self) -> float:
        return self.start_time + self.latency


@dataclass
class ServingStats:
    """Aggregates over a serving run."""

    iterations: List[IterationRecord] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.iterations[-1].end_time if self.iterations else 0.0

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens_generated for r in self.iterations)

    def throughput_tokens_per_second(self, clock_hz: float = 1e9) -> float:
        """Generation throughput; cycles are converted at ``clock_hz``."""
        if self.total_time <= 0:
            return 0.0
        return self.total_tokens / (self.total_time / clock_hz)


class IterationScheduler:
    """Drives the iteration-level serving loop.

    Parameters
    ----------
    pool:
        Request pool receiving submissions.
    executor:
        Device model that runs one generation iteration.
    max_batch_size:
        Cap on concurrently running requests.
    allocators:
        Optional per-channel paged KV allocators for admission control;
        when present, a request is only admitted if its prompt KV fits,
        and every generated token grows its allocation.
    assign_channels:
        Channel-assignment policy invoked on newly admitted requests
        (NeuPIMs: greedy min-load bin packing; baseline: round robin).
    load_tracker:
        Optional :class:`~repro.core.binpack.ChannelLoadTracker` kept live
        across iterations: admitted requests are added, growing contexts
        refreshed (one tracker-wide shift per grouped window) and retired
        requests removed, so admission-time bin packing starts from
        up-to-date per-channel loads without re-estimating the whole
        resident set each iteration.
    grouped:
        The equivalence-class engine.  With a
        :class:`~repro.serving.grouping.GroupedExecutor`, every iteration
        commits through it once the boundary (resilience, retirement,
        admission) has acted: the boundary iteration is the first step of
        a window, which then continues while no boundary is due (no class
        finishes, no arrival for free batch space, no resilience boundary).
        The iteration latency comes from the class plan of the live
        :class:`~repro.serving.grouping.ClassTable` (which the pool keeps
        current across windows, so a boundary costs its delta) plus a
        uniform seq_len shift, request objects are left untouched while
        the window runs, and paged-KV growth, load tracking and latency
        bookkeeping cost O(classes) or O(1) per window.  What stays per
        request is boundary work (admission, retirement, departures) and
        each member's token count at window close.  Only an iteration
        whose batched KV growth does not fit, or one where the resilience
        runtime allows no window, runs per request.  A window closes (its
        deferred state written back) inside the :meth:`run_iteration` call
        that opened it, so callers may inspect the pool, requests,
        allocators and trackers after any call.  Because the per-request
        path computes latencies from the same class histograms, records
        and aggregates are bit-identical between modes.  ``None`` (the
        default; the session passes it for serving ``grouping="off"``)
        never groups: the per-request reference.
    latency_tracker:
        Optional :class:`~repro.serving.latency.LatencyTracker`.  The
        scheduler advances its clock by every charged iteration latency
        (both paths), records each request's first iteration when it
        joins the batch and stamps its completion when it leaves; pass
        the bare device executor, not a wrapped one.
    latency_hook:
        Optional ``(start_time, latency) -> latency`` applied to every
        iteration on both paths, after the fault penalties and before
        the latency tracker sees the result (the fleet router's node
        degrades).  Because grouped windows go through the same hook,
        it does not stand the grouped fast path down.
    events:
        Optional :class:`~repro.sim.events.EventBus` receiving the
        typed serving events of :mod:`repro.serving.events`.  Every
        emission is guarded by ``events.active``, so a bus with no
        subscribers costs one branch per site and constructs nothing
        (the zero-overhead contract the observer bench gates).
    resilience:
        Optional :class:`~repro.faults.resilience.ResilienceRuntime`
        enabling fault injection and the resilience mechanisms: at each
        iteration boundary the scheduler polls the fault plan, aborts
        victims, times out running requests past their deadline
        (retrying them through the preemption restore machinery while
        the budget lasts) and sheds waiting requests past the shedding
        window; every iteration is charged the runtime's fault latency
        penalties and owed restore cycles.  ``None`` (the default) keeps
        every fault branch to a single ``is not None`` check.  Grouped
        windows run with a runtime attached: each stops before the
        first iteration at which one of these boundaries would act (see
        :meth:`~repro.faults.resilience.ResilienceRuntime.window_guard`).
    """

    def __init__(
        self,
        pool: RequestPool,
        executor: BatchExecutor,
        max_batch_size: int,
        allocators: Optional[List[PagedKvAllocator]] = None,
        assign_channels: Optional[ChannelAssigner] = None,
        load_tracker: Optional["ChannelLoadTracker"] = None,
        grouped: Optional[GroupedExecutor] = None,
        latency_tracker: Optional["LatencyTracker"] = None,
        events: Optional["EventBus"] = None,
        resilience: Optional["ResilienceRuntime"] = None,
        latency_hook: Optional[LatencyHook] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.pool = pool
        self.executor = executor
        self.max_batch_size = max_batch_size
        self.allocators = allocators
        self.assign_channels = assign_channels
        self.load_tracker = load_tracker
        self.grouped = grouped
        self.latency_tracker = latency_tracker
        self.events = events
        self.resilience = resilience
        self.latency_hook = latency_hook
        #: The live class table of the running batch (grouping only),
        #: fed by the pool on every move into or out of ``RUNNING``.
        self.table: Optional[ClassTable] = None
        if grouped is not None:
            self.table = ClassTable(pool, allocators)
        self.stats = ServingStats()
        #: Terminal outcome per retired request id (``completed`` /
        #: ``timed_out`` / ``shed`` / ``aborted``).
        self.outcomes: Dict[int, str] = {}
        #: KV blocks of every request context that has left this stack
        #: (retired, terminated or released), sized when it left; the
        #: departed part of the typed ``kv.page_churn`` counter.
        self.kv_page_churn = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------

    def _admit(self) -> int:
        """Admit waiting requests at the iteration boundary.

        The scan is bucket-cheap: batch occupancy is a counter and the
        arrived-waiting slice is a prefix cut of the pool's cached
        arrival-sorted view, so a full batch or an empty waiting queue
        costs O(1) rather than a rescan of every pooled request.
        """
        space = self.max_batch_size - self.pool.running_count()
        admitted = 0
        if space <= 0:
            return 0
        candidates = self.pool.waiting(self._now)[:space]
        newly: List[InferenceRequest] = []
        for request in candidates:
            channel = request.channel
            if self.allocators is not None and channel is not None:
                if not self.allocators[channel].can_allocate(
                        request.request_id, request.seq_len):
                    continue
            newly.append(request)
        if self.assign_channels is not None and newly:
            self.assign_channels(newly)
        resilience = self.resilience
        injector = resilience.injector if resilience is not None else None
        for request in newly:
            channel = request.channel if request.channel is not None else 0
            if self.allocators is not None:
                if injector is not None and \
                        injector.kv_blocked(self._now, channel):
                    # The channel's KV pool is inside a fault window:
                    # treat exactly like allocator pressure (the request
                    # stays pooled and re-candidates next boundary).
                    request.channel = None
                    continue
                try:
                    self.allocators[channel].allocate(
                        request.request_id, request.seq_len)
                except OutOfMemoryError:
                    request.channel = None
                    continue
            request.channel = channel
            self.pool.transition(request, RUNNING)
            if self.load_tracker is not None:
                self.load_tracker.add(request)
            if resilience is not None and resilience.preempting is not None:
                # Re-admission of a preempted retry owes its restore
                # cost (swap/recompute) to the next iteration.
                cost = resilience.preempting.restore_cost(
                    request.request_id)
                if cost:
                    resilience.charge(cost)
            admitted += 1
            events = self.events
            if events is not None and events.active:
                events.emit(RequestAdmitted(time=self._now,
                                            request_id=request.request_id,
                                            channel=channel))
        return admitted

    def _retire(self) -> int:
        """Remove finished requests and free their KV blocks."""
        if not self.pool.has_finished():
            return 0
        done = self.pool.retire_finished()
        for request in done:
            if self.latency_tracker is not None:
                self.latency_tracker.note_completion(request.request_id)
            if self.allocators is not None:
                self.kv_page_churn += self.allocators[0].blocks_for(
                    request.seq_len)
                if request.channel is not None:
                    self.allocators[request.channel].release(
                        request.request_id)
            if self.load_tracker is not None:
                self.load_tracker.remove(request)
            self.outcomes[request.request_id] = "completed"
            events = self.events
            if events is not None and events.active:
                events.emit(RequestRetired(time=self._now,
                                           request_id=request.request_id))
        return len(done)

    def flush_finished(self) -> int:
        """Retire finished requests *now* (a router/failover hook).

        Identical to the retirement performed at the next iteration
        boundary; exposed so the fleet router can settle a node's
        genuinely completed requests before extracting the rest for
        failover.
        """
        return self._retire()

    def release_request(self, request: InferenceRequest) -> None:
        """Detach ``request`` from this node's stack without an outcome.

        The failover extraction path: frees the KV allocation, drops the
        load-tracker contribution, evicts from the pool (after which this
        pool's :meth:`~repro.serving.pool.RequestPool.transition` rejects
        it) and resets it to a channel-less ``WAITING`` state, written as
        a plain field since no pool holds the request any more.  Unlike
        :meth:`_terminate` no terminal outcome is recorded — the request
        lives on, on some other node.
        """
        self._detach(request)
        resilience = self.resilience
        if resilience is not None and resilience.preempting is not None:
            resilience.preempting.preempted.pop(request.request_id, None)
        request.status = WAITING
        request.channel = None

    def _detach(self, request: InferenceRequest) -> None:
        """Drop ``request``'s KV, load-tracker, pool and retry state
        (stamping its completion if it was running)."""
        rid = request.request_id
        if self.latency_tracker is not None:
            self.latency_tracker.note_completion(rid)
        if self.load_tracker is not None and \
                request.status is RUNNING:
            self.load_tracker.remove(request)
        if self.allocators is not None:
            self.kv_page_churn += self.allocators[0].blocks_for(
                request.seq_len)
            if request.channel is not None:
                self.allocators[request.channel].release(rid)
        self.pool.evict(rid)
        if self.resilience is not None:
            self.resilience.attempts.pop(rid, None)
            self.resilience.deadline_base.pop(rid, None)

    # ------------------------------------------------------------------
    # Resilience (deadlines, retries, shedding, fault windows).
    # ------------------------------------------------------------------

    def _terminate(self, request: InferenceRequest, outcome: str) -> None:
        """Remove ``request`` from the stack with terminal ``outcome``.

        Used for the non-completed exits (``timed_out`` / ``shed`` /
        ``aborted``): releases any KV allocation, detaches from the load
        tracker, evicts from the pool and records the outcome.
        """
        rid = request.request_id
        self._detach(request)
        self.resilience.counters[outcome] += 1
        self.outcomes[rid] = outcome
        events = self.events
        if events is not None and events.active:
            events.emit(RequestRetired(time=self._now, request_id=rid,
                                       status=outcome))

    def _retry_request(self, request: InferenceRequest) -> bool:
        """Preempt ``request`` and re-admit it later with backoff.

        Returns ``False`` when the retry budget is exhausted (the caller
        then applies its terminal handling).  Reuses the preemption
        restore machinery: KV blocks are released through the
        :class:`~repro.serving.preemption.PreemptingAllocatorPool`,
        which records the swap/recompute restoration cost charged to the
        iteration that re-admits the request.  Generation progress is
        kept — the restore cost is what models recovering it.
        """
        resilience = self.resilience
        rid = request.request_id
        attempt = resilience.attempts.get(rid, 0) + 1
        if attempt > resilience.serving.max_retries:
            return False
        if self.latency_tracker is not None:
            self.latency_tracker.note_completion(rid)
        if self.load_tracker is not None and \
                request.status is RUNNING:
            self.load_tracker.remove(request)
        self.pool.evict(rid)
        if resilience.preempting is not None and \
                request.channel is not None:
            resilience.preempting.preempt(request)
        # Evicted, so the demotion is a plain field write; the resubmit
        # below files the request under WAITING.
        request.status = WAITING
        request.channel = None
        resilience.attempts[rid] = attempt
        arrival = self._now + resilience.retry_delay(attempt)
        request.arrival_time = arrival
        resilience.deadline_base[rid] = arrival
        self.pool.submit(request)
        resilience.counters["retries"] += 1
        events = self.events
        if events is not None and events.active:
            events.emit(RequestRetried(time=self._now, request_id=rid,
                                       attempt=attempt,
                                       next_arrival=arrival))
        return True

    def _resilient_boundary(self) -> None:
        """Fault activation, aborts, deadlines and shedding.

        Runs once per iteration boundary, only when a runtime is
        attached (the zero-overhead guard in :meth:`run_iteration` is a
        single ``is not None`` branch).
        """
        resilience = self.resilience
        now = self._now
        events = self.events
        live = events is not None and events.active
        injector = resilience.injector
        if injector is not None:
            for fault in injector.poll(now):
                resilience.counters["faults"] += 1
                if live:
                    channel = getattr(fault, "channel", None)
                    events.emit(FaultInjected(time=now,
                                              kind=fault.describe(),
                                              channel=channel))
                    factor = getattr(fault, "factor", None)
                    stall = getattr(fault, "stall_cycles", None)
                    if factor is not None or stall is not None:
                        events.emit(NodeDegraded(
                            time=now, channel=channel,
                            factor=factor if factor is not None else 1.0,
                            stall_cycles=stall if stall is not None
                            else 0.0))
            for victim in injector.take_aborts(now, self.pool.running()):
                self._terminate(victim, "aborted")
        serving = resilience.serving
        if serving.deadline_cycles is not None:
            deadline = serving.deadline_cycles
            for request in self.pool.running():
                rid = request.request_id
                base = resilience.deadline_base.get(rid,
                                                    request.arrival_time)
                if now - base > deadline:
                    resilience.counters["timeouts"] += 1
                    if live:
                        events.emit(RequestTimedOut(
                            time=now, request_id=rid,
                            attempt=resilience.attempts.get(rid, 0)))
                    if not self._retry_request(request):
                        self._terminate(request, "timed_out")
        if serving.shed_wait_cycles is not None:
            shed_wait = serving.shed_wait_cycles
            for request in self.pool.waiting(now):
                waited = now - request.arrival_time
                if waited > shed_wait:
                    if live:
                        events.emit(RequestShed(
                            time=now, request_id=request.request_id,
                            waited=waited))
                    self._terminate(request, "shed")

    # ------------------------------------------------------------------
    # Iteration epilogue (shared by both paths).
    # ------------------------------------------------------------------

    def _charge(self, latency: float,
                batch: Sequence[InferenceRequest]) -> Tuple[float, float]:
        """The charged latency and end time of the iteration starting now.

        Adds the resilience runtime's fault penalties on ``batch``'s
        channels and owed restore cycles, applies the latency hook, and
        advances the latency tracker's clock.
        """
        now = self._now
        if self.resilience is not None:
            latency = self.resilience.apply(now, latency, batch)
        if self.latency_hook is not None:
            latency = self.latency_hook(now, latency)
        if latency <= 0:
            raise ValueError("executor returned non-positive latency")
        if self.latency_tracker is not None:
            return latency, self.latency_tracker.advance_clock(latency)
        return latency, now + latency

    def _commit(self, latency: float, batch_size: int, admitted: int = 0,
                retired: int = 0) -> IterationRecord:
        """Record the iteration, advance the clock and publish it."""
        record = IterationRecord(
            index=len(self.stats.iterations),
            start_time=self._now,
            latency=latency,
            batch_size=batch_size,
            tokens_generated=batch_size,
            admitted=admitted,
            retired=retired,
        )
        self.stats.iterations.append(record)
        self._now += latency
        events = self.events
        if events is not None and events.active:
            events.emit(IterationCompleted(time=record.end_time,
                                           record=record))
        return record

    # ------------------------------------------------------------------
    # Class-grouped fast path.
    # ------------------------------------------------------------------

    def sync_grouped(self, table: ClassTable) -> None:
        """Close a grouped window: write its deferred state back.

        Runs before the :meth:`run_iteration` call that opened the
        window returns, so no deferred state outlives the call.
        """
        events = self.events
        if events is not None and events.active:
            events.emit(WindowCommitted(time=self._now,
                                        iterations=table.shift))
        table.sync(self.pool, self.allocators, self.load_tracker)

    def _grouped_steps(self, batch: List[InferenceRequest], admitted: int,
                       retired: int, max_steps: int,
                       until: float) -> Optional[IterationRecord]:
        """Commit up to ``max_steps`` iterations through the class engine.

        The boundary has already acted on ``batch``, so the first
        iteration is not checked for a due boundary; its record carries
        the boundary's ``admitted``/``retired`` counts.  Later iterations
        commit while they start before ``until`` and no boundary is due:
        no class finishes, no waiting request arrives for free batch
        space, no resilience boundary would act.  Returns the last
        committed record, or ``None`` when the per-request path — whose
        arithmetic is identical — must run the first iteration: no
        window may open under the resilience state, or a channel lacks
        the KV blocks for the batched growth.  The window opens and
        closes inside this call.
        """
        due = None
        if self.resilience is not None:
            due = self.resilience.window_guard(self._now, batch, self.pool)
            if due is None:
                return None
        allocators = self.allocators
        table = self.table
        table.open(batch)
        plan = self.grouped.prepare(table)
        # An arrived waiting request (with batch space) ends the window
        # even if admission would reject it: an admission *attempt* has
        # observable side effects (the round-robin cursor advances,
        # greedy placement reads the live channel loads), so
        # pre-screening admissibility would diverge from the per-request
        # path.
        space = self.max_batch_size - len(batch)
        last: Optional[IterationRecord] = None
        for _ in range(max_steps):
            if table.steps_until_finish() <= 0:
                break
            if last is not None and (
                    self._now >= until
                    or (due is not None and due(self._now))
                    or (space > 0
                        and self.pool.has_waiting_arrived(self._now))):
                break
            need: Dict[int, int] = {}
            if allocators is not None:
                need = table.block_need()
                if any(allocators[channel].free_blocks < blocks
                       for channel, blocks in need.items()):
                    # Not enough KV for the batched growth: the
                    # per-request path owns this iteration, including its
                    # exact mid-generation OOM semantics and their
                    # KvPressure reports.
                    break
            latency, end = self._charge(
                self.grouped.run(plan, table.shift), batch)
            for channel, blocks in need.items():
                allocators[channel].bulk_reserve(blocks)
            table.advance()
            if last is None and self.latency_tracker is not None:
                self.latency_tracker.observe_batch(batch, end)
            last = self._commit(latency, len(batch), admitted, retired)
            admitted = retired = 0
        if last is not None:
            self.sync_grouped(table)
        return last

    def run_iteration(self, max_steps: int = 1,
                      until: Optional[float] = None
                      ) -> Optional[IterationRecord]:
        """Execute one iteration; returns ``None`` when nothing is runnable.

        Every call first acts on the iteration boundary (resilience,
        retirement, admission); when the batch is empty but requests are
        still due to arrive, the scheduler idles forward to the earliest
        arrival time.  Under grouping the iteration then runs as the
        first step of a window, and up to ``max_steps`` iterations may
        commit in the call (group-commit), each after the first only if
        it starts before ``until`` and no boundary is due; the returned
        record is the last one, and every request, allocator and tracker
        is up to date on return.
        """
        resilience = self.resilience
        if resilience is not None:
            self._resilient_boundary()
        retired = self._retire()
        admitted = self._admit()
        batch = self.pool.running()
        if not batch:
            pending = self.pool.next_arrival()
            if pending is None:
                return None
            self._now = max(self._now, pending.arrival_time)
            if self.latency_tracker is not None:
                self.latency_tracker.sync_clock(self._now)
            admitted += self._admit()
            batch = self.pool.running()
            if not batch:
                return None
        if self.grouped is not None:
            record = self._grouped_steps(
                batch, admitted, retired, max_steps,
                math.inf if until is None else until)
            if record is not None:
                return record
            # The per-request path advances members outside the table.
            self.table.invalidate()
        latency, end = self._charge(self.executor(batch), batch)
        if self.latency_tracker is not None:
            observe = self.latency_tracker.observe_running
            for request in batch:
                observe(request, end)
        for request in batch:
            request.advance(1)
            if request.is_finished:
                self.pool.transition(request, DONE)
            if self.load_tracker is not None:
                self.load_tracker.update(request)
            if self.allocators is not None and request.channel is not None:
                channel = request.channel
                try:
                    if resilience is not None and \
                            resilience.injector is not None and \
                            resilience.injector.kv_blocked(self._now,
                                                           channel):
                        raise OutOfMemoryError(
                            f"channel {channel} KV pool inside a fault "
                            f"window")
                    self.allocators[channel].allocate(
                        request.request_id, request.seq_len)
                except OutOfMemoryError:
                    free = self.allocators[channel].free_blocks
                    if resilience is not None and \
                            not request.is_finished and \
                            self._retry_request(request):
                        # Preempted and re-admitted later with backoff;
                        # the restore cost is charged on re-admission.
                        pass
                    else:
                        # Out of KV memory mid-generation: finish the
                        # request early (real systems would preempt/swap;
                        # the paper's experiments are sized to avoid
                        # this).
                        request.generated = request.output_len
                        self.pool.transition(request, DONE)
                    events = self.events
                    if events is not None and events.active:
                        events.emit(KvPressure(
                            time=self._now, channel=channel,
                            needed_blocks=1, free_blocks=free))
        return self._commit(latency, len(batch), admitted, retired)

    def run(self, max_iterations: int = 1_000_000) -> ServingStats:
        """Run until the pool drains or ``max_iterations`` is hit."""
        while len(self.stats.iterations) < max_iterations:
            budget = max_iterations - len(self.stats.iterations)
            if self.run_iteration(max_steps=budget) is None:
                break
        return self.stats
