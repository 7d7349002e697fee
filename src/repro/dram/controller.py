"""Per-channel memory controller with MEM/PIM command interleaving.

Paper §5.3: each PIM channel has its own memory controller holding separate
queues for regular memory read/write commands and PIM commands.  The
controller *prioritizes PIM commands* — their issuing delay is larger but
their C/A bandwidth share is small, so interleaving them first lets both
flows proceed without starving either.  It is also responsible for not
letting a refresh land in the middle of a GEMV: the ``PIM_HEADER`` command
announces the GEMV's dimensionality so the controller can compute its
duration and, if the GEMV would collide with the upcoming refresh deadline,
refresh *early* instead (the paper's stated purpose of PIM_HEADER).

Without headers (the baseline fine-grained command mode), a refresh may
preempt a GEMV mid-flight; the controller then charges the re-activation
penalty to the GEMV, which is one of the overheads the composite ISA
removes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import lcm
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.channel import Channel, IssueRecord
from repro.dram.commands import (BufferTarget, Command, CommandStream,
                                 CommandType)
from repro.sim.stats import StatsRegistry

#: Timing-relevant fields of a command: row and meta never affect timing
#: (rows cycle per wave, tags vary per request), so replay matches on these.
_shape = attrgetter("ctype", "bank", "banks", "k")


class CommandQueue:
    """FIFO of commands held as runs: ``(commands, total)``, the total
    counting every repetition of the command tuple.

    A :class:`~repro.dram.commands.CommandStream` enqueues its runs, any
    other sequence one run.  Only a command actually issued is built
    (:meth:`~repro.dram.commands.Command.at_wave`); skipping is arithmetic.
    """

    def __init__(self) -> None:
        self._runs: Deque[Tuple[Tuple[Command, ...], int]] = deque()
        self._pos = 0                # commands consumed of the head run
        self._len = 0

    def extend(self, commands) -> None:
        """Append a stream descriptor's runs, or any command sequence."""
        runs = (commands.runs() if isinstance(commands, CommandStream)
                else ((tuple(commands), 1),))
        for run, reps in runs:
            if run and reps:
                self._runs.append((run, len(run) * reps))
                self._len += len(run) * reps

    def __len__(self) -> int:
        return self._len

    def head(self) -> Command:
        """The next command, built for its wave."""
        run, _ = self._runs[0]
        wave, index = divmod(self._pos, len(run))
        return run[index].at_wave(wave)

    def skip(self, count: int = 1) -> None:
        """Consume ``count`` commands from the head."""
        self._len -= count
        self._pos += count
        while self._runs and self._pos >= self._runs[0][1]:
            self._pos -= self._runs.popleft()[1]

    def count_reps(self, block: List[Command],
                   limit: Optional[int] = None) -> int:
        """Full repetitions of ``block`` at the head, matching on
        :data:`_shape`: at most ``limit`` (``None``: no bound; zero or less
        scans nothing).  Past the ``lcm`` of a run's length and the block's
        both repeat, so the rest of the run matches without a look."""
        n = len(block)
        full = self._len // n
        if limit is not None:
            if limit <= 0:
                return 0
            full = min(full, limit)
        shapes = [_shape(cmd) for cmd in block]
        done, start, want = 0, self._pos, full * n
        for run, total in self._runs:
            if done >= want:
                break
            size = len(run)
            avail = min(total - start, want - done)
            for i in range(min(avail, lcm(size, n))):
                if _shape(run[(start + i) % size]) != shapes[(done + i) % n]:
                    return (done + i) // n
            done, start = done + avail, 0
        return full


@dataclass
class ReplaySummary:
    """Accounting of a :meth:`MemoryController.drain_fast` invocation.

    ``stepped`` commands went through the ordinary per-command
    :meth:`MemoryController.step` path; ``replayed`` commands were advanced
    arithmetically as part of ``runs`` verified periodic runs.
    """

    stepped: int = 0
    replayed: int = 0
    runs: int = 0

    @property
    def total(self) -> int:
        return self.stepped + self.replayed


@dataclass
class _RunBoundary:
    """Bookkeeping for one observed state during the run hunt."""

    #: commands consumed when observed: counted from the hunt log's start
    #: for hunt boundaries, from the drain's start for reuse snapshots.
    pops: int
    clock: float                 #: controller clock when observed
    records_len: int             #: issue records accumulated when observed
    ca_busy: float               #: channel C/A busy cycles when observed
    refresh_rel: Optional[float]  #: deadline minus clock (None = disabled)
    next_refresh: float          #: absolute refresh deadline when observed
    counters: Tuple[Dict[str, float], ...] = field(default_factory=tuple)
    finishes: int = 0            #: replay finishes recorded when observed


@dataclass
class _Run:
    """A verified refresh-free run, kept for reuse across refreshes.

    From any state whose key equals ``key``, one repetition of ``block``
    advances every clock by ``period`` and every counter by ``deltas``
    (one dict per stat registry), as long as no refresh-sensitive check
    changes its outcome.
    """

    key: tuple
    block: List[Command]
    period: float
    ca_busy: float               #: C/A busy cycles per repetition
    deltas: Tuple[Dict[str, float], ...]
    finish: float                #: probe finish minus the clock at its end


@dataclass
class ControllerConfig:
    """Scheduling policy knobs.

    Attributes
    ----------
    pim_priority:
        Prefer the PIM queue when both queues have issuable commands
        (paper default ``True``).
    header_aware_refresh:
        Use PIM_HEADER duration estimates to hoist refreshes out of GEMV
        windows (NeuPIMs behaviour).  When ``False``, refreshes fire on
        their tREFI deadline and may interrupt a GEMV.
    refresh_enabled:
        Disable to measure pure command streams (used in unit tests).
    """

    pim_priority: bool = True
    header_aware_refresh: bool = True
    refresh_enabled: bool = True


class MemoryController:
    """Drains MEM and PIM command queues onto one channel.

    The controller runs in "batch replay" style: callers enqueue the
    command streams produced by the compiler / PIM engine and then call
    :meth:`drain`, which issues everything in a legal, policy-driven
    order and returns the per-command issue records.
    """

    def __init__(self, channel: Channel,
                 config: Optional[ControllerConfig] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.channel = channel
        self.config = config or ControllerConfig()
        self.stats = stats or channel.stats
        self.mem_queue = CommandQueue()
        self.pim_queue = CommandQueue()
        self._next_refresh = float(channel.timing.tREFI)
        self._pending_gemv_cycles = 0.0
        self.records: List[IssueRecord] = []
        self._clock = 0.0
        #: completion frontier of the dependent PIM flow (GWRITE -> ACT ->
        #: DOTPROD -> RDRESULT must execute in order).
        self._pim_frontier = 0.0
        #: activations of the in-flight fine-grained wave; a refresh closes
        #: all row buffers, so the controller must replay these afterwards.
        self._open_pim_acts: List[Command] = []
        #: rows opened by regular ACTs (bank -> row), also replayed after
        #: a refresh so queued column commands find their rows open.
        self._open_mem_rows: dict = {}
        #: completion frontier contributed by arithmetically replayed runs
        #: (their per-command records are not materialized).
        self._replay_finish = 0.0
        #: accounting of the most recent :meth:`drain_fast` call.
        self.replay = ReplaySummary()
        self._reset_runs()

    def _reset_runs(self) -> None:
        """Forget the kept run and its super-period snapshots."""
        #: last verified refresh-free run (see :meth:`_reuse_run`).
        self._kept: Optional[_Run] = None
        #: position in the kept run's block of the next consumed command,
        #: ``None`` once a stepped command broke the alignment.
        self._cursor: Optional[int] = None
        #: reuse-point states keyed by their refresh offset.
        self._snapshots: Dict[float, _RunBoundary] = {}
        #: completion frontier of every replay of this drain, in order.
        self._finishes: List[float] = []

    # ------------------------------------------------------------------

    def enqueue_mem(self, commands) -> None:
        """Append regular memory commands (in program order)."""
        self.mem_queue.extend(commands)

    def enqueue_pim(self, commands) -> None:
        """Append PIM commands (in program order)."""
        self.pim_queue.extend(commands)

    @property
    def now(self) -> float:
        return self._clock

    # ------------------------------------------------------------------

    def _estimate_duration(self, cmd: Command) -> float:
        """Upper-bound duration estimate used for refresh avoidance."""
        timing = self.channel.timing
        pim = self.channel.pim_timing
        if cmd.ctype is CommandType.PIM_GEMV:
            wave = self.channel.gemv_wave_duration(
                self.channel.org.banks_per_channel)
            return wave * cmd.k + pim.rdresult_cycles
        if cmd.ctype is CommandType.PIM_GWRITE:
            return pim.gwrite_cycles
        if cmd.ctype is CommandType.PIM_DOTPRODUCT:
            return pim.dotprod_cycles_per_page(self.channel.org.page_bytes)
        if cmd.ctype is CommandType.PIM_ACTIVATION:
            return timing.tRCD
        return timing.tCL + timing.tBL

    def _maybe_refresh(self, next_cmd: Optional[Command]) -> None:
        """Issue a refresh if the deadline passed or a GEMV would cross it."""
        if not self.config.refresh_enabled:
            return
        due = self._clock >= self._next_refresh
        hoist = False
        if (not due and next_cmd is not None and self.config.header_aware_refresh
                and self._pending_gemv_cycles > 0):
            # A header announced a GEMV of known duration: if it cannot
            # finish before the refresh deadline, refresh early.
            hoist = self._clock + self._pending_gemv_cycles > self._next_refresh
        if due or hoist:
            record = self.channel.issue(Command(CommandType.REF),
                                        earliest=self._clock)
            self.records.append(record)
            self._clock = max(self._clock, record.complete_time)
            self._next_refresh = record.issue_time + self.channel.timing.tREFI
            self.stats.add("refresh.issued")
            if hoist:
                self.stats.add("refresh.hoisted")
            if self._open_pim_acts:
                # The refresh closed the PIM row buffers mid-wave: replay
                # the activations so the pending dot-product can proceed.
                replay = list(self._open_pim_acts)
                self._open_pim_acts.clear()
                for act in replay:
                    rec = self.channel.issue(act, earliest=self._clock)
                    self.records.append(rec)
                    self._pim_frontier = max(self._pim_frontier,
                                             rec.complete_time)
                    self._open_pim_acts.append(act)
                self.stats.add("refresh.act_replays", len(replay))
            if self._open_mem_rows:
                # Likewise restore rows the MEM flow had open.
                for bank, row in sorted(self._open_mem_rows.items()):
                    rec = self.channel.issue(
                        Command(CommandType.ACT, bank=bank, row=row),
                        earliest=self._clock)
                    self.records.append(rec)
                self.stats.add("refresh.act_replays",
                               len(self._open_mem_rows))

    def _select_queue(self) -> Optional[CommandQueue]:
        """Pick the queue whose head can issue first.

        PIM commands are gated by the PIM flow's completion frontier (the
        GWRITE -> ACTIVATION -> DOTPRODUCT -> RDRESULT chain is dependent);
        regular memory commands only wait for the C/A bus.  The queue with
        the earlier candidate issue time wins; PIM wins ties — the paper's
        PIM-priority policy.
        """
        if not self.pim_queue and not self.mem_queue:
            return None
        if not self.pim_queue:
            return self.mem_queue
        if not self.mem_queue:
            return self.pim_queue
        if not self.channel.dual_row_buffer:
            # Blocked mode: the single row buffer cannot serve both flows,
            # so the PIM phase drains completely before memory commands.
            return self.pim_queue
        pim_candidate = max(self._pim_frontier, self.channel.ca_free_at)
        mem_candidate = self.channel.ca_free_at
        if self.config.pim_priority:
            return self.pim_queue if pim_candidate <= mem_candidate else self.mem_queue
        return self.mem_queue if mem_candidate <= pim_candidate else self.pim_queue

    def step(self) -> Optional[IssueRecord]:
        """Issue one command; returns its record or ``None`` when drained."""
        queue = self._select_queue()
        if queue is None:
            return None
        cmd = queue.head()
        self._maybe_refresh(cmd)
        queue.skip()

        interrupted = False
        earliest = self._pim_frontier if cmd.is_pim else 0.0
        if (cmd.ctype is CommandType.PIM_GEMV
                and not self.config.header_aware_refresh
                and self.config.refresh_enabled):
            # Baseline behaviour: a refresh deadline inside the GEMV window
            # preempts it; charge a re-activation penalty.
            duration = self._estimate_duration(cmd)
            if max(earliest, self.channel.ca_free_at) + duration > self._next_refresh:
                interrupted = True

        record = self.channel.issue(cmd, earliest=earliest)
        self._clock = max(self._clock, record.issue_time)
        if cmd.ctype is CommandType.PIM_HEADER:
            self._pending_gemv_cycles = self._estimate_duration(
                Command(CommandType.PIM_GEMV, k=max(1, cmd.k)))
        elif cmd.ctype is CommandType.PIM_GEMV:
            self._pending_gemv_cycles = 0.0

        if interrupted:
            penalty = self.channel.timing.tRFC + self.channel.timing.tRCD
            record = IssueRecord(record.command, record.issue_time,
                                 record.bus_release,
                                 record.complete_time + penalty)
            self.stats.add("refresh.gemv_interrupted")

        if cmd.ctype is CommandType.PIM_ACTIVATION:
            self._open_pim_acts.append(cmd)
        elif cmd.ctype in (CommandType.PIM_PRECHARGE, CommandType.PIM_GEMV):
            self._open_pim_acts.clear()
        elif cmd.ctype is CommandType.ACT:
            self._open_mem_rows[cmd.bank] = cmd.row
        elif cmd.ctype is CommandType.PRE:
            self._open_mem_rows.pop(cmd.bank, None)

        if cmd.is_pim and cmd.ctype is not CommandType.PIM_HEADER:
            self._pim_frontier = max(self._pim_frontier, record.complete_time)
        self.records.append(record)
        return record

    def drain(self) -> List[IssueRecord]:
        """Issue all queued commands; returns the accumulated records."""
        while self.step() is not None:
            pass
        return self.records

    # ------------------------------------------------------------------
    # Batch-replay fast path.
    # ------------------------------------------------------------------

    def drain_fast(self, hunt_budget: int = 128) -> List[IssueRecord]:
        """Drain like :meth:`drain`, replaying periodic runs arithmetically.

        The command-level simulation is time-translation invariant: every
        timing rule depends only on time *differences* (the refresh deadline
        is folded in as a clock-relative offset).  So while draining, the
        controller digests its full timing state — clocks, per-bank row
        buffers, the tFAW window, data-bus bookings, refresh deadline — into
        a translation-invariant key before each command.  When a key recurs,
        the commands issued between the two occurrences form one period of a
        homogeneous run (a fine-grained GEMV wave train, a GWRITE or RD/WR
        burst, a multi-request composite stream — including any refreshes
        the period contains), and every remaining structurally identical
        repetition still in the queue is replayed in one arithmetic step via
        :meth:`~repro.dram.channel.Channel.issue_run`.

        Equivalence with :meth:`drain`: finish time, refresh counts, C/A
        busy cycles and all per-command-type stats are bit-identical.  Only
        the per-command :class:`IssueRecord` list is abridged — replayed
        commands do not materialize records (that is where the speedup
        comes from); :attr:`replay` reports how many were skipped.

        ``hunt_budget`` bounds how many state digests may be taken without
        a successful replay before the hunt is abandoned, so aperiodic
        streams (e.g. RD runs that outpace the data bus and grow a booked-
        burst backlog) degrade to near-:meth:`drain` cost.

        A refresh-free run stays verified after its replay: whenever the
        state key recurs later in the drain (after a refresh crossing),
        the run replays again without a new probe, and two such reuse
        points at the same refresh offset bound an exact super-period
        (see :meth:`_reuse_run`), so a long stream pays per run rather
        than per refresh interval.
        """
        self.replay = ReplaySummary()
        self._reset_runs()
        history: Dict[tuple, Dict[Optional[float], _RunBoundary]] = {}
        log: List[Command] = []
        hunting = hunt_budget > 0
        observations = 0
        # State digests are only taken when the queue head matches an
        # anchor signature (re-picked after enough misses), so steady runs
        # pay one digest per period instead of one per command.
        anchor: Optional[tuple] = None
        misses = 0
        while True:
            if hunting:
                queue = self._single_queue()
                # Positions with a fine-grained wave in flight cannot be
                # replay boundaries (the pending activates would go stale),
                # so they neither observe nor count toward re-anchoring.
                if (queue is not None and len(queue) >= 2
                        and not self._open_pim_acts):
                    sig = _shape(queue.head())
                    if anchor is None or misses > self._REANCHOR_AFTER:
                        anchor = sig
                        misses = 0
                    if sig == anchor:
                        misses = 0
                        observations += 1
                        if self._observe_boundary(queue, history, log):
                            history.clear()
                            log.clear()
                            anchor = None
                            observations = 0
                            continue
                    else:
                        misses += 1
                if observations >= hunt_budget or len(log) >= self._LOG_CAP:
                    hunting = False
                    history.clear()
                    log.clear()
            record = self.step()
            if record is None:
                return self.records
            self.replay.stepped += 1
            if hunting:
                cmd = record.command
                log.append(cmd)
                cursor = self._cursor
                if cursor is not None:
                    block = self._kept.block
                    self._cursor = ((cursor + 1) % len(block)
                                    if _shape(cmd) == _shape(block[cursor])
                                    else None)

    #: Consecutive anchor misses (at eligible boundaries) tolerated before
    #: the hunt re-anchors on the current queue head (covers prefixes like
    #: a GWRITE burst ahead of a wave train).
    _REANCHOR_AFTER = 4

    #: Hard cap on the popped-command log retained while hunting.
    _LOG_CAP = 1 << 16

    def _single_queue(self) -> Optional[CommandQueue]:
        """The active queue when exactly one has pending commands."""
        if self.pim_queue and not self.mem_queue:
            return self.pim_queue
        if self.mem_queue and not self.pim_queue:
            return self.mem_queue
        return None

    def _state_key(self, pim_run: bool) -> tuple:
        """Translation-invariant digest of the controller state.

        The refresh deadline is deliberately *not* part of the key: two
        states that match on this key behave identically as long as no
        refresh fires, which is what the bounded (deadline-limited) skip
        exploits.  The deadline offset is kept separately per boundary and
        compared on a hit — equal offsets upgrade the match to an exact
        recurrence (refreshes are then part of the period and the skip is
        unbounded).
        """
        base = self._clock
        return (
            pim_run,
            # A frontier behind the C/A frontier is dead: every PIM issue
            # path max-combines the two, so clamp for the digest.
            max(self._pim_frontier, self.channel.ca_free_at) - base,
            self._pending_gemv_cycles,
            tuple(map(_shape, self._open_pim_acts)),
            tuple(sorted(self._open_mem_rows.items())),
            self.channel.state_key(base),
        )

    def _stat_registries(self) -> List[StatsRegistry]:
        registries = [self.stats]
        if self.channel.stats is not self.stats:
            registries.append(self.channel.stats)
        return registries

    def counter_view(self) -> Dict[str, float]:
        """Typed counter vector measured from the command-level simulation.

        Maps the controller/channel stat registries onto the counter
        taxonomy of :mod:`repro.counters.report` (the cycle tier of the
        refutation harness).  GEMV issue slots count dot-product waves
        whether they were issued as explicit ``PIM_DOTPRODUCT`` commands
        (fine-grained encoding) or sequenced inside ``PIM_GEMV``
        (composite encoding); refresh stalls count issued ``REF``
        commands.  Because every constituent stat is charged through
        :meth:`~repro.dram.channel.Channel.issue` and scaled
        arithmetically by the :meth:`drain_fast` replay deltas, the view
        is bit-identical between :meth:`drain` and :meth:`drain_fast`.
        """
        totals: Dict[str, float] = {}
        for registry in self._stat_registries():
            for name, value in registry.as_dict().items():
                totals[name] = totals.get(name, 0.0) + value
        return {
            "dram.ca_busy_cycles": float(self.channel.ca_busy_cycles),
            "dram.refresh_stalls": totals.get("refresh.issued", 0.0),
            "dram.row_activations": totals.get("dram.row_activations", 0.0),
            "pim.gemv_issue_slots": (totals.get("pim.gemv_waves", 0.0)
                                     + totals.get("cmd.PIM_DOTPRODUCT", 0.0)),
        }

    def _boundary(self, pops: int) -> _RunBoundary:
        """Snapshot of the current state for a later period measurement."""
        return _RunBoundary(
            pops=pops, clock=self._clock, records_len=len(self.records),
            ca_busy=self.channel.ca_busy_cycles,
            refresh_rel=(self._next_refresh - self._clock
                         if self.config.refresh_enabled else None),
            next_refresh=self._next_refresh,
            counters=tuple(r.as_dict() for r in self._stat_registries()),
            finishes=len(self._finishes),
        )

    def _deltas(self, previous: _RunBoundary) -> Tuple[Dict[str, float], ...]:
        """Per-registry stat changes since ``previous``."""
        return tuple(
            {name: value - snapshot.get(name, 0.0)
             for name, value in registry.as_dict().items()
             if value != snapshot.get(name, 0.0)}
            for registry, snapshot in zip(self._stat_registries(),
                                          previous.counters))

    def _observe_boundary(self, queue: CommandQueue,
                          history: Dict[tuple, Dict[Optional[float],
                                                    _RunBoundary]],
                          log: List[Command]) -> bool:
        """Snapshot the state before a pop; replay a run when it recurs.

        Returns ``True`` when a run was replayed (the caller restarts the
        hunt with fresh history), ``False`` to proceed with a normal step.
        """
        pim_run = queue is self.pim_queue
        key = self._state_key(pim_run)
        if (self._kept is not None and key == self._kept.key
                and self._replay_hazard_free(pim_run)
                and self._reuse_run(queue)):
            return True
        boundary = self._boundary(len(log))
        # Per key, boundaries by refresh offset, the latest last: an exact
        # recurrence is found even when the latest one is at another offset.
        filed = history.setdefault(key, {})
        previous = filed.pop(boundary.refresh_rel, None)
        if previous is None and filed:
            previous = filed[next(reversed(filed))]
        filed[boundary.refresh_rel] = boundary
        if previous is None:
            return False
        period = self._clock - previous.clock
        block = log[previous.pops:]
        if (period <= 0 or not block or self._open_pim_acts
                or not self._replay_hazard_free(pim_run)):
            return False
        if previous.refresh_rel == boundary.refresh_rel:
            # Exact recurrence: any refreshes are part of the period, so
            # the deadline shifts along with the clocks.
            limit = None
        elif previous.next_refresh == self._next_refresh:
            # Deadline-agnostic recurrence (no refresh fired during the
            # probe): skip only repetitions that provably finish every
            # refresh-sensitive check before the (unmoved) deadline.
            limit = self._deadline_limited_reps(period, block)
        else:
            limit = 0
        reps = queue.count_reps(block, limit)
        if reps <= 0:
            return False
        probe_finish = max(
            (r.complete_time for r in self.records[previous.records_len:]),
            default=self._clock,
        )
        run = _Run(key, block, period, boundary.ca_busy - previous.ca_busy,
                   self._deltas(previous), probe_finish - self._clock)
        if limit is None:
            # A period with a refresh in it cannot replay deadline-limited.
            self._cursor = None
        else:
            self._kept = run
            self._cursor = 0
            self._snapshots.clear()
        self._replay(queue, run, reps, shift_refresh=limit is None)
        return True

    def _reuse_run(self, queue: CommandQueue) -> bool:
        """Replay the kept run from a state with its key, without a probe.

        The kept run was verified refresh-free from this key, so the
        deadline-limited argument of :meth:`_deadline_limited_reps`
        applies here as it did at its probe.  (Runs are only kept with
        refresh enabled: without it every recurrence is exact and replays
        all it can.)

        Each such reuse point also snapshots the state under its refresh
        offset.  A later reuse point at the same offset, with every
        command consumed in between aligned to the block, has the same
        key *and* deadline offset, so the interval is an exact period,
        refreshes included: its remaining whole multiples replay at once
        and the deadline shifts along.
        """
        run = self._kept
        if self._cursor != 0:
            self._snapshots.clear()
            self._cursor = 0
        offset = self._next_refresh - self._clock
        snapshot = self._snapshots.get(offset)
        if snapshot is not None:
            per = (self.replay.total - snapshot.pops) // len(run.block)
            period = self._clock - snapshot.clock
            reps = (queue.count_reps(run.block) // per
                    if per > 0 and period > 0 else 0)
            if reps > 0:
                finish = max(
                    [r.complete_time
                     for r in self.records[snapshot.records_len:]]
                    + self._finishes[snapshot.finishes:],
                    default=self._clock,
                )
                interval = _Run(
                    run.key, run.block * per, period,
                    self.channel.ca_busy_cycles - snapshot.ca_busy,
                    self._deltas(snapshot), finish - self._clock)
                self._snapshots.clear()
                self._replay(queue, interval, reps, shift_refresh=True)
                return True
        self._snapshots[offset] = self._boundary(self.replay.total)
        reps = queue.count_reps(
            run.block, self._deadline_limited_reps(run.period, run.block))
        if reps <= 0:
            return False
        self._replay(queue, run, reps, shift_refresh=False)
        return True

    def _deadline_limited_reps(self, period: float,
                               block: List[Command]) -> int:
        """Repetitions that stay clear of the refresh deadline.

        Every refresh-sensitive comparison inside a skipped repetition
        ``j`` involves a time below ``clock + (j+1)*period + pending``,
        where ``pending`` bounds the announced-GEMV hoist and interrupt
        look-ahead; requiring that to stay below the deadline is (slightly
        conservatively) safe, and the crossing repetition is then stepped
        through the ordinary slow path.
        """
        pending = self._pending_gemv_cycles
        for cmd in block:
            if cmd.ctype in (CommandType.PIM_HEADER, CommandType.PIM_GEMV):
                pending = max(pending, self._estimate_duration(
                    Command(CommandType.PIM_GEMV, k=max(1, cmd.k))))
        headroom = self._next_refresh - self._clock - pending
        reps = int(headroom // period)
        while reps > 0 and self._clock + reps * period + pending >= self._next_refresh:
            reps -= 1
        return reps

    def _replay_hazard_free(self, pim_run: bool) -> bool:
        """Row values of replayed commands may differ across repetitions
        (timing is row-independent), so forbid replay while the *opposite*
        row buffers hold rows a replayed activate could collide with."""
        if not self.channel.dual_row_buffer:
            return True
        other = BufferTarget.MEM if pim_run else BufferTarget.PIM
        return all(bank.open_row(other) is None
                   for bank in self.channel.banks)

    def _replay(self, queue: CommandQueue, run: _Run, reps: int,
                shift_refresh: bool) -> None:
        """Advance state over ``reps`` repetitions of ``run`` in one step.

        The repetition just before the replayed ones finished at
        ``clock + run.finish``; the last replayed one (which materializes
        no records) finishes ``reps`` periods later.
        """
        shift = reps * run.period
        finish = self._clock + run.finish + shift
        channel_registry = self.channel.stats
        channel_deltas: Dict[str, float] = {}
        for registry, deltas in zip(self._stat_registries(), run.deltas):
            if registry is channel_registry:
                channel_deltas = deltas
            else:
                for name, delta in deltas.items():
                    registry.add(name, delta * reps)
        self.channel.issue_run(reps, run.period, ca_busy_per_rep=run.ca_busy,
                               stat_deltas=channel_deltas)
        self._finishes.append(finish)
        self._replay_finish = max(self._replay_finish, finish)
        self._clock += shift
        self._pim_frontier += shift
        if shift_refresh:
            self._next_refresh += shift
        count = reps * len(run.block)
        queue.skip(count)
        self.replay.replayed += count
        self.replay.runs += 1

    @property
    def finish_time(self) -> float:
        """Completion time of the last finished command."""
        recorded = max((r.complete_time for r in self.records), default=0.0)
        return max(recorded, self._replay_finish)
