"""Equivalence-class decomposition of decode batches (group-commit engine).

Running requests that share ``(channel, seq_len, remaining_decode)`` are
indistinguishable to the iteration latency model (MHA cost and KV
traffic depend on ``seq_len`` and channel placement only), advance in
lockstep (one token per iteration) and finish together.  This module
lets the serving stack do per-class work instead of per-request work:

* :func:`class_histogram` / :func:`mha_histogram` build the canonical
  sorted views that
  :meth:`repro.core.device.NeuPimsDevice.mha_stage_classes` consumes.
  **Both** serving paths compute iteration latencies from these
  histograms, so they are bit-identical by construction (same sums in
  the same canonical order).
* :class:`DeviceClassPlan` / :class:`SystemClassPlan` freeze a batch's
  class structure at a *batch boundary*.  Between boundaries advancing
  the batch shifts every ``seq_len`` uniformly (:func:`shift_histogram`),
  so the plan is reused with an arithmetic shift (the iteration-level
  analog of ``MemoryController.drain_fast``'s replay).
* :class:`ClassTable` is the scheduler's live class table: kept current
  across windows by the pool's membership deltas, it carries a window's
  shift and writes the deferred per-request effects back when the window
  closes, inside the ``IterationScheduler.run_iteration`` call that
  opened it.

A *boundary* is any event that breaks translation invariance: a class
reaching ``remaining == 0``, a waiting request becoming admissible, or a
resilience boundary coming due.  The window closes before such an
iteration; the next call acts on the boundary and runs that iteration as
the first step of a fresh window.  Only a channel short of KV blocks for
the batched growth, or a resilience state in which no window may open,
hands an iteration to the per-request path — which, the arithmetic being
shared, produces exactly the record the grouped path would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple)

from repro.serving.request import DONE, InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.binpack import ChannelLoadTracker
    from repro.serving.paging import PagedKvAllocator
    from repro.serving.pool import RequestPool

#: Valid values of the serving/scheduler ``grouping`` knob.
GROUPING_MODES = ("auto", "off")

#: Sorted ``(channel, seq_len, count)`` triples — the canonical MHA view.
MhaHistogram = Tuple[Tuple[int, int, int], ...]

#: Full class key ``(channel, seq_len, remaining_decode)``.
ClassKey = Tuple[int, int, int]


def mha_histogram(requests: Sequence[InferenceRequest]) -> MhaHistogram:
    """Canonical ``(channel, seq_len) -> count`` histogram of a batch,
    sorted by ``(channel, seq_len)``: every latency computation sums in
    this order, so equal histograms give bit-identical timings however
    they were obtained (per-request scan or incremental classes)."""
    return merge_histograms(tuple((request.channel or 0, request.seq_len, 1)
                                  for request in requests), ())


def class_histogram(requests: Sequence[InferenceRequest]
                    ) -> Dict[ClassKey, int]:
    """Multiplicity of every ``(channel, seq_len, remaining)`` class (an
    unassigned request counts as channel 0)."""
    classes: Dict[ClassKey, int] = {}
    for request in requests:
        channel = request.channel
        generated = request.generated
        key = (0 if channel is None else channel,
               request.input_len + generated, request.output_len - generated)
        classes[key] = classes.get(key, 0) + 1
    return classes


def shift_histogram(hist: MhaHistogram, shift: int) -> MhaHistogram:
    """The histogram after every request generated ``shift`` more tokens.

    A uniform shift preserves the canonical ``(channel, seq_len)`` sort
    order, so the result is built in one pass.
    """
    if shift == 0:
        return hist
    return tuple([(channel, seq_len + shift, count)
                  for channel, seq_len, count in hist])


def merge_histograms(a: MhaHistogram, b: MhaHistogram) -> MhaHistogram:
    """The canonical histogram of two batches taken together."""
    counts: Dict[Tuple[int, int], int] = {}
    for channel, seq_len, count in a + b:
        key = (channel, seq_len)
        counts[key] = counts.get(key, 0) + count
    return tuple((channel, seq_len, count)
                 for (channel, seq_len), count in sorted(counts.items()))


# ----------------------------------------------------------------------
# Frozen per-boundary plans.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceClassPlan:
    """A device batch's class structure, frozen at a batch boundary.

    The batch's seq_lens at shift 0 are the histograms' plus ``offset``
    (0 for a plan built from the batch; a live class table's plan keeps
    its seq_lens relative to the table's offset); :func:`shift_histogram`
    derives the view for any later iteration of the same window.  A
    split plan carries only the two sub-batch histograms: the full one
    is their :func:`merge_histograms`, built only where it is read.
    The hash is computed once: the device memoizes by ``(plan, shift)``.
    """

    batch_size: int
    #: Full histogram (``None`` when ``split`` is set).
    hist: Optional[MhaHistogram]
    #: Algorithm-3 split into two non-empty ``(size, histogram)``
    #: sub-batches (``None`` when SBI does not split the batch).
    split: Optional[Tuple[Tuple[int, MhaHistogram], ...]] = None
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.batch_size, self.split if self.hist is None else self.hist,
             self.offset)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class SystemClassPlan:
    """A multi-device system's plan: the leading micro-batch's classes."""

    inner: DeviceClassPlan
    micro_size: int


class GroupedExecutor:
    """Pairs a plan builder with a plan runner for the scheduler.

    ``prepare(table)`` freezes the class structure of an open
    :class:`ClassTable`'s batch (placing unplaced requests as the
    per-request path would); ``run(plan, shift)`` returns the iteration
    latency after ``shift`` uniform decode steps, with the per-request
    executor's accounting.
    """

    def __init__(self, prepare: Callable[["ClassTable"], Any],
                 run: Callable[[Any, int], float]) -> None:
        self.prepare = prepare
        self.run = run


# ----------------------------------------------------------------------
# Scheduler-side live state.
# ----------------------------------------------------------------------

class ClassTable:
    """The running batch's class structure, kept live across windows.

    The scheduler owns one table and attaches it to its request pool,
    whose :meth:`~repro.serving.pool.RequestPool.transition` and
    ``evict`` move requests into and out of ``RUNNING``: each calls
    :meth:`join` or :meth:`leave`, so a boundary costs the table
    its delta (admitted, retired, timed out, retried, extracted), not the
    batch.  Members are filed by class ``(channel, relative seq_len,
    finish offset)``: seq_lens are kept *relative to* ``offset`` (the
    tokens every member has generated since the table was reset), so a
    window's uniform shift moves no entry, and a class finishes when
    ``offset`` reaches its finish offset.  The classes are indexed by
    the offset residue of their KV block boundary and by finish offset;
    ``deltas`` lists the joins and leaves, ``(channel, id, relative
    seq_len, ±1)``, for :meth:`repro.core.device.NeuPimsDevice.table_plan`.

    A ``stale`` table is detached from its pool and ignores deltas, and
    :meth:`open` rebuilds it (:meth:`rebuild`: a reset, then the add
    path for every member): at first use, after a per-request iteration
    (which advances members outside the table; see :meth:`invalidate`),
    after the whole batch finished, and when the batch's size is not the
    table's (a request submitted already ``RUNNING`` joins no table; it
    only adds members, so a missed join changes the count).  While a
    window runs, member objects are **not** touched; :meth:`sync` writes
    the deferred effects back in one pass when it closes.
    """

    def __init__(self, pool: Optional["RequestPool"] = None,
                 allocators: Optional[Sequence["PagedKvAllocator"]] = None
                 ) -> None:
        self._pool = pool
        self._block_tokens = (None if allocators is None else
                              [allocator.config.block_tokens
                               for allocator in allocators])
        self._block_sizes = sorted(set(self._block_tokens or ()))
        #: the id-ordered batch of the open (or last) window
        self.batch: List[InferenceRequest] = []
        self.stale = True
        self.generation = 0
        self.reset()

    def reset(self) -> None:
        """Forget every member (a new generation; offset back to 0)."""
        self.generation += 1
        self.offset = 0
        self.shift = 0
        #: a member joined without a valid channel (``None`` is filed
        #: under channel 0)
        self.unplaced = False
        #: one past the highest channel any member joined on
        self.channel_bound = 0
        #: (channel, relative seq_len, finish offset) -> {id: request}
        self.classes: Dict[ClassKey, Dict[int, InferenceRequest]] = {}
        #: joins and leaves since the device planned it (None before)
        self.deltas: Optional[List[Tuple[int, int, int, int]]] = None
        self._size = 0
        # (block_tokens, -relative seq_len mod block_tokens) -> classes
        # whose context sits on a block boundary at offsets of that
        # residue; finish offset -> classes, with a heap of the offsets
        # (dropped from it lazily once empty).
        self._crossings: Dict[Tuple[int, int], Set[ClassKey]] = {}
        self._finishing: Dict[int, Set[ClassKey]] = {}
        self._finish_heap: List[int] = []

    def __len__(self) -> int:
        return self._size

    # -- deltas ---------------------------------------------------------

    def join(self, request: InferenceRequest) -> None:
        """File a request that entered ``RUNNING``."""
        if not self.stale:
            self._add((request,))
            if self.deltas is not None:
                self.deltas.append((request.channel or 0, request.request_id,
                                    request.input_len + request.generated
                                    - self.offset, 1))

    def _add(self, requests: Sequence[InferenceRequest]) -> None:
        """File ``requests`` (the one add path: joins and rebuilds; a
        rebuild starts a new generation, which the device re-splits
        whole, so only a join records a delta)."""
        offset = self.offset
        classes = self.classes
        for request in requests:
            channel = request.channel or 0
            if request.channel is None or channel < 0:
                self.unplaced = True
            generated = request.generated
            key = (channel, request.input_len + generated - offset,
                   offset + request.output_len - generated)
            members = classes.get(key)
            if members is None:
                classes[key] = {request.request_id: request}
                self._file(key)
            else:
                members[request.request_id] = request
        self._size += len(requests)

    def leave(self, request: InferenceRequest) -> None:
        """Drop a request that left ``RUNNING``.  Between boundaries only
        :meth:`sync` moves a member's fields, and it moves ``offset``
        with them, so the class computed here is the one it joined (one
        submitted already ``RUNNING`` never did: the table goes stale)."""
        if self.stale:
            return
        generated, offset = request.generated, self.offset
        key = (request.channel or 0, request.input_len + generated - offset,
               offset + request.output_len - generated)
        members = self.classes.get(key, {})
        if members.pop(request.request_id, None) is None:
            return self.invalidate()
        if not members:
            del self.classes[key]
            self._file(key, False)
        self._size -= 1
        if self.deltas is not None:
            self.deltas.append((key[0], request.request_id, key[1], -1))

    def _file(self, key: ClassKey, add: bool = True) -> None:
        """Enter (or remove) a class in the indexes."""
        channel, relative, finish = key
        slots = [(self._finishing, finish)]
        sizes = self._block_tokens
        if sizes is not None and channel < len(sizes):
            size = sizes[channel]
            slots.append((self._crossings, (size, -relative % size)))
        if add:
            if channel >= self.channel_bound:
                self.channel_bound = channel + 1
            if finish not in self._finishing:
                heappush(self._finish_heap, finish)
            for index, slot in slots:
                index.setdefault(slot, set()).add(key)
            return
        for index, slot in slots:
            keys = index[slot]
            keys.discard(key)
            if not keys:
                del index[slot]

    # -- windows --------------------------------------------------------

    def open(self, batch: List[InferenceRequest]) -> None:
        """Start a window over ``batch`` (the id-ordered running set)."""
        self.batch = batch
        self.shift = 0
        if self.stale:
            self.stale = False
            if self._pool is not None:
                self._pool.table = self
            self.rebuild()
        elif len(batch) != self._size:
            self.rebuild()

    def invalidate(self) -> None:
        """Mark the table stale: detach it until :meth:`open` rebuilds."""
        self.stale = True
        if self._pool is not None:
            self._pool.table = None

    def rebuild(self) -> None:
        """Reset, then add every member of :attr:`batch` again."""
        self.reset()
        self._add(self.batch)

    def steps_until_finish(self) -> int:
        """Iterations until the shortest-remaining class completes."""
        heap, finishing = self._finish_heap, self._finishing
        while heap[0] not in finishing:
            heappop(heap)
        return heap[0] - self.offset - self.shift

    def advance(self) -> None:
        """Commit one uniform decode step (all requests, one token)."""
        self.shift += 1

    def block_need(self) -> Dict[int, int]:
        """New KV blocks per channel for the *next* uniform step: a
        context growing from ``s`` to ``s + 1`` tokens adds one block iff
        ``s`` is a block-size multiple, so a class adds blocks only at
        offsets ``= -relative seq_len (mod block_tokens)``."""
        at = self.offset + self.shift
        need: Dict[int, int] = {}
        classes = self.classes
        for size in self._block_sizes:
            for key in self._crossings.get((size, at % size), ()):
                channel = key[0]
                need[channel] = need.get(channel, 0) + len(classes[key])
        return need

    def sync(self, pool: "RequestPool",
             allocators: Optional[Sequence["PagedKvAllocator"]],
             load_tracker: Optional["ChannelLoadTracker"]) -> None:
        """Write all deferred per-request effects back to the live stack.

        Called once, when the window closes.  Every member's token count
        moves (the per-member write that remains); the rest is per class
        or per window:

        * the KV ledger is written only for classes that crossed a block
          boundary in the window (the residues its offsets covered).  At
          a boundary a running request's ledger equals
          ``blocks_for(seq_len)`` (admission and every growth step
          allocate exactly that), so no other member needs a write;
        * the load tracker shifts once when the batch is exactly its
          tracked set, else each member is upserted (adopting requests
          that started running without crossing admission);
        * the classes finishing at the new offset leave the table as
          classes, then ``pool`` (detached from the table meanwhile)
          moves their members to ``DONE``.  When the whole batch
          finishes, the table goes stale: the next window rebuilds it
          rather than filing arrivals one by one;
        * latency needs nothing: a running request completes at the
          tracker's clock until it leaves the batch.
        """
        shift = self.shift
        if not shift:
            return
        start = self.offset
        offset = self.offset = start + shift
        self.shift = 0
        for request in self.batch:
            request.generated += shift
        classes = self.classes
        if allocators is not None:
            for size in self._block_sizes:
                for step in range(min(shift, size)):
                    for key in self._crossings.get((size,
                                                    (start + step) % size),
                                                   ()):
                        allocator = allocators[key[0]]
                        blocks = -(-(key[1] + offset) // size)
                        for rid in classes[key]:
                            allocator.set_allocation(rid, blocks)
        if load_tracker is not None:
            if len(load_tracker) == len(self.batch):
                load_tracker.shift(shift)
            else:
                for (channel, relative, _), members in classes.items():
                    for rid in members:
                        load_tracker.sync_member(rid, channel,
                                                 relative + offset)
        done = self._finishing.get(offset)
        if done:
            finishing = [request for key in done
                         for request in classes[key].values()]
            if len(finishing) == self._size:
                self.invalidate()
            else:
                for key in list(done):
                    members = classes.pop(key)
                    if self.deltas is not None:
                        self.deltas.extend([(key[0], rid, key[1], -1)
                                            for rid in members])
                    self._file(key, False)
                self._size -= len(finishing)
            attached, pool.table = pool.table, None
            for request in finishing:
                pool.transition(request, DONE)
            pool.table = attached
