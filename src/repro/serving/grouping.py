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
* :class:`GroupedScheduleState` is the scheduler-side window state: the
  classes with their members, the current shift, and the write-back of
  the deferred per-request effects when the window closes, inside the
  ``IterationScheduler.run_iteration`` call that opened it.

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
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.serving.request import InferenceRequest, RequestStatus

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


def class_groups(requests: Sequence[InferenceRequest]
                 ) -> Dict[ClassKey, List[InferenceRequest]]:
    """The members of every ``(channel, seq_len, remaining)`` class (an
    unassigned request counts as channel 0), in one pass."""
    classes: Dict[ClassKey, List[InferenceRequest]] = {}
    for request in requests:
        channel = request.channel
        generated = request.generated
        key = (0 if channel is None else channel,
               request.input_len + generated, request.output_len - generated)
        members = classes.get(key)
        if members is None:
            classes[key] = [request]
        else:
            members.append(request)
    return classes


def mha_histogram(requests: Sequence[InferenceRequest]) -> MhaHistogram:
    """Canonical ``(channel, seq_len) -> count`` histogram of a batch,
    sorted by ``(channel, seq_len)``: every latency computation sums in
    this order, so equal histograms give bit-identical timings however
    they were obtained (per-request scan or incremental classes)."""
    return merge_histograms(tuple((request.channel or 0, request.seq_len, 1)
                                  for request in requests), ())


def class_histogram(requests: Sequence[InferenceRequest]
                    ) -> Dict[ClassKey, int]:
    """Multiplicity of every ``(channel, seq_len, remaining)`` class."""
    return {key: len(members)
            for key, members in class_groups(requests).items()}


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

    The histograms are stored at shift 0; :func:`shift_histogram`
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.batch_size, self.split if self.hist is None else self.hist)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class SystemClassPlan:
    """A multi-device system's plan: the leading micro-batch's classes."""

    inner: DeviceClassPlan
    micro_size: int


class GroupedExecutor:
    """Pairs a plan builder with a plan runner for the scheduler.

    ``prepare(batch)`` freezes an id-ordered running batch's class
    structure (placing unplaced requests as the per-request path would);
    ``run(plan, shift)`` returns the iteration latency after ``shift``
    uniform decode steps, with the per-request executor's accounting.
    """

    def __init__(self, prepare: Callable[[Sequence[InferenceRequest]], Any],
                 run: Callable[[Any, int], float]) -> None:
        self.prepare = prepare
        self.run = run


# ----------------------------------------------------------------------
# Scheduler-side live state.
# ----------------------------------------------------------------------

class GroupedScheduleState:
    """Class decomposition of the running batch for one window.

    Member request objects are **not** touched while iterations commit;
    the state tracks the accumulated ``shift`` and :meth:`sync` writes
    every deferred effect back in one pass when the window closes —
    generated-token counts, ``DONE`` transitions (through the request
    pool), paged KV allocation bookkeeping and channel-load
    tracker contributions.  Opening costs one pass over the batch and,
    with ``allocators``, one over its classes (the block schedule).
    """

    def __init__(self, batch: Sequence[InferenceRequest], plan: Any,
                 allocators: Optional[Sequence["PagedKvAllocator"]] = None
                 ) -> None:
        self.batch = list(batch)
        self.plan = plan
        self.shift = 0
        self._classes = classes = class_groups(self.batch)
        # (block_tokens, shift residue) -> {channel: new blocks}: a class
        # adds one block per member on the steps where its context sits
        # on a block boundary.
        crossings: Dict[Tuple[int, int], Dict[int, int]] = {}
        if allocators is not None:
            sizes = [allocator.config.block_tokens
                     for allocator in allocators]
            for (channel, seq_len, _), members in classes.items():
                block_tokens = sizes[channel]
                key = (block_tokens, -seq_len % block_tokens)
                need = crossings.get(key)
                if need is None:
                    crossings[key] = {channel: len(members)}
                else:
                    need[channel] = need.get(channel, 0) + len(members)
        self._min_remaining = min(remaining for _, _, remaining in classes)
        self._crossings = crossings
        self._block_sizes = sorted({size for size, _ in crossings})

    # -- structure ------------------------------------------------------

    def steps_until_finish(self) -> int:
        """Iterations until the shortest-remaining class completes."""
        return self._min_remaining - self.shift

    def advance(self) -> None:
        """Commit one uniform decode step (all requests, one token)."""
        self.shift += 1

    # -- paged-KV batched growth ----------------------------------------

    def block_need(self) -> Dict[int, int]:
        """New KV blocks per channel for the *next* uniform step: a
        context growing from ``s`` to ``s + 1`` tokens adds one block iff
        ``s`` is a block-size multiple, so a class adds blocks only on
        steps with ``shift = -seq_len (mod block_tokens)``."""
        shift = self.shift
        need: Dict[int, int] = {}
        for size in self._block_sizes:
            crossing = self._crossings.get((size, shift % size))
            if crossing:
                for channel, blocks in crossing.items():
                    need[channel] = need.get(channel, 0) + blocks
        return need

    # -- window close ---------------------------------------------------

    def sync(self, pool: "RequestPool",
             allocators: Optional[Sequence["PagedKvAllocator"]],
             load_tracker: Optional["ChannelLoadTracker"]) -> None:
        """Write all deferred per-request effects back to the live stack.

        Called once, when the window closes.  Every member's token count
        moves (the per-member write that remains); the rest is per class
        or per window:

        * ``pool`` moves the members of every class that finished to
          ``DONE``;
        * the KV ledger is written only for classes whose block count
          changed.  At a boundary a running request's ledger equals
          ``blocks_for(seq_len)`` (admission and every growth step
          allocate exactly that), so an unchanged count needs no write;
        * the load tracker shifts once when the batch is exactly its
          tracked set, else each member is upserted (adopting requests
          that started running without crossing admission);
        * latency needs nothing: a running request completes at the
          tracker's clock until it leaves the batch.
        """
        shift = self.shift
        if not shift:
            return
        for (channel, seq_len, remaining), members in self._classes.items():
            for request in members:
                request.generated += shift
            if allocators is not None:
                allocator = allocators[channel]
                block_tokens = allocator.config.block_tokens
                blocks = -(-(seq_len + shift) // block_tokens)
                if blocks != -(-seq_len // block_tokens):
                    for request in members:
                        allocator.set_allocation(request.request_id, blocks)
            if remaining == shift:
                for request in members:
                    pool.transition(request, RequestStatus.DONE)
        if load_tracker is not None:
            if len(load_tracker) == len(self.batch):
                load_tracker.shift(shift)
            else:
                for (channel, seq_len, _), members in self._classes.items():
                    for request in members:
                        load_tracker.sync_member(request.request_id,
                                                 channel, seq_len + shift)
