"""Equivalence-class decomposition of decode batches (group-commit engine).

A continuously-batched decode workload collapses into a handful of
request equivalence classes: requests that share ``(channel, seq_len,
remaining_decode)`` are indistinguishable to the iteration latency model
(MHA cost and KV traffic depend on ``seq_len`` and channel placement
only), advance in lockstep (every running request generates one token
per iteration) and finish together (same ``remaining_decode``).  This
module captures that decomposition so the serving stack can do per-class
work instead of per-request work:

* :func:`class_histogram` / :func:`mha_histogram` build the canonical
  sorted ``(channel, seq_len[, remaining]) -> multiplicity`` views that
  :meth:`repro.core.device.NeuPimsDevice.mha_stage_classes` consumes.
  **Both** the per-request path and the grouped path compute iteration
  latencies from these histograms, which is what makes the two paths
  bit-identical by construction (same sums in the same canonical order).
* :class:`DeviceClassPlan` / :class:`SystemClassPlan` freeze a batch's
  class structure — full histogram or Algorithm-3 sub-batch split, pipeline
  micro-batch — at a *batch boundary*.  Between boundaries the structure
  is translation-invariant: advancing the whole batch by one token shifts
  every ``seq_len`` uniformly (:func:`shift_histogram`), so the plan is
  reused with an arithmetic shift instead of being rebuilt (the
  iteration-level analog of ``MemoryController.drain_fast``'s
  translation-invariant replay).
* :class:`GroupedScheduleState` is the scheduler-side window state: the
  class groups with their member lists, the current shift, and the
  synchronization that writes the deferred per-request effects (token
  counts, paged-KV allocations that changed, the channel-load shift)
  back when the window closes.  A window lives inside one
  ``IterationScheduler.run_iteration`` call and closes before it
  returns.

A *boundary* is any event that breaks translation invariance: a class
reaching ``remaining == 0``, a waiting request becoming admissible, or a
resilience boundary coming due.  The window closes before such an
iteration; the next ``run_iteration`` call acts on the boundary
(retirement, admission, faults) and then runs that iteration as the
first step of a fresh window, so every unstarved iteration goes through
the class engine.  Only a channel without enough free KV blocks for the
batched growth, or a resilience state in which no window may open,
hands an iteration to the per-request path — which, because the
arithmetic is shared, produces exactly the record the grouped path
would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.serving.request import InferenceRequest, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.binpack import ChannelLoadTracker
    from repro.serving.paging import PagedKvAllocator

#: Valid values of the serving/scheduler ``grouping`` knob.
GROUPING_MODES = ("auto", "off")

#: Sorted ``(channel, seq_len, count)`` triples — the canonical MHA view.
MhaHistogram = Tuple[Tuple[int, int, int], ...]

#: Full class key ``(channel, seq_len, remaining_decode)``.
ClassKey = Tuple[int, int, int]


def request_class_key(request: InferenceRequest) -> ClassKey:
    """The request's equivalence class ``(channel, seq_len, remaining)``."""
    channel = request.channel if request.channel is not None else 0
    return (channel, request.seq_len,
            request.output_len - request.generated)


def mha_histogram(requests: Sequence[InferenceRequest]) -> MhaHistogram:
    """Canonical ``(channel, seq_len) -> count`` histogram of a batch.

    The tuple is sorted by ``(channel, seq_len)``; every latency
    computation that consumes it accumulates in this order, so any two
    batches with equal histograms produce bit-identical timings however
    the histogram was obtained (per-request scan or incremental classes).
    """
    counts: Dict[Tuple[int, int], int] = {}
    for request in requests:
        channel = request.channel if request.channel is not None else 0
        key = (channel, request.seq_len)
        counts[key] = counts.get(key, 0) + 1
    return tuple((channel, seq_len, count)
                 for (channel, seq_len), count in sorted(counts.items()))


def class_histogram(requests: Sequence[InferenceRequest]
                    ) -> Dict[ClassKey, int]:
    """Multiplicity of every ``(channel, seq_len, remaining)`` class."""
    counts: Dict[ClassKey, int] = {}
    for request in requests:
        key = request_class_key(request)
        counts[key] = counts.get(key, 0) + 1
    return counts


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
    """

    batch_size: int
    #: Full histogram (``None`` when ``split`` is set).
    hist: Optional[MhaHistogram]
    #: Algorithm-3 split into two non-empty ``(size, histogram)``
    #: sub-batches (``None`` when SBI does not split the batch).
    split: Optional[Tuple[Tuple[int, MhaHistogram], ...]] = None


@dataclass(frozen=True)
class SystemClassPlan:
    """A multi-device system's plan: the leading micro-batch's classes."""

    inner: DeviceClassPlan
    micro_size: int


class GroupedExecutor:
    """Pairs a plan builder with a plan runner for the scheduler.

    ``prepare(batch)`` freezes the class structure of an id-ordered
    running batch (assigning channels to any unplaced request, exactly as
    the per-request path would); ``run(plan, shift)`` returns the
    iteration latency for the batch after ``shift`` uniform decode steps.
    The session wraps ``run`` so busy-time/byte accounting accumulates
    identically to the per-request executor.
    """

    def __init__(self, prepare: Callable[[Sequence[InferenceRequest]], Any],
                 run: Callable[[Any, int], float]) -> None:
        self.prepare = prepare
        self.run = run


# ----------------------------------------------------------------------
# Scheduler-side live state.
# ----------------------------------------------------------------------

@dataclass
class _ClassGroup:
    """One equivalence class and its members (id-ordered)."""

    channel: int
    seq_len: int     #: at shift 0
    remaining: int   #: at shift 0
    members: List[InferenceRequest]


class GroupedScheduleState:
    """Class decomposition of the running batch for one window.

    Member request objects are **not** touched while iterations commit;
    the state tracks the accumulated ``shift`` and :meth:`sync` writes
    every deferred effect back in one pass when the window closes —
    generated-token counts, ``DONE`` transitions (which fire the pool's
    status observers), paged KV allocation bookkeeping and channel-load
    tracker contributions.
    """

    def __init__(self, batch: Sequence[InferenceRequest], plan: Any) -> None:
        self.batch = list(batch)
        self.plan = plan
        self.shift = 0
        groups: Dict[ClassKey, _ClassGroup] = {}
        for request in self.batch:
            key = request_class_key(request)
            group = groups.get(key)
            if group is None:
                groups[key] = _ClassGroup(key[0], key[1], key[2], [request])
            else:
                group.members.append(request)
        self._groups = [groups[key] for key in sorted(groups)]
        self._min_remaining = min(g.remaining for g in self._groups)
        #: lazily built block-crossing schedule (see :meth:`block_need`)
        self._block_plan: Optional[Dict[Tuple[int, int],
                                        List[Tuple[int, int]]]] = None
        self._block_sizes: List[int] = []

    # -- structure ------------------------------------------------------

    def steps_until_finish(self) -> int:
        """Iterations until the shortest-remaining class completes."""
        return self._min_remaining - self.shift

    def advance(self) -> None:
        """Commit one uniform decode step (all requests, one token)."""
        self.shift += 1

    # -- paged-KV batched growth ----------------------------------------

    def block_need(self, allocators: Sequence["PagedKvAllocator"]
                   ) -> Dict[int, int]:
        """New KV blocks per channel for the *next* uniform step.

        Growing a context from ``s`` to ``s + 1`` tokens adds exactly one
        block iff ``s`` is a block-size multiple (``ceil`` difference), so
        a class only contributes on its block-crossing steps — those with
        ``shift = -seq_len (mod block_tokens)``.  The crossing schedule
        is precomputed per class, making the per-step check O(1) on
        non-crossing steps.
        """
        if self._block_plan is None:
            plan: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
            sizes = set()
            for group in self._groups:
                block_tokens = \
                    allocators[group.channel].config.block_tokens
                sizes.add(block_tokens)
                residue = (-group.seq_len) % block_tokens
                plan.setdefault((block_tokens, residue), []).append(
                    (group.channel, len(group.members)))
            self._block_plan = plan
            self._block_sizes = sorted(sizes)
        need: Dict[int, int] = {}
        for block_tokens in self._block_sizes:
            crossing = self._block_plan.get(
                (block_tokens, self.shift % block_tokens))
            if crossing:
                for channel, count in crossing:
                    need[channel] = need.get(channel, 0) + count
        return need

    # -- window close ---------------------------------------------------

    def sync(self, allocators: Optional[Sequence["PagedKvAllocator"]],
             load_tracker: Optional["ChannelLoadTracker"]) -> None:
        """Write all deferred per-request effects back to the live stack.

        Called once, when the window closes.  Every member's token count
        moves (the per-member write that remains); the rest is per class
        or per window:

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
        for group in self._groups:
            seq_len = group.seq_len + shift
            members = group.members
            for request in members:
                request.generated += shift
            if allocators is not None:
                allocator = allocators[group.channel]
                block_tokens = allocator.config.block_tokens
                blocks = -(-seq_len // block_tokens)
                if blocks != -(-group.seq_len // block_tokens):
                    for request in members:
                        allocator.set_allocation(request.request_id, blocks)
            if group.remaining == shift:
                for request in members:
                    # Fires the pool's status observer (bucket move).
                    request.status = RequestStatus.DONE
        if load_tracker is not None:
            if len(load_tracker) == len(self.batch):
                load_tracker.shift(shift)
            else:
                for group in self._groups:
                    seq_len = group.seq_len + shift
                    for request in group.members:
                        load_tracker.sync_member(request.request_id,
                                                 group.channel, seq_len)
