"""KV-cache preemption: swap-out / recompute instead of dropping requests.

The base :class:`~repro.serving.scheduler.IterationScheduler` finishes a
request early when its channel runs out of KV blocks mid-generation; real
serving systems (vLLM) instead *preempt*: evict the victim's KV cache and
later restore it, either by reloading a swapped copy from host memory or
by recomputing the prefill.  This module implements both policies on top
of the paged allocator, with explicit cost models so the serving examples
can show the throughput/latency effect of memory pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.serving.paging import PagedKvAllocator
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus


class RestorePolicy(Enum):
    """How a preempted request's KV cache comes back."""

    SWAP = "swap"            # copy to host memory, copy back later
    RECOMPUTE = "recompute"  # drop it, re-run the prefill on return


@dataclass(frozen=True)
class PreemptionCosts:
    """Cycle costs of eviction and restoration.

    ``swap_bandwidth`` is the host-link bytes/second for swap traffic;
    ``recompute_cycles_per_token`` approximates prefill recompute speed.
    """

    swap_bandwidth: float = 50e9
    recompute_cycles_per_token: float = 2000.0

    def __post_init__(self) -> None:
        if self.swap_bandwidth <= 0:
            raise ValueError("swap_bandwidth must be positive")
        if self.recompute_cycles_per_token <= 0:
            raise ValueError("recompute_cycles_per_token must be positive")

    def swap_cycles(self, kv_bytes: float) -> float:
        """One-way swap transfer time in cycles (1 GHz)."""
        return kv_bytes / self.swap_bandwidth * 1e9


@dataclass
class PreemptionEvent:
    """Record of one preemption (for reporting/tests)."""

    request_id: int
    at_tokens: int
    policy: RestorePolicy
    evicted_blocks: int
    restore_cost_cycles: float


class PreemptingAllocatorPool:
    """Per-channel allocators with a preemption escape hatch.

    When a request cannot grow its allocation, the pool evicts the
    *youngest* running request on that channel (vLLM's policy: the most
    recently admitted request has generated the least work to lose),
    records the restoration cost, and retries.
    """

    def __init__(self, allocators: Sequence[PagedKvAllocator],
                 spec_kv_bytes_per_token: int,
                 policy: RestorePolicy = RestorePolicy.RECOMPUTE,
                 costs: Optional[PreemptionCosts] = None) -> None:
        if spec_kv_bytes_per_token <= 0:
            raise ValueError("spec_kv_bytes_per_token must be positive")
        self.allocators = list(allocators)
        self.kv_bytes_per_token = spec_kv_bytes_per_token
        self.policy = policy
        self.costs = costs or PreemptionCosts()
        self.events: List[PreemptionEvent] = []
        #: requests currently swapped out / pending recompute, with the
        #: cycle cost to bring each back
        self.preempted: Dict[int, float] = {}
        self._admission_order: List[int] = []

    # ------------------------------------------------------------------

    def note_admission(self, request: InferenceRequest) -> None:
        """Record admission order (eviction prefers the youngest)."""
        if request.request_id not in self._admission_order:
            self._admission_order.append(request.request_id)

    def _youngest_on_channel(self, requests: Sequence[InferenceRequest],
                             channel: int,
                             exclude: int) -> Optional[InferenceRequest]:
        candidates = [r for r in requests
                      if r.channel == channel
                      and r.request_id != exclude
                      and r.status is RequestStatus.RUNNING]
        if not candidates:
            return None
        order = {rid: i for i, rid in enumerate(self._admission_order)}
        return max(candidates,
                   key=lambda r: order.get(r.request_id, -1))

    def preempt(self, victim: InferenceRequest) -> PreemptionEvent:
        """Evict one running request's KV cache.

        Frees the blocks and records the restore cost; moving the victim
        back to ``WAITING`` is its request pool's job.
        """
        channel = victim.channel if victim.channel is not None else 0
        blocks = self.allocators[channel].release(victim.request_id)
        kv_bytes = victim.seq_len * self.kv_bytes_per_token
        if self.policy is RestorePolicy.SWAP:
            # Pay the swap-out now; the swap-in cost is owed on return.
            restore = self.costs.swap_cycles(kv_bytes)
        else:
            restore = victim.seq_len * self.costs.recompute_cycles_per_token
        event = PreemptionEvent(
            request_id=victim.request_id,
            at_tokens=victim.generated,
            policy=self.policy,
            evicted_blocks=blocks,
            restore_cost_cycles=restore,
        )
        self.events.append(event)
        self.preempted[victim.request_id] = restore
        return event

    def grow(self, request: InferenceRequest,
             running: Sequence[InferenceRequest],
             request_pool: RequestPool) -> bool:
        """Grow ``request``'s allocation, preempting others if needed.

        Each victim is moved back to ``WAITING`` in ``request_pool``.
        Returns ``True`` on success; ``False`` if even after evicting all
        other requests on the channel the allocation cannot fit (the
        request itself is then the only occupant and genuinely too large).
        """
        channel = request.channel if request.channel is not None else 0
        allocator = self.allocators[channel]
        while not allocator.can_allocate(request.request_id, request.seq_len):
            victim = self._youngest_on_channel(running, channel,
                                               exclude=request.request_id)
            if victim is None:
                return False
            self.preempt(victim)
            request_pool.transition(victim, RequestStatus.WAITING)
        allocator.allocate(request.request_id, request.seq_len)
        return True

    def restore_cost(self, request_id: int) -> float:
        """Cycles owed to restore a preempted request (0 if not preempted)."""
        return self.preempted.pop(request_id, 0.0)

    @property
    def preemption_count(self) -> int:
        return len(self.events)


def run_with_preemption(scheduler_pool, device, requests,
                        allocators: Sequence[PagedKvAllocator],
                        kv_bytes_per_token: int,
                        policy: RestorePolicy = RestorePolicy.RECOMPUTE,
                        max_iterations: int = 100_000):
    """Serve ``requests`` with preemption-aware memory management.

    A compact serving loop (the base scheduler's admission plus the
    preempting pool): each iteration admits what fits, grows allocations
    with preemption, charges restoration costs as extra iteration latency,
    and retires finished requests.  Returns (total_cycles, tokens, pool).
    """
    pool = PreemptingAllocatorPool(allocators, kv_bytes_per_token,
                                   policy=policy)
    scheduler_pool.submit_all(requests)
    now = 0.0
    tokens = 0
    for _ in range(max_iterations):
        done = scheduler_pool.retire_finished()
        for request in done:
            channel = request.channel if request.channel is not None else 0
            allocators[channel].release(request.request_id)

        waiting = scheduler_pool.waiting(now)
        running = scheduler_pool.running()
        restore_penalty = 0.0
        for request in waiting:
            if request.channel is None:
                device.assign_channels([request], running)
            channel = request.channel if request.channel is not None else 0
            if allocators[channel].can_allocate(request.request_id,
                                                request.seq_len):
                allocators[channel].allocate(request.request_id,
                                             request.seq_len)
                request.channel = channel
                scheduler_pool.transition(request, RequestStatus.RUNNING)
                pool.note_admission(request)
                restore_penalty += pool.restore_cost(request.request_id)
        batch = scheduler_pool.running()
        if not batch:
            pending = scheduler_pool.next_arrival()
            if pending is None:
                break
            now = max(now, pending.arrival_time)
            continue

        latency = device.iteration(batch).latency + restore_penalty
        now += latency
        for request in batch:
            request.advance(1)
            tokens += 1
            if request.is_finished:
                scheduler_pool.transition(request, RequestStatus.DONE)
            elif not pool.grow(request, batch, scheduler_pool):
                # Cannot ever fit: finish early (degenerate case).
                request.generated = request.output_len
                scheduler_pool.transition(request, RequestStatus.DONE)
    return now, tokens, pool
