"""Tests for KV-cache preemption (swap / recompute)."""

import pytest

from repro.core.device import NeuPimsDevice
from repro.model.spec import GPT3_7B
from repro.serving.paging import PagedKvAllocator, PagedKvConfig
from repro.serving.pool import RequestPool
from repro.serving.preemption import (
    PreemptingAllocatorPool,
    PreemptionCosts,
    RestorePolicy,
    run_with_preemption,
)
from repro.serving.request import InferenceRequest, RequestStatus


def small_allocator(blocks=4):
    block_bytes = 2 * 4096 * 2 * 32 * 16  # one block of GPT3-7B KV
    return PagedKvAllocator(
        PagedKvConfig(block_tokens=16, capacity_bytes=block_bytes * blocks),
        GPT3_7B)


def running_request(rid, seq=16, channel=0, output_len=64):
    request = InferenceRequest(rid, input_len=seq, output_len=output_len,
                               status=RequestStatus.RUNNING, channel=channel)
    return request


def pooled(*requests):
    pool = RequestPool()
    pool.submit_all(requests)
    return pool


class TestPreemptionCosts:
    def test_swap_cycles_linear_in_bytes(self):
        costs = PreemptionCosts(swap_bandwidth=100e9)
        assert costs.swap_cycles(200e9) == pytest.approx(2e9)

    def test_invalid_costs_raise(self):
        with pytest.raises(ValueError):
            PreemptionCosts(swap_bandwidth=0.0)
        with pytest.raises(ValueError):
            PreemptionCosts(recompute_cycles_per_token=0.0)


class TestPreemptingPool:
    def test_grow_without_pressure_no_preemption(self):
        allocator = small_allocator(blocks=8)
        pool = PreemptingAllocatorPool([allocator],
                                       GPT3_7B.kv_bytes_per_token())
        request = running_request(0)
        allocator.allocate(0, request.seq_len)
        assert pool.grow(request, [request], pooled(request))
        assert pool.preemption_count == 0

    def test_grow_preempts_youngest(self):
        allocator = small_allocator(blocks=4)
        pool = PreemptingAllocatorPool([allocator],
                                       GPT3_7B.kv_bytes_per_token())
        old = running_request(0, seq=16)
        young = running_request(1, seq=16)
        for request in (old, young):
            allocator.allocate(request.request_id, request.seq_len)
            pool.note_admission(request)
        # Old request grows to need 3 blocks: young must be evicted.
        old.generated = 33
        requests = pooled(old, young)
        assert pool.grow(old, [old, young], requests)
        assert pool.preemption_count == 1
        assert pool.events[0].request_id == 1
        assert young.status is RequestStatus.WAITING
        assert requests.waiting() == [young]
        assert requests.running() == [old]

    def test_grow_fails_when_alone_and_too_big(self):
        allocator = small_allocator(blocks=2)
        pool = PreemptingAllocatorPool([allocator],
                                       GPT3_7B.kv_bytes_per_token())
        request = running_request(0, seq=16)
        allocator.allocate(0, 16)
        request.generated = 1000  # needs far more than 2 blocks
        assert not pool.grow(request, [request], pooled(request))

    def test_restore_cost_recompute_scales_with_context(self):
        allocator = small_allocator(blocks=4)
        pool = PreemptingAllocatorPool(
            [allocator], GPT3_7B.kv_bytes_per_token(),
            policy=RestorePolicy.RECOMPUTE,
            costs=PreemptionCosts(recompute_cycles_per_token=100.0))
        victim = running_request(2, seq=50)
        allocator.allocate(2, 50)
        pool.note_admission(victim)
        event = pool.preempt(victim)
        assert event.restore_cost_cycles == pytest.approx(50 * 100.0)
        assert pool.restore_cost(2) == pytest.approx(5000.0)
        assert pool.restore_cost(2) == 0.0  # consumed

    def test_swap_policy_costs_differ_from_recompute(self):
        allocator = small_allocator(blocks=4)
        kv = GPT3_7B.kv_bytes_per_token()
        swap = PreemptingAllocatorPool([allocator], kv,
                                       policy=RestorePolicy.SWAP)
        victim = running_request(3, seq=64)
        allocator.allocate(3, 64)
        event = swap.preempt(victim)
        expected = PreemptionCosts().swap_cycles(64 * kv)
        assert event.restore_cost_cycles == pytest.approx(expected)

    def test_invalid_kv_bytes_raise(self):
        with pytest.raises(ValueError):
            PreemptingAllocatorPool([small_allocator()], 0)


class TestPreemptiveServing:
    def _run(self, blocks, policy):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        requests = [InferenceRequest(i, input_len=24, output_len=24)
                    for i in range(6)]
        allocators = [small_allocator(blocks=blocks)
                      for _ in range(device.channel_pool)]
        return run_with_preemption(
            pool, device, requests, allocators,
            GPT3_7B.kv_bytes_per_token(), policy=policy)

    def test_all_tokens_generated_under_pressure(self):
        cycles, tokens, pool = self._run(blocks=3,
                                         policy=RestorePolicy.RECOMPUTE)
        assert tokens >= 6 * 24  # preempted requests regenerate tokens
        assert cycles > 0

    def test_no_preemptions_with_ample_memory(self):
        _, _, pool = self._run(blocks=64, policy=RestorePolicy.RECOMPUTE)
        assert pool.preemption_count == 0

    def test_memory_pressure_slows_serving(self):
        tight_cycles, _, tight_pool = self._run(
            blocks=3, policy=RestorePolicy.RECOMPUTE)
        ample_cycles, _, _ = self._run(blocks=64,
                                       policy=RestorePolicy.RECOMPUTE)
        if tight_pool.preemption_count > 0:
            assert tight_cycles > ample_cycles


class TestResilientReadmission:
    """Preemption + re-admission through the resilience retry path.

    A randomized Poisson-style trace under a deliberately tight KV
    budget forces mid-generation OOM; the scheduler must preempt the
    victim through :class:`PreemptingAllocatorPool`, evict it from the
    pool, resubmit it as WAITING and re-admit it without ever
    double-allocating a block.
    """

    def _run_randomized(self, seed):
        import random

        from repro.api import ServingSpec
        from repro.faults import ResilienceRuntime
        from repro.serving.events import RequestRetried
        from repro.serving.scheduler import IterationScheduler
        from repro.sim.events import EventBus

        rng = random.Random(seed)
        requests = []
        clock = 0.0
        for rid in range(8):
            clock += rng.expovariate(1.0 / 2000.0)
            requests.append(InferenceRequest(
                rid, input_len=rng.randint(12, 24),
                output_len=rng.randint(24, 48), arrival_time=clock))
        allocator = small_allocator(blocks=8)
        preempting = PreemptingAllocatorPool(
            [allocator], GPT3_7B.kv_bytes_per_token())
        runtime = ResilienceRuntime(
            ServingSpec(max_retries=100, retry_backoff_cycles=500.0),
            preempting=preempting)
        pool = RequestPool()
        pool.submit_all(requests)
        bus = EventBus()
        membership_checks = []

        def on_retry(event):
            # By emission time the victim is back in the pool, filed
            # under WAITING by the resubmit after its eviction.
            victim = pool.get(event.request_id)
            membership_checks.append(
                victim.status is RequestStatus.WAITING
                and any(r is victim for r in pool.waiting()))
            assert allocator.ledger_consistent()

        bus.subscribe(RequestRetried, on_retry)
        scheduler = IterationScheduler(
            pool, lambda batch: 1000.0, max_batch_size=4,
            allocators=[allocator], events=bus, resilience=runtime)
        scheduler.run(max_iterations=5000)
        return scheduler, runtime, preempting, allocator, membership_checks

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pressure_retries_then_drains_cleanly(self, seed):
        scheduler, runtime, preempting, allocator, checks = \
            self._run_randomized(seed)
        # The tight budget must actually bite, and every retry event
        # must have seen the victim pooled again as WAITING.
        assert runtime.counters["retries"] > 0
        assert preempting.preemption_count > 0
        assert checks and all(checks)
        # Conservation: everything completes, no block leaks, ledger
        # consistent (double allocation would corrupt it).
        assert len(scheduler.pool) == 0
        assert set(scheduler.outcomes.values()) == {"completed"}
        assert allocator.ledger_consistent()
        assert allocator.used_blocks == 0

    def test_evict_then_resubmit_allows_transitions(self):
        pool = RequestPool()
        request = InferenceRequest(0, input_len=8, output_len=8)
        pool.submit(request)
        pool.transition(request, RequestStatus.RUNNING)
        assert pool.running() == [request]
        pool.evict(0)
        assert 0 not in pool
        with pytest.raises(KeyError):
            pool.transition(request, RequestStatus.WAITING)
        # The retry path's plain demotion, then the resubmit.
        request.status = RequestStatus.WAITING
        pool.submit(request)
        assert 0 in pool and pool.waiting() == [request]
        pool.transition(request, RequestStatus.RUNNING)
        assert pool.running() == [request] and pool.waiting() == []
