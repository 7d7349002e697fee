"""Unit tests for the request pool and the iteration-level scheduler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.paging import PagedKvAllocator, PagedKvConfig
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import IterationScheduler
from repro.model.spec import GPT3_7B


def req(request_id, input_len=8, output_len=4, arrival=0.0):
    return InferenceRequest(request_id, input_len=input_len,
                            output_len=output_len, arrival_time=arrival)


class TestRequestPool:
    def test_submit_and_get(self):
        pool = RequestPool()
        pool.submit(req(1))
        assert pool.get(1).request_id == 1
        assert 1 in pool
        assert len(pool) == 1

    def test_duplicate_id_raises(self):
        pool = RequestPool()
        pool.submit(req(1))
        with pytest.raises(ValueError):
            pool.submit(req(1))

    def test_waiting_respects_arrival_time(self):
        pool = RequestPool()
        pool.submit(req(1, arrival=100.0))
        pool.submit(req(2, arrival=5.0))
        assert [r.request_id for r in pool.waiting(now=10.0)] == [2]

    def test_waiting_sorted_by_arrival(self):
        pool = RequestPool()
        pool.submit(req(1, arrival=50.0))
        pool.submit(req(2, arrival=10.0))
        assert [r.request_id for r in pool.waiting()] == [2, 1]

    def test_retire_finished_removes_done(self):
        pool = RequestPool()
        request = req(1, output_len=1)
        pool.submit(request)
        pool.transition(request, RequestStatus.RUNNING)
        request.advance()
        pool.transition(request, RequestStatus.DONE)
        done = pool.retire_finished()
        assert [r.request_id for r in done] == [1]
        assert len(pool) == 0

    def test_channel_occupancy(self):
        pool = RequestPool()
        for i, channel in enumerate((0, 0, 1)):
            request = req(i)
            pool.submit(request)
            request.channel = channel
            pool.transition(request, RequestStatus.RUNNING)
        assert pool.channel_occupancy(2) == [2, 1]

    def test_format_table_renders_rows(self):
        pool = RequestPool()
        pool.submit(req(7))
        table = pool.format_table()
        assert "ReqID" in table and "7" in table


class TestObserverLifecycle:
    """Only the pool that holds a request may transition it: membership
    ends at eviction or retirement, and a handoff moves it to the new
    pool."""

    def test_evict_then_transition_raises(self):
        pool = RequestPool()
        request = req(1)
        pool.submit(request)
        evicted = pool.evict(1)
        assert evicted is request
        assert 1 not in pool
        with pytest.raises(KeyError):
            pool.transition(request, RequestStatus.RUNNING)
        assert request.status is RequestStatus.WAITING
        assert pool.running() == [] and pool.waiting() == []

    def test_evict_unknown_id_raises(self):
        with pytest.raises(KeyError):
            RequestPool().evict(42)

    def test_transition_of_unpooled_request_raises(self):
        pool = RequestPool()
        pool.submit(req(1))
        # Never submitted, and a different object under a pooled id.
        for stranger in (req(2), req(1)):
            with pytest.raises(KeyError):
                pool.transition(stranger, RequestStatus.RUNNING)
            assert stranger.status is RequestStatus.WAITING
        assert [r.request_id for r in pool.waiting()] == [1]

    def test_retire_then_transition_raises(self):
        pool = RequestPool()
        request = req(1, output_len=1)
        pool.submit(request)
        pool.transition(request, RequestStatus.RUNNING)
        request.advance()
        pool.transition(request, RequestStatus.DONE)
        [done] = pool.retire_finished()
        assert done is request and 1 not in pool
        with pytest.raises(KeyError):
            pool.transition(done, RequestStatus.WAITING)
        assert done.status is RequestStatus.DONE

    def test_cross_pool_handoff_old_pool_raises(self):
        first, second = RequestPool(), RequestPool()
        request = req(1)
        first.submit(request)
        first.evict(1)
        second.submit(request)
        # The old pool no longer holds the request; the new one tracks
        # its transitions.
        with pytest.raises(KeyError):
            first.transition(request, RequestStatus.RUNNING)
        second.transition(request, RequestStatus.RUNNING)
        assert [r.request_id for r in second.running()] == [1]
        assert first.running() == [] and first.waiting() == []

    def test_preemption_and_readmission_keep_buckets_exact(self):
        from repro.serving.paging import PagedKvConfig
        from repro.serving.preemption import PreemptingAllocatorPool
        pool = RequestPool()
        victim = req(1, input_len=32, output_len=16)
        survivor = req(2, input_len=32, output_len=16)
        pool.submit_all([victim, survivor])
        allocator = PagedKvAllocator(
            PagedKvConfig(block_tokens=16, capacity_bytes=1 << 26),
            GPT3_7B, layers_resident=1)
        for request in (victim, survivor):
            request.channel = 0
            pool.transition(request, RequestStatus.RUNNING)
            allocator.allocate(request.request_id, request.seq_len)
        preempting = PreemptingAllocatorPool([allocator], 1024)
        preempting.note_admission(victim)
        preempting.note_admission(survivor)

        assert allocator.used_blocks == 4
        event = preempting.preempt(victim)
        # Preemption frees the KV blocks; the demotion is the pool's.
        assert allocator.used_blocks == 4 - event.evicted_blocks == 2
        assert allocator.ledger_consistent()
        assert victim.status is RequestStatus.RUNNING
        pool.transition(victim, RequestStatus.WAITING)
        assert [r.request_id for r in pool.waiting()] == [1]
        assert [r.request_id for r in pool.running()] == [2]

        # Re-admission moves the victim back to RUNNING.
        allocator.allocate(victim.request_id, victim.seq_len)
        pool.transition(victim, RequestStatus.RUNNING)
        assert sorted(r.request_id for r in pool.running()) == [1, 2]
        assert pool.waiting() == []

        # Retirement after re-admission ends the pool's ownership.
        victim.generated = victim.output_len
        pool.transition(victim, RequestStatus.DONE)
        [done] = pool.retire_finished()
        assert done.request_id == 1
        assert 1 not in pool
        with pytest.raises(KeyError):
            pool.transition(done, RequestStatus.WAITING)


class TestPoolViewsMatchScan:
    """The pool's cached views against a brute-force scan of the pool,
    after every operation of a random sequence."""

    #: Few distinct arrivals, so equal arrival times are common.
    ARRIVALS = (0.0, 0.0, 1.0, 2.0, 2.0, 5.0)
    NOWS = (-1.0, 0.0, 1.0, 2.0, 4.0, math.inf)

    @staticmethod
    def _check(pool):
        members = list(pool)
        waiting = sorted(
            (r for r in members if r.status is RequestStatus.WAITING),
            key=lambda r: (r.arrival_time, r.request_id))
        for now in TestPoolViewsMatchScan.NOWS:
            arrived = [r for r in waiting if r.arrival_time <= now]
            assert pool.waiting(now) == arrived
            assert pool.has_waiting_arrived(now) == bool(arrived)
        assert pool.waiting() == waiting
        assert pool.next_arrival() is (waiting[0] if waiting else None)
        assert pool.waiting_count() == len(waiting)
        for view, status in ((pool.running(), RequestStatus.RUNNING),
                             (pool.finished(), RequestStatus.DONE)):
            assert view == sorted(
                (r for r in members if r.status is status),
                key=lambda r: r.request_id)

    @settings(deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["submit", "admit_head", "admit_other", "preempt",
                         "evict", "finish", "retire", "retry", "stale"]),
        st.integers(0, 63), st.sampled_from(ARRIVALS)), max_size=80))
    def test_random_ops(self, ops):
        pool = RequestPool()
        next_id = 0
        gone = []  # evicted or retired, never resubmitted
        for op, pick, arrival in ops:
            waiting = pool.waiting()
            running = pool.running()
            members = list(pool)
            if op == "submit":
                pool.submit(req(next_id, arrival=arrival))
                next_id += 1
            elif op == "admit_head" and waiting:
                waiting[0].channel = pick % 4
                pool.transition(waiting[0], RequestStatus.RUNNING)
            elif op == "admit_other" and len(waiting) > 1:
                pool.transition(waiting[1 + pick % (len(waiting) - 1)],
                                RequestStatus.RUNNING)
            elif op == "preempt" and running:
                victim = running[pick % len(running)]
                pool.transition(victim, RequestStatus.WAITING)
                victim.channel = None
            elif op == "evict" and members:
                gone.append(pool.evict(members[pick % len(members)]
                                       .request_id))
            elif op == "finish" and running:
                done = running[pick % len(running)]
                done.advance(done.output_len - done.generated)
                pool.transition(done, RequestStatus.DONE)
            elif op == "retire":
                gone.extend(pool.retire_finished())
            elif op == "stale" and gone:
                stale = gone[pick % len(gone)]
                status = stale.status
                with pytest.raises(KeyError):
                    pool.transition(stale, RequestStatus.RUNNING)
                assert stale.status is status
            elif op == "retry" and members:
                # The scheduler's retry: evict, demote the plain field,
                # re-base the arrival later, resubmit.
                request = members[pick % len(members)]
                pool.evict(request.request_id)
                request.status = RequestStatus.WAITING
                request.channel = None
                request.generated = 0
                request.arrival_time += 1.0 + arrival
                pool.submit(request)
            self._check(pool)

    def test_admitting_arrived_head_keeps_waiting_view(self):
        """Admission consumes the head of the arrival-sorted view; the
        cached view survives it (no re-sort of the later arrivals)."""
        pool = RequestPool()
        pool.submit_all(req(i, arrival=float(i // 2)) for i in range(8))
        arrived = pool.waiting(now=2.0)
        view = pool._sorted[RequestStatus.WAITING]
        assert [r.request_id for r in arrived] == [0, 1, 2, 3, 4, 5]
        for request in arrived[:3]:
            pool.transition(request, RequestStatus.RUNNING)
        assert pool._sorted[RequestStatus.WAITING] is view
        assert [r.request_id for r in pool.waiting(now=2.0)] == [3, 4, 5]
        assert pool.next_arrival() is arrived[3]


class TestIterationScheduler:
    def _executor(self, latency=100.0):
        calls = []

        def run(batch):
            calls.append([r.request_id for r in batch])
            return latency
        run.calls = calls  # type: ignore[attr-defined]
        return run

    def test_runs_until_pool_drains(self):
        pool = RequestPool()
        pool.submit_all(req(i, output_len=3) for i in range(4))
        scheduler = IterationScheduler(pool, self._executor(), max_batch_size=8)
        stats = scheduler.run()
        assert stats.total_tokens == 12
        assert len(pool) == 0

    def test_iteration_boundary_admission(self):
        """Orca's iteration-level scheduling: a late request joins at the
        next iteration boundary, not after the whole batch finishes."""
        pool = RequestPool()
        pool.submit(req(1, output_len=5))
        pool.submit(req(2, output_len=2, arrival=150.0))
        executor = self._executor(latency=100.0)
        scheduler = IterationScheduler(pool, executor, max_batch_size=8)
        scheduler.run()
        # Request 2 arrives at 150 and must appear from iteration 2 on.
        assert executor.calls[0] == [1]
        assert executor.calls[2] == [1, 2]

    def test_batch_size_cap_respected(self):
        pool = RequestPool()
        pool.submit_all(req(i, output_len=1) for i in range(10))
        executor = self._executor()
        scheduler = IterationScheduler(pool, executor, max_batch_size=4)
        scheduler.run()
        assert all(len(call) <= 4 for call in executor.calls)

    def test_finished_requests_leave_batch(self):
        pool = RequestPool()
        pool.submit(req(1, output_len=1))
        pool.submit(req(2, output_len=3))
        executor = self._executor()
        scheduler = IterationScheduler(pool, executor, max_batch_size=8)
        scheduler.run()
        assert executor.calls[0] == [1, 2]
        assert executor.calls[1] == [2]

    def test_throughput_computation(self):
        pool = RequestPool()
        pool.submit(req(1, output_len=10))
        scheduler = IterationScheduler(pool, self._executor(latency=1000.0),
                                       max_batch_size=1)
        stats = scheduler.run()
        # 10 tokens in 10,000 cycles at 1 GHz = 1e6 tokens/s.
        assert stats.throughput_tokens_per_second() == pytest.approx(1e6)

    def test_kv_allocation_grows_and_frees(self):
        pool = RequestPool()
        request = req(1, input_len=64, output_len=4)
        pool.submit(request)
        allocator = PagedKvAllocator(PagedKvConfig(), GPT3_7B)

        def assign(new):
            for r in new:
                r.channel = 0

        scheduler = IterationScheduler(pool, self._executor(),
                                       max_batch_size=4,
                                       allocators=[allocator],
                                       assign_channels=assign)
        scheduler.run()
        assert allocator.free_blocks == allocator.total_blocks

    def test_admission_blocked_without_capacity(self):
        pool = RequestPool()
        # Tiny allocator: one block only.
        config = PagedKvConfig(block_tokens=16,
                               capacity_bytes=2 * 4096 * 2 * 32 * 16)
        allocator = PagedKvAllocator(config, GPT3_7B)
        pool.submit(req(1, input_len=8, output_len=1))
        pool.submit(req(2, input_len=8, output_len=1))

        def assign(new):
            for r in new:
                r.channel = 0

        scheduler = IterationScheduler(pool, self._executor(),
                                       max_batch_size=4,
                                       allocators=[allocator],
                                       assign_channels=assign)
        record = scheduler.run_iteration()
        assert record.batch_size == 1  # second request did not fit

    def test_invalid_executor_latency_raises(self):
        pool = RequestPool()
        pool.submit(req(1))
        scheduler = IterationScheduler(pool, lambda batch: 0.0,
                                       max_batch_size=1)
        with pytest.raises(ValueError):
            scheduler.run_iteration()

    def test_empty_pool_returns_none(self):
        scheduler = IterationScheduler(RequestPool(), self._executor(),
                                       max_batch_size=1)
        assert scheduler.run_iteration() is None
