"""Equivalence-class serving engine: grouped == per-request, bit for bit.

The grouped engine's contract is that ``grouping="auto"`` produces
records and aggregates **bit-identical** to ``grouping="off"`` for every
scenario.  These tests pin that contract across randomized Poisson and
replay traces (a seeded-random property loop), the multi-device system
engine, KV-pressure fallbacks and feature-flag variants, plus the unit
behavior of the grouping primitives themselves.
"""

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.api.bench import bucketed_replay_triples, serving_bench_spec
from repro.core import device as device_module
from repro.core.config import NeuPimsConfig
from repro.core.device import NeuPimsDevice
from repro.model.spec import GPT3_7B
from repro.serving.grouping import (ClassTable, GroupedExecutor,
                                    class_histogram, mha_histogram,
                                    shift_histogram)
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import IterationScheduler

FAST = dict(model="gpt3-7b", fidelity="analytic")


def run_pair(spec):
    """One scenario at both grouping modes -> (off, auto) result dicts."""
    off = Session(spec.override(grouping="off")).run()
    auto = Session(spec.override(grouping="auto")).run()
    return off.to_dict(), auto.to_dict()


class TestRecordIdentity:
    def test_replay_bucketed_trace_identical(self):
        spec = serving_bench_spec(num_requests=96)
        off, auto = run_pair(spec)
        assert off == auto
        assert off["iterations"] > 0

    def test_poisson_streaming_identical(self):
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=3e6, seed=11),
            serving=ServingSpec(max_batch_size=24))
        off, auto = run_pair(spec)
        assert off == auto

    def test_system_engine_identical(self):
        spec = ScenarioSpec(
            pp=2, tp=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=2e6, seed=5),
            serving=ServingSpec(max_batch_size=16))
        off, auto = run_pair(spec)
        assert off == auto

    def test_kv_pressure_fallback_identical(self):
        # A tiny KV pool forces the grouped engine to refuse batched
        # growth and hand iterations to the per-request path (which owns
        # the exact mid-generation OOM semantics).
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.08,
                                        horizon_cycles=3e6, seed=2),
            serving=ServingSpec(max_batch_size=32,
                                kv_capacity_bytes=1 << 22))
        off, auto = run_pair(spec)
        assert off == auto

    def test_randomized_property_loop(self):
        # Seeded-random sweep over traffic shapes and serving knobs: the
        # grouped path must be bit-identical on every draw.
        rng = random.Random(1234)
        for trial in range(6):
            if rng.random() < 0.5:
                traffic = TrafficSpec.poisson(
                    rate_per_kcycle=rng.choice((0.02, 0.05, 0.1)),
                    horizon_cycles=rng.choice((1e6, 2e6)),
                    seed=rng.randrange(1000))
            else:
                triples = [(rng.choice((32, 64, 128)),
                            rng.choice((8, 16, 24)),
                            float(rng.randrange(0, 500_000)))
                           for _ in range(rng.randrange(8, 40))]
                traffic = TrafficSpec.replay(triples)
            spec = ScenarioSpec(
                layers_resident=rng.choice((1, 2)), **FAST,
                traffic=traffic,
                serving=ServingSpec(
                    max_batch_size=rng.choice((4, 12, 32)),
                    paged_kv=rng.random() < 0.8,
                    load_tracker=rng.random() < 0.8,
                    max_iterations=rng.choice((200, 100_000))))
            if rng.random() < 0.3:
                spec = spec.override(sub_batch_interleaving=False)
            off, auto = run_pair(spec)
            assert off == auto, f"trial {trial} diverged: {spec}"

    def test_latency_report_identical(self):
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=3e6, seed=9),
            serving=ServingSpec(max_batch_size=16))
        off = Session(spec.override(grouping="off"))
        auto = Session(spec.override(grouping="auto"))
        off.run()
        auto.run()
        assert off.latency_tracker.report().summary() == \
            auto.latency_tracker.report().summary()


class TestGroupingModes:
    def test_auto_falls_back_for_baselines(self):
        base = ScenarioSpec(
            system="gpu-only", layers_resident=2, model="gpt3-7b",
            fidelity="analytic",
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=2e6, seed=4),
            serving=ServingSpec(max_batch_size=8))
        off, auto = run_pair(base)
        assert off == auto

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="grouping"):
            ServingSpec(grouping="sometimes")
        # "auto" already groups wherever a class engine exists.
        with pytest.raises(ValueError, match="grouping"):
            ServingSpec(grouping="on")

    def test_grouping_knob_round_trips(self):
        for mode in ("auto", "off"):
            spec = ScenarioSpec(serving=ServingSpec(grouping=mode))
            assert ScenarioSpec.from_dict(spec.to_dict()).serving \
                .grouping == mode
        assert spec.override(grouping="auto").serving.grouping == "auto"


class TestGroupCommitWindows:
    def _scheduler(self, batch_size=32, output_len=40):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        pool = RequestPool()
        pool.submit_all(
            InferenceRequest(i, input_len=64 + 32 * (i % 3),
                             output_len=output_len,
                             status=RequestStatus.RUNNING)
            for i in range(batch_size))
        grouped = GroupedExecutor(
            device.table_plan,
            lambda plan, shift: device.iteration_from_plan(plan,
                                                           shift).latency)
        scheduler = IterationScheduler(
            pool, device.executor(), max_batch_size=batch_size,
            assign_channels=device.assign_channels,
            grouped=grouped)
        return scheduler

    def test_one_call_commits_a_window(self):
        scheduler = self._scheduler()
        record = scheduler.run_iteration(max_steps=10)
        assert record is not None
        assert len(scheduler.stats.iterations) == 10
        # The window closed inside the call: every request carries the
        # ten committed tokens.
        running = scheduler.pool.running()
        assert running  # batch still running after 10 iterations
        assert all(r.generated == 10 for r in running)

    def test_window_stops_before_until(self):
        reference = self._scheduler()
        reference.run(max_iterations=12)
        until = reference.stats.iterations[6].start_time
        scheduler = self._scheduler()
        scheduler.run_iteration(max_steps=100, until=until)
        # Iterations 0..5 start before ``until``; 6 starts at it.
        assert len(scheduler.stats.iterations) == 6
        assert all(r.generated == 6 for r in scheduler.pool.running())
        # The first iteration of a call always runs.
        scheduler.run_iteration(max_steps=100, until=0.0)
        assert len(scheduler.stats.iterations) == 7
        a = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in reference.stats.iterations[:7]]
        b = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in scheduler.stats.iterations]
        assert a == b

    def test_single_step_calls_match_run(self):
        full = self._scheduler()
        full.run(max_iterations=25)
        stepped = self._scheduler()
        for _ in range(25):
            if stepped.run_iteration(max_steps=1) is None:
                break
        a = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in full.stats.iterations[:25]]
        b = [(r.index, r.start_time, r.latency, r.batch_size)
             for r in stepped.stats.iterations[:25]]
        assert a == b

    def test_max_iterations_budget_respected(self):
        scheduler = self._scheduler()
        stats = scheduler.run(max_iterations=7)
        assert len(stats.iterations) == 7


class TestEveryIterationGroups:
    """Boundary iterations are a window's first step: every iteration the
    KV pool can grow goes through the class engine, and only starved ones
    run per request."""

    @staticmethod
    def _instrument(session):
        """Start times of the grouped and the per-request iterations."""
        session.materialize()
        scheduler = session.scheduler
        grouped, per_request = [], []
        run, executor = scheduler.grouped.run, scheduler.executor

        def grouped_run(plan, shift):
            grouped.append(scheduler.now)
            return run(plan, shift)

        def executor_run(batch):
            per_request.append(scheduler.now)
            return executor(batch)
        scheduler.grouped.run = grouped_run
        scheduler.executor = executor_run
        return grouped, per_request

    def test_no_pressure_replay_groups_every_iteration(self):
        session = Session(serving_bench_spec(num_requests=96))
        grouped, per_request = self._instrument(session)
        result = session.run()
        assert len(grouped) == result.iterations > 0
        assert per_request == []
        assert result.to_dict() == Session(serving_bench_spec(
            num_requests=96, grouping="off")).run().to_dict()

    def test_starved_iterations_run_per_request(self):
        from repro.serving.events import KvPressure
        spec = ScenarioSpec(
            layers_resident=2, **FAST,
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.08,
                                        horizon_cycles=3e6, seed=2),
            serving=ServingSpec(max_batch_size=32,
                                kv_capacity_bytes=1 << 22))
        session = Session(spec)
        grouped, per_request = self._instrument(session)
        pressure = []
        session.events.subscribe(KvPressure,
                                 lambda event: pressure.append(event.time))
        result = session.run()
        # A starved iteration reports its OOM growth; no other iteration
        # leaves the class engine.
        assert per_request and sorted(set(pressure)) == per_request
        assert not set(per_request) & set(grouped)
        assert len(grouped) + len(per_request) == result.iterations


class TestGroupingPrimitives:
    def _requests(self):
        reqs = []
        for i, (seq, out, channel) in enumerate(
                [(64, 8, 0), (64, 8, 0), (64, 4, 1), (128, 8, 1)]):
            request = InferenceRequest(i, input_len=seq, output_len=out,
                                       status=RequestStatus.RUNNING)
            request.channel = channel
            reqs.append(request)
        return reqs

    def test_mha_histogram_canonical(self):
        hist = mha_histogram(self._requests())
        assert hist == ((0, 64, 2), (1, 64, 1), (1, 128, 1))

    def test_shift_preserves_order_and_counts(self):
        hist = mha_histogram(self._requests())
        shifted = shift_histogram(hist, 3)
        assert shifted == ((0, 67, 2), (1, 67, 1), (1, 131, 1))
        assert shift_histogram(hist, 0) is hist

    def test_class_histogram_keys(self):
        classes = class_histogram(self._requests())
        assert classes == {(0, 64, 8): 2, (1, 64, 4): 1, (1, 128, 8): 1}

    def test_pool_class_histogram(self):
        pool = RequestPool()
        for request in self._requests():
            pool.submit(request)
        assert pool.class_histogram() == class_histogram(self._requests())
        assert pool.class_histogram(RequestStatus.WAITING) == {}

    def test_state_sync_applies_tokens_and_finishes(self):
        reqs = self._requests()
        pool = RequestPool()
        pool.submit_all(reqs)
        table = ClassTable()
        table.open(reqs)
        assert table.steps_until_finish() == 4
        for _ in range(4):
            table.advance()
        table.sync(pool, None, None)
        assert [r.generated for r in reqs] == [4, 4, 4, 4]
        assert reqs[2].status is RequestStatus.DONE
        assert reqs[0].status is RequestStatus.RUNNING
        # The finished class moved buckets through the pool.
        assert pool.finished() == [reqs[2]]
        assert pool.running() == [reqs[0], reqs[1], reqs[3]]

    def test_state_sync_rejects_a_pool_without_the_members(self):
        reqs = self._requests()
        table = ClassTable()
        table.open(reqs)
        for _ in range(4):
            table.advance()
        with pytest.raises(KeyError):
            table.sync(RequestPool(), None, None)

    def test_mha_stage_matches_class_stage(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        reqs = self._requests()
        assert device.mha_stage(reqs) == \
            device.mha_stage_classes(mha_histogram(reqs))

    def test_iteration_replay_memo_hits_are_identical(self):
        device = NeuPimsDevice(GPT3_7B, tp=4, layers_resident=2)
        reqs = self._requests()
        plan = device.prepare_class_plan(reqs)
        first = device.iteration_from_plan(plan, 0)
        again = device.iteration_from_plan(plan, 0)
        assert again is first  # exact-signature replay
        shifted = device.iteration_from_plan(plan, 1)
        assert shifted.latency >= 0


class TestAllocatorLedger:
    def test_grouped_run_keeps_ledger_consistent(self):
        spec = serving_bench_spec(num_requests=64)
        session = Session(spec.override(grouping="auto"))
        session.run()
        assert all(allocator.ledger_consistent()
                   for allocator in session.allocators)
        # All requests retired -> everything released.
        assert all(allocator.used_blocks == 0
                   for allocator in session.allocators)

    def test_bucketed_triples_deterministic(self):
        assert bucketed_replay_triples(16) == bucketed_replay_triples(16)
        with pytest.raises(ValueError):
            bucketed_replay_triples(0)


class _Blocks:
    """The part of a paged-KV allocator a class table and its window
    close touch: the block size and the per-request ledger."""

    def __init__(self, block_tokens):
        self.config = SimpleNamespace(block_tokens=block_tokens)
        self.ledger = {}

    def set_allocation(self, request_id, blocks):
        self.ledger[request_id] = blocks


def _blocks_for(tokens, block_tokens):
    return -(-tokens // block_tokens)


def _table_view(table):
    """A table's classes and indexes with seq_lens and finish offsets
    made absolute (the table's own offset taken out)."""
    offset = table.offset

    def absolute(key):
        channel, relative, finish = key
        return channel, relative + offset, finish - offset
    return {
        "classes": {absolute(key): sorted(members)
                    for key, members in table.classes.items()},
        "crossings": {(size, (residue - offset) % size):
                      sorted(map(absolute, keys))
                      for (size, residue), keys in table._crossings.items()},
        "finishing": {finish - offset: sorted(map(absolute, keys))
                      for finish, keys in table._finishing.items()},
        "size": len(table),
        "steps": table.steps_until_finish(),
        "need": table.block_need(),
    }


class TestLiveClassTable:
    """The live class table against one rebuilt from scratch, after every
    boundary of a random admit / finish / timeout / retry / failover
    sequence: its classes and indexes, its device plan (against
    ``prepare_class_plan``) and its basis stages (against canonical MHA
    passes), and every window step (against a fresh device)."""

    #: Block size per channel, for pools of up to 32 channels.
    BLOCK_TOKENS = (4, 4, 8, 16) * 8
    #: Channel 0 about half the time (taken modulo the channel pool), so
    #: parity flips there relabel the spare of every later odd-sized
    #: channel (Algorithm 3's ``turn``): up to 31 at 32 channels.
    _channel = st.one_of(st.just(0), st.integers(1, 31))
    _admit = st.tuples(st.just("admit"), _channel, st.integers(1, 40),
                       st.integers(1, 12))
    _op = st.one_of(
        _admit, _admit, _admit,
        st.tuples(st.sampled_from(["timeout", "retry", "failover",
                                   "readmit"]), st.integers(0, 63)),
        st.tuples(st.just("window"), st.integers(1, 8)))

    def _check_boundary(self, table, device, batch):
        fresh = ClassTable(allocators=[_Blocks(size)
                                       for size in self.BLOCK_TOKENS])
        fresh.open(list(batch))
        assert _table_view(table) == _table_view(fresh)
        plan = device.table_plan(table)
        reference = NeuPimsDevice(GPT3_7B, device.config, layers_resident=2,
                                  channel_pool=device.channel_pool)
        expected = reference.prepare_class_plan(list(batch))
        hists = ([plan.hist] if plan.split is None
                 else [hist for _, hist in plan.split])
        assert plan.batch_size == expected.batch_size == len(batch)
        if expected.split is None:
            assert plan.split is None
            assert shift_histogram(plan.hist, plan.offset) == expected.hist
        else:
            assert [(size, shift_histogram(hist, plan.offset))
                    for size, hist in plan.split] == list(expected.split)
        bases = device._bases
        assert bases[0] is plan
        for hist, basis in zip(hists, bases[1:]):
            if basis is not None:
                start, stage, _ = basis
                assert stage == reference.mha_stage_classes(
                    shift_histogram(hist, start))
        return plan, reference, expected

    def _window(self, pool, table, device, allocators, steps):
        batch = pool.running()
        if not batch:
            return
        table.open(batch)
        plan, reference, expected = self._check_boundary(table, device,
                                                         batch)
        for shift in range(min(steps, table.steps_until_finish())):
            need = {}
            for request in batch:
                size = self.BLOCK_TOKENS[request.channel]
                if (request.seq_len + shift) % size == 0:
                    need[request.channel] = need.get(request.channel, 0) + 1
            assert table.block_need() == need
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration_from_plan(expected, shift)
            table.advance()
        table.sync(pool, allocators, None)
        for request in pool.running():
            assert allocators[request.channel].ledger[request.request_id] \
                == _blocks_for(request.seq_len,
                               self.BLOCK_TOKENS[request.channel])
        pool.retire_finished()
        # Only a window that finishes its whole batch detaches the table.
        assert table.stale == (not pool.running())

    @settings(deadline=None)
    @given(channels=st.sampled_from([4, 32]),
           config=st.sampled_from([NeuPimsConfig(),
                                   NeuPimsConfig(sub_batch_interleaving=False),
                                   NeuPimsConfig(dual_row_buffer=False)]),
           ops=st.lists(_op, min_size=10, max_size=80),
           resplit=st.sampled_from([0, device_module._RESPLIT, 10 ** 6]))
    def test_matches_rebuilt_table(self, channels, config, ops, resplit):
        # _RESPLIT 0 applies every delta one by one, the default re-splits
        # a wave whole, a large one re-splits on any delta.
        with mock.patch.object(device_module, "_RESPLIT", resplit):
            self._run(channels, config, ops)

    def _run(self, channels, config, ops):
        device = NeuPimsDevice(GPT3_7B, config, layers_resident=2,
                               channel_pool=channels)
        allocators = [_Blocks(size) for size in self.BLOCK_TOKENS]
        pool = RequestPool()
        table = ClassTable(pool, allocators)
        table.open([])  # attach: every later delta reaches the table
        waiting = []  # retried or extracted, to be re-admitted
        next_id = 0
        drained = False  # stale until a window opens the table again

        def admit(request, channel):
            request.channel = channel
            allocators[channel].ledger[request.request_id] = _blocks_for(
                request.seq_len, self.BLOCK_TOKENS[channel])
            pool.transition(request, RequestStatus.RUNNING)

        for op in ops:
            running = pool.running()
            if op[0] == "admit":
                _, channel, input_len, output_len = op
                request = InferenceRequest(next_id, input_len, output_len)
                next_id += 1
                pool.submit(request)
                admit(request, channel % channels)
            elif op[0] == "window":
                self._window(pool, table, device, allocators, op[1])
                drained = table.stale
            elif op[0] == "readmit" and waiting:
                request = waiting.pop(op[1] % len(waiting))
                pool.submit(request)  # its old, lower id: mid-list
                admit(request, op[1] % channels)
            elif op[0] != "readmit" and running:
                request = running[op[1] % len(running)]
                pool.evict(request.request_id)
                request.status = RequestStatus.WAITING
                if op[0] != "timeout":
                    waiting.append(request)
                if op[0] == "failover":
                    request.channel = None
            assert table.stale == drained  # every join and leave was found
        self._window(pool, table, device, allocators, 1)

    def test_running_submit_rebuilds_at_open(self):
        """A request submitted already RUNNING (a warmed batch) joins no
        table: the next open sees the count differ and rebuilds, and the
        device plans the rebuilt table like the batch."""
        device = NeuPimsDevice(GPT3_7B, NeuPimsConfig(), layers_resident=2,
                               channel_pool=4)
        allocators = [_Blocks(size) for size in self.BLOCK_TOKENS]
        pool = RequestPool()
        table = ClassTable(pool, allocators)
        table.open([])

        def place(request_id, channel, status):
            request = InferenceRequest(request_id, 5 + 3 * request_id, 20,
                                       status=status, channel=channel)
            allocators[channel].ledger[request_id] = _blocks_for(
                request.seq_len, self.BLOCK_TOKENS[channel])
            pool.submit(request)
            return request

        for request_id in range(5):
            pool.transition(place(request_id, request_id % 2,
                                  RequestStatus.WAITING),
                            RequestStatus.RUNNING)
        self._window(pool, table, device, allocators, 3)  # offset 3
        place(5, 0, RequestStatus.RUNNING)  # joins no table
        assert len(table) == 5 and len(pool.running()) == 6
        table.open(pool.running())
        assert len(table) == 6
        self._check_boundary(table, device, pool.running())
        self._window(pool, table, device, allocators, 2)
        # One that leaves again before the next open: the table goes stale.
        place(6, 1, RequestStatus.RUNNING)
        pool.evict(6)
        assert table.stale and pool.table is None
        self._window(pool, table, device, allocators, 2)
