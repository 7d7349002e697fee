"""Equivalence of the batch-replay fast path with the per-command drain.

``MemoryController.drain_fast`` must be *observationally identical* to
``drain`` — finish time, refresh counts, C/A-bus busy cycles and every
per-command-type stat counter — on every scenario the controller handles:
refresh hoisting, GEMV interruption, activation replay after refresh, and
the homogeneous run shapes it accelerates (fine-grained wave trains,
composite streams, GWRITE and RD/WR bursts).
"""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandType
from repro.dram.controller import (CommandQueue, ControllerConfig,
                                   MemoryController)
from repro.dram.timing import HbmOrganization
from repro.pim.gemv import GemvOp, composite_stream, fine_grained_stream
from repro.sim.stats import StatsRegistry

ORG = HbmOrganization()


def build(dual=True, **cfg):
    channel = Channel(0, dual_row_buffer=dual)
    return MemoryController(channel, ControllerConfig(**cfg))


def drain_both(stream, mem=False, dual=True, **cfg):
    slow = build(dual=dual, **cfg)
    fast = build(dual=dual, **cfg)
    for ctrl in (slow, fast):
        (ctrl.enqueue_mem if mem else ctrl.enqueue_pim)(list(stream))
    slow.drain()
    fast.drain_fast()
    return slow, fast


def assert_equivalent(slow, fast):
    assert fast.finish_time == slow.finish_time
    assert fast.stats.as_dict() == slow.stats.as_dict()
    assert fast.channel.ca_busy_cycles == slow.channel.ca_busy_cycles


def fine_stream(rows=2048, cols=2048):
    return fine_grained_stream(GemvOp(rows=rows, cols=cols, tag="t"), ORG)


def multi_composite(count=60, k_rows=512):
    stream = []
    for i in range(count):
        stream += composite_stream(
            GemvOp(rows=k_rows, cols=512, tag=f"g{i}"), ORG)
    return stream


class TestActReplayScenario:
    """Fine-grained waves crossing refreshes (ACT replay after REF)."""

    def test_fine_grained_with_refresh_matches(self):
        slow, fast = drain_both(fine_stream(), header_aware_refresh=False)
        assert slow.stats.get("refresh.issued") > 0
        assert slow.stats.get("refresh.act_replays") > 0
        assert_equivalent(slow, fast)

    def test_fine_grained_replays_most_commands(self):
        stream = fine_stream(4096, 4096)
        _, fast = drain_both(stream, header_aware_refresh=False)
        assert fast.replay.runs >= 1
        assert fast.replay.replayed > 0.9 * len(stream)

    def test_mem_act_replay_after_refresh(self):
        commands = [Command(CommandType.ACT, bank=0, row=7)]
        commands += [Command(CommandType.RD, bank=0) for _ in range(2000)]
        commands.append(Command(CommandType.PRE, bank=0))
        slow, fast = drain_both(commands, mem=True)
        assert slow.stats.get("refresh.act_replays") > 0
        assert_equivalent(slow, fast)


class TestRefreshHoistScenario:
    """Header-aware refresh hoisting (composite ISA)."""

    def test_hoisted_refreshes_match(self):
        slow, fast = drain_both(multi_composite(), header_aware_refresh=True)
        assert slow.stats.get("refresh.hoisted") > 0
        assert_equivalent(slow, fast)

    def test_hoist_counts_preserved_across_replay(self):
        slow, fast = drain_both(multi_composite(count=120))
        assert fast.replay.replayed > 0
        assert fast.stats.get("refresh.hoisted") \
            == slow.stats.get("refresh.hoisted")


class TestGemvInterruptScenario:
    """Baseline mode: refresh preempts in-flight GEMVs."""

    def test_interrupted_gemvs_match(self):
        slow, fast = drain_both(multi_composite(count=120, k_rows=2048),
                                header_aware_refresh=False)
        assert slow.stats.get("refresh.gemv_interrupted") > 0
        assert_equivalent(slow, fast)


class TestRunShapes:
    """Homogeneous run shapes the replay engine recognizes."""

    def test_gwrite_burst(self):
        stream = [Command(CommandType.PIM_GWRITE, bank=0, row=9)
                  for _ in range(300)]
        slow, fast = drain_both(stream, refresh_enabled=False)
        assert fast.replay.replayed > 200
        assert_equivalent(slow, fast)

    def test_act_rd_pre_run(self):
        commands = []
        for row in range(400):
            commands += [Command(CommandType.ACT, bank=2, row=row),
                         Command(CommandType.RD, bank=2),
                         Command(CommandType.PRE, bank=2)]
        slow, fast = drain_both(commands, mem=True)
        assert fast.replay.replayed > 0
        assert_equivalent(slow, fast)

    def test_write_run(self):
        commands = [Command(CommandType.ACT, bank=1, row=3)]
        commands += [Command(CommandType.WR, bank=1) for _ in range(1500)]
        commands.append(Command(CommandType.PRE, bank=1))
        slow, fast = drain_both(commands, mem=True)
        assert_equivalent(slow, fast)

    def test_no_refresh_wave_train_is_one_run(self):
        stream = fine_stream(4096, 2048)
        _, fast = drain_both(stream, refresh_enabled=False)
        assert fast.replay.replayed > 0.95 * len(stream)

    def test_blocked_mode_fine_grained(self):
        slow, fast = drain_both(fine_stream(1024, 1024), dual=False,
                                header_aware_refresh=False)
        assert_equivalent(slow, fast)


class TestEdgeCases:
    def test_mixed_queues_fall_back_to_stepping(self):
        def mixed():
            ctrl = build(refresh_enabled=False)
            ctrl.enqueue_pim(multi_composite(count=5))
            for bank in range(4):
                for row in range(10):
                    ctrl.enqueue_mem([
                        Command(CommandType.ACT, bank=bank, row=row),
                        Command(CommandType.RD, bank=bank),
                        Command(CommandType.PRE, bank=bank)])
            return ctrl
        slow, fast = mixed(), mixed()
        slow.drain()
        fast.drain_fast()
        assert_equivalent(slow, fast)

    def test_empty_queues(self):
        ctrl = build()
        assert ctrl.drain_fast() == []
        assert ctrl.finish_time == 0.0

    def test_drain_fast_idempotent(self):
        ctrl = build(refresh_enabled=False)
        ctrl.enqueue_pim(multi_composite(count=3))
        first = ctrl.drain_fast()
        finish = ctrl.finish_time
        second = ctrl.drain_fast()
        assert second == first
        assert ctrl.finish_time == finish

    def test_zero_hunt_budget_degenerates_to_drain(self):
        stream = fine_stream(512, 512)
        slow = build(header_aware_refresh=False)
        fast = build(header_aware_refresh=False)
        slow.enqueue_pim(list(stream))
        fast.enqueue_pim(list(stream))
        slow.drain()
        fast.drain_fast(hunt_budget=0)
        assert fast.replay.replayed == 0
        assert len(fast.records) == len(slow.records)
        assert_equivalent(slow, fast)

    def test_records_are_abridged_not_wrong(self):
        """Stepped records of the fast drain are a subsequence of the
        slow drain's records with identical issue times."""
        stream = fine_stream(1024, 512)
        slow, fast = drain_both(stream, refresh_enabled=False)
        slow_times = {(r.command.ctype, r.issue_time) for r in slow.records}
        for record in fast.records:
            assert (record.command.ctype, record.issue_time) in slow_times

    @pytest.mark.parametrize("seq_len", [128, 640, 1333])
    def test_serving_style_streams(self, seq_len):
        """Logit+attend per request, several requests back to back."""
        stream = []
        for i in range(30):
            stream += composite_stream(
                GemvOp(rows=seq_len * 8, cols=128, tag=f"logit[{i}]"), ORG)
            stream += composite_stream(
                GemvOp(rows=128 * 8, cols=seq_len, tag=f"attend[{i}]"), ORG)
        slow, fast = drain_both(stream)
        assert_equivalent(slow, fast)


#: (composite encoding, rows, cols): up to 96 waves, several refreshes.
_GEMV = st.tuples(st.booleans(),
                  st.integers(1, 48 * ORG.banks_per_channel),
                  st.integers(1, 2 * ORG.elements_per_page(2)))
#: (bank, RD or WR, column accesses) between one ACT and one PRE.
_BURST = st.tuples(st.integers(0, ORG.banks_per_channel - 1),
                   st.sampled_from([CommandType.RD, CommandType.WR]),
                   st.integers(1, 400))


def _random_streams(gemvs, bursts):
    pim = []
    for i, (composite, rows, cols) in enumerate(gemvs):
        encode = composite_stream if composite else fine_grained_stream
        pim += encode(GemvOp(rows=rows, cols=cols, tag=f"g{i}"), ORG)
    mem = []
    for i, (bank, ctype, count) in enumerate(bursts):
        # Rows far above any GEMV row, so the dual-buffer same-row rule
        # never trips.
        mem.append(Command(CommandType.ACT, bank=bank, row=60_000 + i))
        mem += [Command(ctype, bank=bank) for _ in range(count)]
        mem.append(Command(CommandType.PRE, bank=bank))
    return pim, mem


class TestRandomStreams:
    """``drain_fast`` against ``drain`` on random concatenated streams."""

    @settings(deadline=None)
    # Shapes come from a pool of one or two, so the same wave trains and
    # state keys recur across GEMVs of one stream.
    @given(gemvs=st.lists(_GEMV, min_size=1, max_size=2).flatmap(
               lambda pool: st.lists(st.sampled_from(pool),
                                     min_size=1, max_size=4)),
           bursts=st.lists(_BURST, max_size=3),
           dual=st.booleans(), refresh=st.booleans(),
           header_aware=st.booleans(),
           hunt_budget=st.sampled_from([0, 8, 128]),
           own_stats=st.booleans())
    def test_matches_drain(self, gemvs, bursts, dual, refresh, header_aware,
                           hunt_budget, own_stats):
        pim, mem = _random_streams(gemvs, bursts)
        controllers = []
        for _ in range(2):
            channel = Channel(0, dual_row_buffer=dual)
            ctrl = MemoryController(
                channel,
                ControllerConfig(refresh_enabled=refresh,
                                 header_aware_refresh=header_aware),
                # A controller registry apart from the channel's exercises
                # the per-registry replay deltas.
                stats=StatsRegistry() if own_stats else None)
            ctrl.enqueue_pim(list(pim))
            ctrl.enqueue_mem(list(mem))
            controllers.append(ctrl)
        slow, fast = controllers
        slow.drain()
        fast.drain_fast(hunt_budget=hunt_budget)
        assert fast.finish_time == slow.finish_time
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.channel.stats.as_dict() == slow.channel.stats.as_dict()
        assert fast.channel.ca_busy_cycles == slow.channel.ca_busy_cycles
        assert fast.counter_view() == slow.counter_view()
        assert fast.replay.total == len(pim) + len(mem)


def _fine_waves(waves):
    """A fine-grained GEMV of ``waves`` waves and one GWRITE."""
    return fine_grained_stream(
        GemvOp(rows=waves * ORG.banks_per_channel,
               cols=ORG.elements_per_page(2), tag="w"), ORG)


def _stepped_per_length(dual):
    """Commands ``drain_fast`` steps for 128, 512 and 1536 waves."""
    stepped = []
    for waves in (128, 512, 1536):
        ctrl = build(dual=dual, header_aware_refresh=False)
        ctrl.enqueue_pim(_fine_waves(waves))
        ctrl.drain_fast()
        assert ctrl.replay.total == len(_fine_waves(waves))
        assert ctrl.stats.get("refresh.issued") > waves // 16
        stepped.append(ctrl.replay.stepped)
    return stepped


class TestReplayCounts:
    """Replay pays per run, not per refresh interval or per command."""

    def test_blocked_fine_grained_steps_do_not_grow_with_length(self):
        stepped = _stepped_per_length(dual=False)
        assert stepped[0] == stepped[1] == stepped[2]

    def test_dual_fine_grained_steps_do_not_grow_with_length(self):
        # A refresh moves pim_busy_until, which is dead in dual mode and
        # so kept out of the key: the kept run recurs after each refresh.
        stepped = _stepped_per_length(dual=True)
        assert stepped[0] == stepped[1] == stepped[2]

    def test_long_blocked_stream_crosses_refreshes_in_one_super_period(self):
        stream = _fine_waves(512)
        slow, fast = drain_both(stream, dual=False,
                                header_aware_refresh=False)
        assert slow.stats.get("refresh.issued") > 30
        assert fast.replay.replayed > 0.98 * len(stream)
        assert_equivalent(slow, fast)

    @pytest.mark.parametrize("limit", [None, 0, 1, 3, 1000])
    def test_scan_returns_at_most_limit(self, limit):
        block = list(fine_stream(ORG.banks_per_channel, 512))[1:12]
        queue = CommandQueue()
        queue.extend(block * 8)
        reps = queue.count_reps(block, limit)
        assert reps == (8 if limit is None else max(0, min(8, limit)))

    @pytest.mark.parametrize("limit", [0, -1, -50])
    def test_non_positive_limit_scans_nothing(self, limit):
        class Untouchable(deque):
            def __iter__(self):
                raise AssertionError("scanned the queue")

        block = [Command(CommandType.PIM_GWRITE, bank=0, row=1)]
        queue = CommandQueue()
        queue.extend(block * 4)
        queue._runs = Untouchable(queue._runs)
        assert queue.count_reps(block, limit) == 0


def _reference_stream(op, org, composite, dtype_bytes=2, base_row=0):
    """The command lists the stream descriptors stand for, built one
    command at a time."""
    waves = op.waves(org, dtype_bytes)
    commands = [Command(CommandType.PIM_GWRITE, bank=0, row=base_row + 10_000,
                        meta=op.tag)
                for _ in range(op.gwrites(org, dtype_bytes))]
    if composite:
        return ([Command(CommandType.PIM_HEADER, k=waves, meta=op.tag)]
                + commands
                + [Command(CommandType.PIM_GEMV, k=waves, meta=op.tag),
                   Command(CommandType.PIM_PRECHARGE, meta=op.tag)])
    groups = [tuple(range(g * org.banks_per_group,
                          (g + 1) * org.banks_per_group))
              for g in range(org.bank_groups)]
    for wave in range(waves):
        for group in groups:
            commands.append(Command(CommandType.PIM_ACTIVATION, banks=group,
                                    row=base_row + wave, meta=op.tag))
        commands.append(Command(CommandType.PIM_DOTPRODUCT, meta=op.tag))
        commands.append(Command(CommandType.PIM_PRECHARGE, meta=op.tag))
    commands.append(Command(CommandType.PIM_RDRESULT, meta=op.tag))
    return commands


class TestStreamDescriptors:
    """Stream descriptors against the command lists they expand to."""

    @settings(deadline=None)
    # Up to 8 row rounds x 16 column rounds: several refreshes at most.
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(1, 256),
                                  st.integers(1, 2048)),
                        min_size=1, max_size=3),
           page_bytes=st.sampled_from([512, 1024, 2048]),
           dtype_bytes=st.sampled_from([1, 2, 4]),
           base_row=st.integers(0, 5_000),
           dual=st.booleans(), header_aware=st.booleans())
    def test_descriptor_matches_expansion(self, ops, page_bytes, dtype_bytes,
                                          base_row, dual, header_aware):
        org = replace(ORG, page_bytes=page_bytes)
        streams, expanded = [], []
        for i, (composite, rows, cols) in enumerate(ops):
            op = GemvOp(rows=rows, cols=cols, tag=f"g{i}")
            encode = composite_stream if composite else fine_grained_stream
            stream = encode(op, org, dtype_bytes, base_row)
            reference = _reference_stream(op, org, composite, dtype_bytes,
                                          base_row)
            assert list(stream) == reference
            assert len(stream) == len(reference)
            streams.append(stream)
            expanded += reference
        for drain in (MemoryController.drain, MemoryController.drain_fast):
            controllers = []
            for fed in (streams, [expanded]):
                ctrl = MemoryController(
                    Channel(0, org=org, dual_row_buffer=dual),
                    ControllerConfig(header_aware_refresh=header_aware))
                for commands in fed:
                    ctrl.enqueue_pim(commands)
                drain(ctrl)
                controllers.append(ctrl)
            described, listed = controllers
            # Stepped commands are built from the descriptor, rows included.
            assert described.records == listed.records
            assert described.finish_time == listed.finish_time
            assert described.stats.as_dict() == listed.stats.as_dict()
            assert described.counter_view() == listed.counter_view()
            assert described.replay == listed.replay
        assert described.replay.total == len(expanded)
