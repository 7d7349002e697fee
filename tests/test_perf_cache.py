"""Correctness of the perf caching layer and incremental load tracking.

The dangerous failure mode of a cache is a stale hit: a changed hardware
configuration silently served a stream/calibration computed for another.
These tests pin the key discipline — any field change in the frozen
hardware dataclasses must miss — plus value equality with the uncached
paths, invalidation, and the live-load tracker against recomputation.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binpack import (ChannelLoadTracker, channel_loads,
                                greedy_min_load_assign)
from repro.core.device import NeuPimsDevice
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.dram.timing import HbmOrganization, PimTiming, TimingParams
from repro.model.spec import get_model
from repro.perf import (Memo, cache, cache_info, cached_calibrate,
                        gemv_stream, interned_stream, invalidate,
                        memoized_estimator)
from repro.perf.calibration import ESTIMATE_CACHE
from repro.perf.streams import STREAM_CACHE
from repro.pim.engine import calibrate
from repro.pim.gemv import GemvOp, composite_stream, fine_grained_stream
from repro.serving.request import InferenceRequest

from tests.conftest import KinkedEstimator

ORG = HbmOrganization()


@pytest.fixture(autouse=True)
def fresh_caches():
    invalidate()
    yield
    invalidate()


def estimator():
    spec = get_model("gpt3-7b")
    return MhaLatencyEstimator(spec=spec, org=ORG,
                               latencies=analytic_latencies())


class TestStreamInterning:
    def test_matches_uncached_builders(self):
        op = GemvOp(rows=256, cols=1024, tag="x")
        assert list(interned_stream(op, ORG, composite=True)) \
            == composite_stream(op, ORG)
        assert list(interned_stream(op, ORG, composite=False)) \
            == fine_grained_stream(op, ORG)

    def test_identical_keys_share_one_object(self):
        first = gemv_stream(512, 512, ORG)
        second = gemv_stream(512, 512, ORG)
        assert first is second
        assert cache(STREAM_CACHE).hits >= 1

    def test_mutated_organization_misses(self):
        op = GemvOp(rows=512, cols=2048, tag="x")
        base = interned_stream(op, ORG, composite=False)
        small_page = replace(ORG, page_bytes=512)
        other = interned_stream(op, small_page, composite=False)
        assert other is not base
        # Half the page size doubles the column rounds -> more waves.
        assert len(other) > len(base)
        assert list(other) == fine_grained_stream(op, small_page)

    def test_dtype_and_encoding_part_of_key(self):
        op = GemvOp(rows=512, cols=512, tag="x")
        fp16 = interned_stream(op, ORG, dtype_bytes=2)
        fp32 = interned_stream(op, ORG, dtype_bytes=4)
        fine = interned_stream(op, ORG, composite=False)
        assert fp16 is not fp32
        assert fine is not fp16

    def test_invalidate_drops_entries(self):
        gemv_stream(128, 128, ORG)
        assert cache_info()[STREAM_CACHE]["size"] >= 1
        invalidate(STREAM_CACHE)
        assert cache_info()[STREAM_CACHE]["size"] == 0

    def test_oversized_value_bypasses_cache(self):
        """A value heavier than the whole weight budget is returned
        uncached instead of flushing every resident entry."""
        from repro.perf.cache import KeyedCache
        table = KeyedCache("t", max_weight=10, weight=len)
        table.get_or_compute("a", lambda: [1] * 4)
        table.get_or_compute("b", lambda: [1] * 4)
        huge = table.get_or_compute("c", lambda: [1] * 50)
        assert len(huge) == 50
        assert "c" not in table
        assert "a" in table and "b" in table
        assert table.info()["weight"] == 8

    def test_retained_commands_stay_under_budget(self):
        """One-shot shape sweeps must not pin unbounded command tuples:
        the intern table is bounded by retained commands, not entries."""
        from repro.perf.streams import STREAM_COMMAND_BUDGET
        for i in range(40):
            gemv_stream(4096, 4096 + 512 * i, ORG, composite=False)
        info = cache_info()[STREAM_CACHE]
        assert info["weight"] <= STREAM_COMMAND_BUDGET
        assert info["size"] < 40
        # The newest entry is still resident (evictions hit the oldest).
        latest = gemv_stream(4096, 4096 + 512 * 39, ORG, composite=False)
        assert cache_info()[STREAM_CACHE]["hits"] >= 1
        assert len(latest) > 0


class TestMemo:
    def test_computes_once_per_key(self):
        calls = []
        memo = Memo(lambda key: calls.append(key) or 2 * key, bound=4)
        assert memo[3] == 6
        assert memo[3] == 6
        assert calls == [3]
        assert (memo.misses, memo.evictions) == (1, 0)

    def test_evicts_oldest_insertion_at_bound(self):
        memo = Memo(lambda key: -key, bound=2)
        memo[1]
        memo[2]
        memo[1]  # a hit does not refresh the entry's age
        memo[3]
        assert list(memo) == [2, 3]
        assert (memo.misses, memo.evictions) == (3, 1)
        assert memo[1] == -1
        assert list(memo) == [3, 1]
        assert (memo.misses, memo.evictions) == (4, 2)

    def test_membership_and_get_do_not_compute(self):
        memo = Memo(lambda key: key, bound=1)
        assert 5 not in memo
        assert memo.get(5) is None
        assert memo.misses == 0

    @pytest.mark.parametrize("bound", [0, -1])
    def test_rejects_non_positive_bound(self, bound):
        with pytest.raises(ValueError, match="bound"):
            Memo(abs, bound)


class TestCalibrationCache:
    def test_matches_direct_calibrate(self):
        assert cached_calibrate() == calibrate()

    def test_same_config_hits(self):
        first = cached_calibrate()
        second = cached_calibrate()
        assert second is first

    def test_mutated_pim_timing_misses(self):
        base = cached_calibrate()
        slower = replace(PimTiming(), dotprod_cycles_per_chunk=4)
        other = cached_calibrate(pim_timing=slower)
        assert other.l_tile > base.l_tile
        assert other == calibrate(pim_timing=slower)

    def test_mutated_timing_misses(self):
        base = cached_calibrate()
        # Stretch the row cycle until it dominates the wave pitch.
        slow_rows = TimingParams(tRAS=200)
        other = cached_calibrate(timing=slow_rows)
        assert other.l_tile > base.l_tile
        assert other == calibrate(timing=slow_rows)


class TestMemoizedEstimator:
    def test_values_match_inner(self):
        inner = estimator()
        memo = memoized_estimator(inner)
        for seq in (1, 77, 512, 2048):
            assert memo.estimate(seq) == inner.estimate(seq)
        assert memo.estimate_batch([64, 64, 128]) \
            == inner.estimate_batch([64, 64, 128])

    def test_repeated_seq_len_hits(self):
        memo = memoized_estimator(estimator())
        memo.estimate(333)
        before = cache(ESTIMATE_CACHE).hits
        memo.estimate(333)
        assert cache(ESTIMATE_CACHE).hits == before + 1

    def test_wrapping_is_idempotent(self):
        memo = memoized_estimator(estimator())
        assert memoized_estimator(memo) is memo

    def test_different_org_estimators_do_not_collide(self):
        spec = get_model("gpt3-7b")
        lat = analytic_latencies()
        a = memoized_estimator(MhaLatencyEstimator(spec=spec, org=ORG,
                                                   latencies=lat))
        narrow = replace(ORG, banks_per_channel=16, channels=32)
        b = memoized_estimator(MhaLatencyEstimator(
            spec=spec, org=narrow,
            latencies=analytic_latencies(org=narrow)))
        assert a.estimate(512) != b.estimate(512)

    def test_subclass_estimator_does_not_share_entries(self):
        """An overriding subclass with equal frozen inputs must not read
        the base implementation's cached values."""
        inner = estimator()

        class Doubled(MhaLatencyEstimator):
            def estimate(self, seq_len):
                return 2 * super().estimate(seq_len)

        doubled = Doubled(spec=inner.spec, org=inner.org,
                          latencies=inner.latencies)
        base_memo = memoized_estimator(inner)
        doubled_memo = memoized_estimator(doubled)
        assert base_memo.estimate(512) == inner.estimate(512)
        assert doubled_memo.estimate(512) == 2 * inner.estimate(512)

    def test_invalidate_clears_memo(self):
        memo = memoized_estimator(estimator())
        memo.estimate(100)
        invalidate(ESTIMATE_CACHE)
        assert cache_info()[ESTIMATE_CACHE]["size"] == 0
        # Still correct after invalidation.
        assert memo.estimate(100) == memo.inner.estimate(100)


def request(rid, seq, channel=None):
    req = InferenceRequest(request_id=rid, input_len=seq, output_len=8)
    req.channel = channel
    return req


class TestChannelLoadTracker:
    def test_tracks_like_recompute(self):
        est = memoized_estimator(estimator())
        tracker = ChannelLoadTracker(est, 4)
        requests = [request(i, 64 + 32 * i, channel=i % 4) for i in range(12)]
        for req in requests:
            tracker.add(req)
        assert tracker.loads == channel_loads(requests, est, 4)

    def test_update_follows_growth(self):
        est = memoized_estimator(estimator())
        tracker = ChannelLoadTracker(est, 2)
        req = request(0, 100, channel=1)
        tracker.add(req)
        req.generated = 5
        tracker.update(req)
        assert tracker.loads == channel_loads([req], est, 2)

    def test_remove_returns_to_zero(self):
        est = estimator()
        tracker = ChannelLoadTracker(est, 2)
        req = request(0, 100, channel=0)
        tracker.add(req)
        tracker.remove(req)
        assert tracker.loads == [0.0, 0.0]
        assert len(tracker) == 0

    def test_greedy_with_tracker_loads_matches_existing(self):
        est = estimator()
        existing = [request(i, 256, channel=i % 3) for i in range(6)]
        new_a = [request(10 + i, 512 - 64 * i) for i in range(4)]
        new_b = [request(10 + i, 512 - 64 * i) for i in range(4)]

        baseline = greedy_min_load_assign(new_a, est, 3, existing=existing)

        tracker = ChannelLoadTracker(est, 3)
        for req in existing:
            tracker.add(req)
        tracked = greedy_min_load_assign(new_b, est, 3,
                                         initial_loads=tracker.loads)
        assert tracked == baseline

    def test_update_migrates_rehomed_request(self):
        """A tracked request whose channel was reassigned moves its
        contribution instead of charging the old channel forever."""
        est = estimator()
        tracker = ChannelLoadTracker(est, 3)
        req = request(0, 100, channel=0)
        tracker.add(req)
        req.channel = 2
        tracker.update(req)
        assert tracker.loads == channel_loads([req], est, 3)

    def test_update_adopts_untracked_running_request(self):
        """Pre-warmed requests (RUNNING at submit, never admitted) are
        adopted by the per-iteration update refresh."""
        est = estimator()
        tracker = ChannelLoadTracker(est, 2)
        req = request(0, 100, channel=1)
        tracker.update(req)
        assert tracker.loads == channel_loads([req], est, 2)
        # Without a channel there is nothing to adopt yet.
        tracker.update(request(1, 100, channel=None))
        assert len(tracker) == 1

    def test_add_requires_valid_channel(self):
        tracker = ChannelLoadTracker(estimator(), 2)
        with pytest.raises(ValueError):
            tracker.add(request(0, 64, channel=None))
        with pytest.raises(ValueError):
            tracker.add(request(1, 64, channel=7))

    def test_double_add_rejected(self):
        tracker = ChannelLoadTracker(estimator(), 2)
        req = request(0, 64, channel=0)
        tracker.add(req)
        with pytest.raises(ValueError):
            tracker.add(req)


_tracker_op = st.one_of(
    # Some contexts fall below the affine guard's floor (seq_len 6-16).
    st.tuples(st.just("add"), st.one_of(st.integers(1, 20),
                                        st.integers(1, 600)),
              st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("update"), st.integers(0, 63), st.integers(0, 5)),
    st.tuples(st.just("sync"), st.integers(0, 63), st.integers(0, 3),
              st.integers(0, 5)),
    st.tuples(st.just("shift"), st.integers(0, 40)),
)


class TestLoadTrackerShift:
    """A window close shifts every tracked context at once; loads must be
    bit-equal to a fresh tracker fed the advanced requests."""

    def _tracked(self, est, channels=3):
        tracker = ChannelLoadTracker(est, channels)
        requests = [request(i, 40 + 17 * i, channel=i % channels)
                    for i in range(9)]
        for req in requests:
            tracker.add(req)
        return tracker, requests

    @staticmethod
    def _fresh_loads(est, requests, channels=3):
        fresh = ChannelLoadTracker(est, channels)
        for req in requests:
            fresh.add(req)
        return fresh.loads

    @staticmethod
    def _advance(requests, steps):
        for req in requests:
            req.generated += steps

    def test_shift_matches_fresh_tracker(self):
        est = memoized_estimator(estimator())
        tracker, requests = self._tracked(est)
        tracker.loads  # fill the cache: shift must drop it
        self._advance(requests, 5)
        tracker.shift(5)
        assert tracker.loads == self._fresh_loads(est, requests)
        assert tracker.loads == channel_loads(requests, est, 3)
        tracker.shift(0)
        assert tracker.loads == self._fresh_loads(est, requests)

    def test_remove_and_update_after_shift(self):
        est = estimator()
        tracker, requests = self._tracked(est)
        self._advance(requests, 3)
        tracker.shift(3)
        tracker.remove(requests[4])
        requests[0].generated += 1
        tracker.update(requests[0])
        tracker.update(requests[1])  # unchanged since the shift: no-op
        live = requests[:4] + requests[5:]
        assert len(tracker) == len(live)
        assert tracker.loads == self._fresh_loads(est, live)

    def test_add_and_sync_member_after_shift(self):
        est = estimator()
        tracker, requests = self._tracked(est)
        self._advance(requests, 2)
        tracker.shift(2)
        late = request(20, 77, channel=1)
        tracker.add(late)
        tracker.sync_member(requests[2].request_id, 2,
                            requests[2].seq_len)  # already in sync
        self._advance(requests + [late], 4)
        tracker.shift(4)
        assert tracker.loads == self._fresh_loads(est, requests + [late])

    def test_adoption_after_shift(self):
        """An untracked running request is adopted at its current
        seq_len whatever the offset, by update or by sync_member."""
        est = estimator()
        tracker, requests = self._tracked(est)
        self._advance(requests, 6)
        tracker.shift(6)
        warm_a = request(30, 90, channel=0)
        warm_b = request(31, 55, channel=2)
        tracker.update(warm_a)
        tracker.sync_member(warm_b.request_id, 2, warm_b.seq_len)
        everyone = requests + [warm_a, warm_b]
        assert tracker.loads == self._fresh_loads(est, everyone)
        self._advance(everyone, 1)
        tracker.shift(1)
        assert tracker.loads == self._fresh_loads(est, everyone)

    def test_clear_then_reuse(self):
        est = estimator()
        tracker, requests = self._tracked(est)
        self._advance(requests, 9)
        tracker.shift(9)
        tracker.clear()
        assert tracker.loads == [0.0, 0.0, 0.0]
        for req in requests:
            tracker.add(req)
        assert tracker.loads == self._fresh_loads(est, requests)
        tracker.remove(requests[0])
        assert tracker.loads == self._fresh_loads(est, requests[1:])

    @staticmethod
    def _guarded(channels, est=None):
        """A device's tracker, carrying the device's affine guard."""
        device = NeuPimsDevice(get_model("gpt3-7b"), layers_resident=2,
                               estimator=est, channel_pool=channels)
        return device, device.attach_load_tracker()

    @staticmethod
    def _hex(loads):
        return [load.hex() for load in loads]

    @settings(deadline=None)
    @given(ops=st.lists(st.tuples(_tracker_op, st.booleans()),
                        max_size=40))
    def test_guarded_shift_matches_fresh_tracker(self, ops):
        """Any add/remove/update/sync_member/shift sequence, the loads
        read after a random subset of the ops (so a shift meets cached
        and dropped channels alike): every read equals, bit for bit, a
        fresh tracker over the same requests."""
        channels = 4
        device, tracker = self._guarded(channels)
        live = {}
        for (kind, *args), peek in ops:
            rids = sorted(live)
            if kind == "add":
                seq, channel = args
                req = request(len(rids) and rids[-1] + 1, seq, channel)
                req.output_len = 4096
                tracker.add(req)
                live[req.request_id] = req
            elif kind == "shift":
                self._advance(live.values(), args[0])
                tracker.shift(args[0])
            elif rids:
                req = live[rids[args[0] % len(rids)]]
                if kind == "remove":
                    tracker.remove(req)
                    del live[req.request_id]
                elif kind == "update":
                    req.generated += args[1]
                    tracker.update(req)
                else:  # sync_member, possibly to another channel
                    req.channel = args[1]
                    req.generated += args[2]
                    tracker.sync_member(req.request_id, req.channel,
                                        req.seq_len)
            if peek:
                assert self._hex(tracker.loads) == self._hex(
                    self._fresh_loads(device.estimator, live.values(),
                                      channels))
        assert len(tracker) == len(live)
        assert self._hex(tracker.loads) == self._hex(
            channel_loads(live.values(), device.estimator, channels))

    def test_guarded_shift_keeps_the_cache(self):
        """Where the guard vouches for every tracked seq_len, a shift
        steps the cached loads instead of dropping them."""
        device, tracker = self._guarded(3)
        requests = [request(i, 40 + 17 * i, channel=i % 3)
                    for i in range(9)]
        for req in requests:
            tracker.add(req)
        tracker.loads  # fill the cache
        self._advance(requests, 5)
        tracker.shift(5)
        assert None not in tracker._cache
        assert self._hex(tracker.loads) == self._hex(
            self._fresh_loads(device.estimator, requests))

    def test_kinked_estimator_recomputes(self):
        """A shift across a slope change: the guard refuses, the cache is
        dropped and the loads are re-summed."""
        est = KinkedEstimator(spec=get_model("gpt3-7b"), org=ORG,
                              latencies=analytic_latencies())
        device, tracker = self._guarded(3, est)
        requests = [request(i, 200 + 3 * i, channel=i % 3)
                    for i in range(9)]
        for req in requests:
            tracker.add(req)
        tracker.loads
        self._advance(requests, 2)
        tracker.shift(2)  # contexts 202..226, well below the kink (300)
        assert None not in tracker._cache
        tracker.loads
        self._advance(requests, 90)
        tracker.shift(90)  # contexts 292..316: across it
        assert tracker._cache == [None] * 3 and not device._affine_ok
        assert self._hex(tracker.loads) == self._hex(
            self._fresh_loads(device.estimator, requests))
