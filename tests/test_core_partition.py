"""Unit tests for sub-batch partitioning (Algorithm 3)."""

import pytest

from repro.core.partition import (
    group_by_channel,
    partition_batch,
    partition_stats,
    partition_sub_batches,
    sub_batch_halves,
)

from tests.conftest import make_request


class TestGroupByChannel:
    def test_buckets_by_channel(self):
        requests = [make_request(0, channel=1), make_request(1, channel=0),
                    make_request(2, channel=1)]
        buckets = group_by_channel(requests, 2)
        assert [r.request_id for r in buckets[0]] == [1]
        assert [r.request_id for r in buckets[1]] == [0, 2]

    def test_unassigned_goes_to_channel_zero(self):
        buckets = group_by_channel([make_request(0)], 2)
        assert len(buckets[0]) == 1

    def test_invalid_channel_raises(self):
        with pytest.raises(ValueError):
            group_by_channel([make_request(0, channel=9)], 2)


class TestAlgorithm3:
    def test_even_channels_split_in_half(self):
        channels = [[make_request(i + c * 10, channel=c) for i in range(4)]
                    for c in range(3)]
        sb1, sb2 = partition_sub_batches(channels)
        assert len(sb1) == len(sb2) == 6

    def test_odd_remainders_alternate(self):
        """Algorithm 3's turn flip: odd channels alternate which sub-batch
        receives the extra request, keeping totals balanced."""
        channels = [[make_request(c * 10 + i, channel=c) for i in range(3)]
                    for c in range(4)]
        sb1, sb2 = partition_sub_batches(channels)
        # 4 channels x 3 requests: alternating ceil/floor gives 6/6.
        assert len(sb1) == len(sb2) == 6

    def test_single_odd_channel(self):
        channels = [[make_request(i, channel=0) for i in range(5)]]
        sb1, sb2 = partition_sub_batches(channels)
        # First odd channel: turn=True -> ceil -> 3/2.
        assert len(sb1) == 3
        assert len(sb2) == 2

    def test_per_channel_halves_stay_on_channel(self):
        channels = [[make_request(i, channel=0) for i in range(4)],
                    [make_request(10 + i, channel=1) for i in range(4)]]
        sb1, sb2 = partition_sub_batches(channels)
        for sub_batch in (sb1, sb2):
            per_channel = {}
            for r in sub_batch:
                per_channel[r.channel] = per_channel.get(r.channel, 0) + 1
            assert per_channel == {0: 2, 1: 2}

    def test_all_requests_partitioned_exactly_once(self):
        channels = [[make_request(c * 100 + i, channel=c)
                     for i in range(7)] for c in range(5)]
        sb1, sb2 = partition_sub_batches(channels)
        all_ids = sorted(r.request_id for r in sb1 + sb2)
        expected = sorted(c * 100 + i for c in range(5) for i in range(7))
        assert all_ids == expected

    def test_empty_channels_ok(self):
        sb1, sb2 = partition_sub_batches([[], []])
        assert sb1 == [] and sb2 == []

    def test_turn_carries_across_channels(self):
        """The ``turn`` flip is not per channel: one channel's parity
        decides the halves of every later odd-sized channel, so a parity
        change moves one request in each of them, not only in the
        channel that changed (what a live class table must re-split)."""
        assert sub_batch_halves([3, 3, 3]) == [2, 1, 2]
        assert sub_batch_halves([2, 3, 3]) == [1, 2, 1]
        # Even channels in between keep their halves and pass the turn on.
        assert sub_batch_halves([3, 4, 3]) == [2, 2, 1]
        assert sub_batch_halves([2, 4, 3]) == [1, 2, 2]


class TestPartitionBatch:
    def test_partition_batch_composes(self):
        requests = [make_request(i, channel=i % 4) for i in range(16)]
        sb1, sb2 = partition_batch(requests, 4)
        assert len(sb1) == len(sb2) == 8

    def test_partition_stats(self):
        requests = [make_request(i, input_len=100, channel=0)
                    for i in range(4)]
        sb1, sb2 = partition_batch(requests, 1)
        stats = partition_stats(sb1, sb2)
        assert stats["size_skew"] == 0
        assert stats["token_skew"] == pytest.approx(0.0)

    def test_size_skew_bounded_by_one_per_odd_channel_pair(self):
        """The turn flip bounds total size skew to at most 1."""
        requests = [make_request(c * 10 + i, channel=c)
                    for c in range(6) for i in range(3)]
        sb1, sb2 = partition_batch(requests, 6)
        assert abs(len(sb1) - len(sb2)) <= 1
