"""Unit tests for channel load balancing (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binpack import (
    channel_loads,
    greedy_min_load_assign,
    load_imbalance,
    round_robin_assign,
)
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.dram.timing import HbmOrganization
from repro.model.spec import GPT3_7B

from tests.conftest import make_request


@pytest.fixture
def estimator():
    return MhaLatencyEstimator(GPT3_7B, HbmOrganization(),
                               analytic_latencies())


class TestGreedyAssign:
    def test_all_requests_assigned(self, estimator):
        requests = [make_request(i, input_len=32 * (i + 1)) for i in range(10)]
        assignment = greedy_min_load_assign(requests, estimator, 4)
        assert len(assignment) == 10
        assert all(r.channel is not None for r in requests)
        assert all(0 <= c < 4 for c in assignment.values())

    def test_longest_request_goes_first_to_empty_channel(self, estimator):
        requests = [make_request(0, input_len=10),
                    make_request(1, input_len=1000)]
        assignment = greedy_min_load_assign(requests, estimator, 4)
        # LPT order: request 1 (longest) is placed first, on channel 0.
        assert assignment[1] == 0

    def test_balances_better_than_round_robin(self, estimator):
        """The Figure 13 GMLBP claim: greedy min-load beats round robin
        for skewed sequence lengths."""
        lengths = [2000, 1500, 1000, 900, 100, 90, 80, 70]
        greedy_reqs = [make_request(i, input_len=n)
                       for i, n in enumerate(lengths)]
        rr_reqs = [make_request(i, input_len=n)
                   for i, n in enumerate(lengths)]
        greedy_min_load_assign(greedy_reqs, estimator, 4)
        round_robin_assign(rr_reqs, 4)
        greedy_imbalance = load_imbalance(
            channel_loads(greedy_reqs, estimator, 4))
        rr_imbalance = load_imbalance(channel_loads(rr_reqs, estimator, 4))
        assert greedy_imbalance < rr_imbalance

    def test_existing_load_considered(self, estimator):
        existing = [make_request(0, input_len=4000, channel=0)]
        new = [make_request(1, input_len=100)]
        assignment = greedy_min_load_assign(new, estimator, 2,
                                            existing=existing)
        assert assignment[1] == 1

    def test_equal_loads_prefer_lowest_index(self, estimator):
        new = [make_request(0, input_len=64)]
        assignment = greedy_min_load_assign(new, estimator, 8)
        assert assignment[0] == 0

    def test_invalid_channel_count_raises(self, estimator):
        with pytest.raises(ValueError):
            greedy_min_load_assign([], estimator, 0)


class TestRoundRobin:
    def test_cycles_through_channels(self):
        requests = [make_request(i) for i in range(6)]
        assignment = round_robin_assign(requests, 4)
        assert [assignment[i] for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_start_offset(self):
        requests = [make_request(i) for i in range(3)]
        assignment = round_robin_assign(requests, 4, start=3)
        assert [assignment[i] for i in range(3)] == [3, 0, 1]

    def test_invalid_channel_count_raises(self):
        with pytest.raises(ValueError):
            round_robin_assign([], 0)


class TestLoads:
    def test_channel_loads_sum_estimates(self, estimator):
        requests = [make_request(0, input_len=100, channel=1),
                    make_request(1, input_len=200, channel=1)]
        loads = channel_loads(requests, estimator, 2)
        assert loads[0] == 0.0
        assert loads[1] == pytest.approx(
            estimator.estimate(100) + estimator.estimate(200))

    def test_unassigned_requests_skipped(self, estimator):
        loads = channel_loads([make_request(0)], estimator, 2)
        assert loads == [0.0, 0.0]

    def test_invalid_channel_raises(self, estimator):
        with pytest.raises(ValueError):
            channel_loads([make_request(0, channel=5)], estimator, 2)

    def test_load_imbalance_perfect(self):
        assert load_imbalance([10.0, 10.0]) == 1.0

    def test_load_imbalance_empty(self):
        assert load_imbalance([]) == 1.0

    def test_load_imbalance_zero_loads(self):
        assert load_imbalance([0.0, 0.0]) == 1.0


_ESTIMATOR = MhaLatencyEstimator(GPT3_7B, HbmOrganization(),
                                 analytic_latencies())

#: Loads drawn from a few values, so exact ties and repeated floats are
#: common; 0.0 makes all-zero starts likely.
_LOAD = st.sampled_from([0.0, 0.0, 0.1, 1.0, 2.5, 1e3, 123456.789])


def _scan_assign(requests, estimator, num_channels, initial_loads):
    """The reference Algorithm 2: a min scan over channels per request."""
    loads = (list(initial_loads) if initial_loads is not None
             else [0.0] * num_channels)
    assignment = {}
    for request in sorted(requests, key=lambda r: (-r.seq_len, r.request_id)):
        channel = min(range(num_channels), key=lambda c: (loads[c], c))
        request.channel = channel
        loads[channel] += estimator.estimate(request.seq_len)
        assignment[request.request_id] = channel
    return assignment


class TestHeapMatchesScan:
    """The heap-based greedy placement against the channel scan."""

    @settings(deadline=None)
    @given(data=st.data(), num_channels=st.integers(1, 64),
           seq_lens=st.lists(st.one_of(st.sampled_from([1, 16, 17, 64]),
                                       st.integers(1, 4096)),
                             max_size=300),
           explicit_loads=st.booleans())
    def test_same_placement(self, data, num_channels, seq_lens,
                            explicit_loads):
        initial_loads = None
        if explicit_loads:
            initial_loads = data.draw(st.lists(
                st.one_of(_LOAD, st.floats(0, 1e9)),
                min_size=num_channels, max_size=num_channels))
        fast, slow = ([make_request(i, input_len=n)
                       for i, n in enumerate(seq_lens)] for _ in range(2))
        expected = _scan_assign(slow, _ESTIMATOR, num_channels,
                                initial_loads)
        found = greedy_min_load_assign(fast, _ESTIMATOR, num_channels,
                                       initial_loads=initial_loads)
        assert found == expected
        assert [r.channel for r in fast] == [r.channel for r in slow]
