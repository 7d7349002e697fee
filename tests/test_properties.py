"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.core.binpack import (
    channel_loads,
    greedy_min_load_assign,
    load_imbalance,
    round_robin_assign,
)
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.core.partition import partition_batch
from repro.dram.timing import HbmOrganization
from repro.model.layers import decoder_block_operators
from repro.model.spec import GPT3_7B
from repro.serving.paging import PagedKvAllocator, PagedKvConfig
from repro.sim.engine import Resource
from repro.sim.stats import merge_intervals

from tests.conftest import make_request

ESTIMATOR = MhaLatencyEstimator(GPT3_7B, HbmOrganization(),
                                analytic_latencies())

seq_lens = st.lists(st.integers(min_value=1, max_value=4096),
                    min_size=1, max_size=40)


class TestEstimatorProperties:
    @given(seq=st.integers(min_value=1, max_value=100_000))
    def test_estimate_positive(self, seq):
        assert ESTIMATOR.estimate(seq) > 0

    @given(a=st.integers(min_value=1, max_value=50_000),
           b=st.integers(min_value=0, max_value=50_000))
    def test_estimate_monotonic(self, a, b):
        assert ESTIMATOR.estimate(a + b + 1) >= ESTIMATOR.estimate(a)

    @given(a=st.integers(min_value=1, max_value=10_000),
           b=st.integers(min_value=1, max_value=10_000))
    def test_estimate_subadditive_in_concatenation(self, a, b):
        """Two short requests cost at least one long one (per-GEMV floors
        and GWRITE overheads make splitting never cheaper)."""
        assert ESTIMATOR.estimate(a) + ESTIMATOR.estimate(b) >= \
            ESTIMATOR.estimate(a + b) * 0.99


class TestBinPackProperties:
    @given(lengths=seq_lens,
           channels=st.integers(min_value=1, max_value=32))
    @settings(max_examples=50)
    def test_greedy_assigns_every_request_to_valid_channel(self, lengths,
                                                           channels):
        requests = [make_request(i, input_len=n)
                    for i, n in enumerate(lengths)]
        assignment = greedy_min_load_assign(requests, ESTIMATOR, channels)
        assert set(assignment) == {r.request_id for r in requests}
        assert all(0 <= c < channels for c in assignment.values())

    @given(lengths=seq_lens,
           channels=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_greedy_within_largest_item_of_round_robin(self, lengths,
                                                       channels):
        # Online greedy does NOT strictly dominate round robin — for
        # some arrival orders RR lands a fraction of a percent better
        # (hypothesis found lengths=[1724, 6, 1135, 1723, 1, 1134] on 2
        # channels, greedy 0.03% worse).  The provable relation is via
        # list scheduling: greedy_max <= mean + largest item, and
        # rr_max >= mean, so greedy_max <= rr_max + largest item.
        greedy_reqs = [make_request(i, input_len=n)
                       for i, n in enumerate(lengths)]
        rr_reqs = [make_request(i, input_len=n)
                   for i, n in enumerate(lengths)]
        greedy_min_load_assign(greedy_reqs, ESTIMATOR, channels)
        round_robin_assign(rr_reqs, channels)
        greedy_max = max(channel_loads(greedy_reqs, ESTIMATOR, channels))
        rr_max = max(channel_loads(rr_reqs, ESTIMATOR, channels))
        largest = max(ESTIMATOR.estimate(r.seq_len) for r in greedy_reqs)
        assert greedy_max <= rr_max + largest * 1.0001

    @given(lengths=seq_lens, channels=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_greedy_within_lpt_bound_of_mean(self, lengths, channels):
        """LPT is a 4/3-approximation: max load <= 4/3 OPT + one job;
        check the weaker bound max <= mean + largest item."""
        requests = [make_request(i, input_len=n)
                    for i, n in enumerate(lengths)]
        greedy_min_load_assign(requests, ESTIMATOR, channels)
        loads = channel_loads(requests, ESTIMATOR, channels)
        mean = sum(loads) / channels
        largest = max(ESTIMATOR.estimate(r.seq_len) for r in requests)
        assert max(loads) <= mean + largest + 1e-6


class TestPartitionProperties:
    @given(lengths=seq_lens, channels=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_partition_is_exact_two_coloring(self, lengths, channels):
        requests = [make_request(i, input_len=n, channel=i % channels)
                    for i, n in enumerate(lengths)]
        sb1, sb2 = partition_batch(requests, channels)
        ids = sorted(r.request_id for r in sb1 + sb2)
        assert ids == sorted(r.request_id for r in requests)

    @given(lengths=seq_lens, channels=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_partition_size_skew_at_most_one(self, lengths, channels):
        requests = [make_request(i, input_len=n, channel=i % channels)
                    for i, n in enumerate(lengths)]
        sb1, sb2 = partition_batch(requests, channels)
        assert abs(len(sb1) - len(sb2)) <= 1

    @given(lengths=seq_lens, channels=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_per_channel_split_within_one(self, lengths, channels):
        requests = [make_request(i, input_len=n, channel=i % channels)
                    for i, n in enumerate(lengths)]
        sb1, sb2 = partition_batch(requests, channels)
        for channel in range(channels):
            n1 = sum(1 for r in sb1 if r.channel == channel)
            n2 = sum(1 for r in sb2 if r.channel == channel)
            assert abs(n1 - n2) <= 1


class TestPagingProperties:
    @given(tokens=st.lists(st.integers(min_value=1, max_value=2000),
                           min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_allocate_release_conserves_blocks(self, tokens):
        allocator = PagedKvAllocator(PagedKvConfig(), GPT3_7B)
        total = allocator.total_blocks
        for i, t in enumerate(tokens):
            if allocator.can_allocate(i, t):
                allocator.allocate(i, t)
        assert allocator.free_blocks + allocator.used_blocks == total
        for i in list(allocator.resident_requests()):
            allocator.release(i)
        assert allocator.free_blocks == total

    @given(growth=st.lists(st.integers(min_value=1, max_value=64),
                           min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_monotonic_growth_allocates_exact_blocks(self, growth):
        allocator = PagedKvAllocator(PagedKvConfig(), GPT3_7B)
        context = 0
        for delta in growth:
            context += delta
            allocator.allocate(0, context)
        assert allocator.used_blocks == allocator.blocks_for(context)


class TestSimProperties:
    @given(durations=st.lists(st.floats(min_value=0.1, max_value=100.0),
                              min_size=1, max_size=30))
    def test_resource_bookings_never_overlap(self, durations):
        resource = Resource("r")
        for d in durations:
            resource.acquire_for(d)
        intervals = resource.intervals
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-9

    @given(intervals=st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=30))
    def test_merge_intervals_disjoint_and_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
        assert all(s < e for s, e in merged)


class TestOperatorProperties:
    @given(lengths=st.lists(st.integers(min_value=1, max_value=2048),
                            min_size=1, max_size=16))
    @settings(max_examples=30)
    def test_operator_flops_and_bytes_positive(self, lengths):
        ops = decoder_block_operators(GPT3_7B, lengths)
        assert all(op.flops > 0 for op in ops)
        assert all(op.bytes_moved > 0 for op in ops)

    @given(lengths=st.lists(st.integers(min_value=1, max_value=2048),
                            min_size=1, max_size=16))
    @settings(max_examples=30)
    def test_gemm_flops_independent_of_seq_lens(self, lengths):
        """Generation-phase GEMM work depends only on the batch size."""
        ops_a = decoder_block_operators(GPT3_7B, lengths)
        ops_b = decoder_block_operators(GPT3_7B, [1] * len(lengths))
        qkv_a = next(op for op in ops_a if op.name == "qkv_generation")
        qkv_b = next(op for op in ops_b if op.name == "qkv_generation")
        assert qkv_a.flops == qkv_b.flops


@st.composite
def resilient_scenarios(draw):
    """A small faulted serving scenario with random resilience knobs."""
    cycles = st.integers(min_value=1, max_value=40).map(lambda k: k * 1e6)
    serving = ServingSpec(
        max_batch_size=draw(st.integers(min_value=2, max_value=8)),
        kv_capacity_bytes=draw(st.sampled_from([1 << 26, 1 << 27])),
        deadline_cycles=draw(st.none() | cycles),
        shed_wait_cycles=draw(st.none() | cycles),
        max_retries=draw(st.integers(min_value=0, max_value=2)),
        retry_backoff_cycles=draw(st.integers(min_value=0, max_value=10)
                                  .map(lambda k: k * 1e5)))
    counts = {name: draw(st.integers(min_value=0, max_value=2))
              for name in ("degrades", "stalls", "kv_faults", "aborts")}
    return ScenarioSpec(
        model="gpt3-7b", system="neupims", layers_resident=2,
        fidelity="analytic",
        traffic=TrafficSpec.poisson(
            rate_per_kcycle=0.02, horizon_cycles=3e6,
            seed=draw(st.integers(min_value=0, max_value=99)),
            max_requests=draw(st.integers(min_value=2, max_value=12))),
        serving=serving, faults="seeded",
        faults_options={"seed": draw(st.integers(min_value=0,
                                                 max_value=999)),
                        "horizon": 4e7, **counts})


class TestResilientWindowProperties:
    """Grouped windows under resilience change no simulated output.

    Beyond the ``RunResult`` payload, the typed event streams must agree
    (a shed waiter's time, for one, only shows there), apart from the
    grouped path's own ``WindowCommitted``: the per-request path reports
    every starved iteration's ``KvPressure`` in both modes.
    """

    @staticmethod
    def _shared_events(seen):
        from repro.serving.events import WindowCommitted
        return [event for event in seen
                if not isinstance(event, WindowCommitted)]

    @given(spec=resilient_scenarios(),
           chunk=st.sampled_from([1, 3, 1000]))
    @settings(max_examples=40, deadline=None)
    def test_grouping_auto_matches_off(self, spec, chunk):
        off = Session(spec.override(grouping="off"))
        auto = Session(spec.override(grouping="auto"))
        off_events, auto_events = [], []
        off.events.subscribe(None, off_events.append)
        auto.events.subscribe(None, auto_events.append)
        off_result = off.run()
        while auto.step(max_steps=chunk) is not None:
            pass
        assert auto.result().to_dict() == off_result.to_dict()
        assert self._shared_events(auto_events) == \
            self._shared_events(off_events)
