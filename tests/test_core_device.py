"""Unit tests for the NeuPIMs device model."""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, ServingSpec, Session, TrafficSpec
from repro.core.config import NeuPimsConfig
from repro.core.device import (NeuPimsDevice, interleave_timeline,
                               shard_for_mha)
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.core.partition import partition_batch
from repro.model.spec import GPT3_7B, MODEL_REGISTRY
from repro.perf import Memo
from repro.serving.grouping import merge_histograms, mha_histogram
from repro.serving.trace import SHAREGPT, warmed_batch
from repro.sim.engine import Resource

from tests.conftest import KinkedEstimator, make_request


def device_with(config=None, layers=4, tp=1):
    return NeuPimsDevice(GPT3_7B, config or NeuPimsConfig(), tp=tp,
                         layers_resident=layers)


def batch(n=32, seed=0):
    return warmed_batch(SHAREGPT, n, seed=seed)


class TestGemmStage:
    def test_qkv_and_projffn_positive(self):
        gemm = device_with().gemm_stage_cycles(64)
        assert gemm.qkv_cycles > 0
        assert gemm.projffn_cycles > gemm.qkv_cycles  # 3 GEMMs vs 1

    def test_bytes_scale_with_model_not_batch_when_memory_bound(self):
        device = device_with()
        small = device.gemm_stage_cycles(8)
        large = device.gemm_stage_cycles(16)
        # Weights dominate: doubling tiny batches barely moves bytes.
        assert large.external_bytes < 1.2 * small.external_bytes

    def test_tp_reduces_gemm_time(self):
        full = device_with(tp=1).gemm_stage_cycles(256)
        shard = device_with(tp=4).gemm_stage_cycles(256)
        assert shard.total_cycles < full.total_cycles

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            device_with().gemm_stage_cycles(0)


class TestMhaStage:
    def test_empty_batch_zero(self):
        stage = device_with().mha_stage([])
        assert stage.pim_cycles == 0.0

    def test_pim_time_is_max_channel_load(self):
        device = device_with()
        reqs = [make_request(0, input_len=512, channel=0),
                make_request(1, input_len=512, channel=0),
                make_request(2, input_len=512, channel=1)]
        stage = device.mha_stage(reqs)
        expected = 2 * device.estimator.estimate(512)
        assert stage.pim_cycles == pytest.approx(expected)

    def test_blocked_mode_slower(self):
        reqs = [make_request(i, input_len=256, channel=i % 4)
                for i in range(8)]
        fast = device_with(NeuPimsConfig()).mha_stage(reqs)
        slow = device_with(NeuPimsConfig.naive_npu_pim()).mha_stage(reqs)
        assert slow.duration(False) > 1.5 * fast.duration(True)

    def test_dual_row_buffer_overlaps_softmax(self):
        device = device_with()
        reqs = [make_request(i, input_len=256, channel=0) for i in range(4)]
        stage = device.mha_stage(reqs)
        assert stage.duration(dual_row_buffer=True) == pytest.approx(
            max(stage.pim_cycles, stage.softmax_cycles))

    def test_internal_bytes_track_kv(self):
        device = device_with()
        reqs = [make_request(0, input_len=100, channel=0)]
        stage = device.mha_stage(reqs)
        assert stage.internal_bytes == 2 * 100 * 4096 * 2


class TestChannelAssignment:
    def test_greedy_config_uses_binpack(self):
        device = device_with(NeuPimsConfig())
        reqs = [make_request(i, input_len=100 * (i + 1)) for i in range(8)]
        device.assign_channels(reqs)
        assert all(r.channel is not None for r in reqs)

    def test_round_robin_config_cycles(self):
        device = device_with(NeuPimsConfig.naive_npu_pim())
        reqs = [make_request(i) for i in range(4)]
        device.assign_channels(reqs)
        assert [r.channel for r in reqs] == [0, 1, 2, 3]

    def test_round_robin_cursor_advances(self):
        device = device_with(NeuPimsConfig.naive_npu_pim())
        first = [make_request(i) for i in range(3)]
        second = [make_request(10 + i) for i in range(2)]
        device.assign_channels(first)
        device.assign_channels(second)
        assert [r.channel for r in second] == [3, 4]

    def test_iteration_assigns_unassigned(self):
        device = device_with()
        reqs = batch(16)
        assert all(r.channel is None for r in reqs)
        device.iteration(reqs)
        assert all(r.channel is not None for r in reqs)


class TestIteration:
    def test_latency_positive_and_scales_with_layers(self):
        reqs = batch(16)
        shallow = device_with(layers=2).iteration(reqs).latency
        deep = device_with(layers=8).iteration(reqs).latency
        assert deep > 3 * shallow

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            device_with().iteration([])

    def test_serialized_latency_is_sum_of_stages(self):
        config = NeuPimsConfig(sub_batch_interleaving=False)
        device = device_with(config, layers=3)
        reqs = batch(16)
        result = device.iteration(reqs)
        gemm = device.gemm_stage_cycles(16)
        mha = device.mha_stage(reqs)
        expected = (gemm.total_cycles + mha.duration(True)) * 3
        assert result.latency == pytest.approx(expected)

    def test_interleaving_beats_serialized_at_large_batch(self):
        """Figure 13: SBI wins for batch >= 256."""
        reqs = batch(256)
        config_sbi = NeuPimsConfig(adaptive_sbi=False)
        config_ser = NeuPimsConfig(sub_batch_interleaving=False)
        t_sbi = device_with(config_sbi, layers=4, tp=4).iteration(reqs).latency
        reqs2 = batch(256)
        t_ser = device_with(config_ser, layers=4, tp=4).iteration(reqs2).latency
        assert t_sbi < t_ser

    def test_adaptive_sbi_never_worse_than_serialized(self):
        for size in (2, 8, 64):
            reqs = batch(size, seed=size)
            adaptive = device_with(NeuPimsConfig(), layers=2, tp=4)
            serialized = device_with(
                NeuPimsConfig(sub_batch_interleaving=False), layers=2, tp=4)
            t_a = adaptive.iteration(reqs).latency
            reqs2 = batch(size, seed=size)
            t_s = serialized.iteration(reqs2).latency
            assert t_a <= t_s * 1.0001

    def test_single_request_falls_back_to_serialized(self):
        device = device_with()
        result = device.iteration([make_request(0, input_len=64, channel=0)])
        assert result.latency > 0

    def test_utilization_accounting(self):
        device = device_with()
        result = device.iteration(batch(64))
        assert 0 < result.utilization("npu") <= 1
        assert 0 < result.utilization("pim") <= 1
        assert result.external_bytes > 0
        assert result.internal_pim_bytes > 0

    def test_neupims_npu_utilization_beats_naive(self):
        """Table 4's headline: concurrent execution raises NPU util."""
        reqs = batch(128)
        neupims = device_with(NeuPimsConfig(), layers=4, tp=4)
        res_neu = neupims.iteration(reqs)
        reqs2 = batch(128)
        naive = device_with(NeuPimsConfig.naive_npu_pim(), layers=4, tp=4)
        res_naive = naive.iteration(reqs2)
        assert res_neu.utilization("npu") > 1.5 * res_naive.utilization("npu")

    def test_executor_returns_latency(self):
        device = device_with()
        reqs = batch(8)
        assert device.executor()(reqs) == pytest.approx(
            device.iteration(reqs).latency)


def squeeze_memos(device):
    """Set every device memo (and the counter model's) to bound 1."""
    memos = [memo for memo in vars(device).values()
             if isinstance(memo, Memo)]
    if device.counter_model is not None:
        memos.append(device.counter_model._per_class)
    for memo in memos:
        memo.bound = 1
    return memos


class TestMemos:
    def test_attach_counters_after_iteration_still_counts(self):
        """Results memoized before the attach carry no counters, so the
        attach must not let them replay."""
        reqs = batch(32)
        device = device_with()
        device.iteration(reqs)
        device.attach_counters()
        late = device.iteration(reqs).counters
        fresh = device_with()
        fresh.attach_counters()
        assert len(late) == 5
        assert late == fresh.iteration(batch(32)).counters

    @pytest.mark.parametrize("grouping", ["auto", "off"])
    def test_bound_one_memos_change_no_payload(self, grouping):
        """Evicting on every miss must give the same run as the default
        bounds: the memos are exact, whatever they hold."""
        spec = ScenarioSpec(
            model="gpt3-7b", layers_resident=2, counters="typed",
            traffic=TrafficSpec.poisson(rate_per_kcycle=0.05,
                                        horizon_cycles=2e6, seed=3,
                                        max_requests=40),
            serving=ServingSpec(max_batch_size=16, grouping=grouping))
        session = Session(spec).materialize()
        memos = squeeze_memos(session.device)
        assert len(memos) == 4
        assert session.run().to_dict() == Session(spec).run().to_dict()
        assert all(memo.evictions for memo in memos)

    def test_pickled_device_computes_on_miss(self):
        device = device_with()
        device.iteration(batch(16))
        clone = pickle.loads(pickle.dumps(device))
        assert clone._iteration_memo.compute.__self__ is clone
        misses = clone._iteration_memo.misses
        result = clone.iteration(batch(48, seed=1))
        assert clone._iteration_memo.misses == misses + 1
        assert result.latency == device_with().iteration(
            batch(48, seed=1)).latency

    def test_replayed_window_adds_no_misses(self):
        """Iterations are memoized by (plan, shift): an equal plan from a
        recurring batch hits every step of the earlier window."""
        device = device_with()
        plan = device.prepare_class_plan(batch(48))
        for shift in range(12):
            device.iteration_from_plan(plan, shift)
        misses = device._iteration_memo.misses
        replay = device.prepare_class_plan(batch(48))
        assert replay is not plan and replay == plan
        for shift in range(12):
            device.iteration_from_plan(replay, shift)
        assert device._iteration_memo.misses == misses


def reference_timeline(layers, first, second):
    """Algorithm-3 list scheduling onto `Resource`s, step by step: the
    reference :func:`interleave_timeline` must match bit for bit."""
    units = {"npu_s": Resource("npu_s"), "pim": Resource("pim")}
    vector = Resource("npu_v")
    stages = (first, second)
    sequences = [[(unit, stage[index]) for _ in range(layers)
                  for unit, index in (("npu_s", 0), ("pim", 1),
                                      ("npu_s", 2))]
                 for stage in stages]
    ready, cursor = [0.0, 0.0], [0, 0]
    while any(cursor[s] < len(sequences[s]) for s in (0, 1)):
        best_s, best_start = None, None
        for s in (0, 1):
            if cursor[s] >= len(sequences[s]):
                continue
            unit, _ = sequences[s][cursor[s]]
            candidate = max(ready[s], units[unit].free_at)
            if best_start is None or candidate < best_start:
                best_s, best_start = s, candidate
        unit, duration = sequences[best_s][cursor[best_s]]
        _, end = units[unit].acquire_for(duration, earliest=ready[best_s])
        if unit == "pim":
            vector.acquire_for(stages[best_s][3], earliest=end - duration)
        ready[best_s] = end
        cursor[best_s] += 1
    return max(ready), vector.busy_time


# Few distinct values make exact ties between the two sub-batches common.
_cycles = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e3]),
                    st.floats(0.0, 1e7, allow_nan=False,
                              allow_infinity=False))
_stage = st.tuples(_cycles, _cycles, _cycles, _cycles)


class TestInterleaveTimeline:
    @settings(max_examples=300, deadline=None)
    @given(layers=st.integers(1, 8), first=_stage, second=_stage)
    def test_matches_resource_list_scheduler(self, layers, first, second):
        latency, vector = interleave_timeline(layers, first, second)
        ref_latency, ref_vector = reference_timeline(layers, first, second)
        assert latency.hex() == ref_latency.hex()
        assert vector.hex() == ref_vector.hex()

    def test_ties_go_to_the_first_sub_batch(self):
        # The sub-batches tie for a unit at t=0, 1 and 2; giving the
        # ties to the second one would end at 6.0.
        first, second = (1.0, 1.0, 2.0, 1.0), (1.0, 2.0, 1.0, 0.5)
        assert interleave_timeline(1, first, second) == \
            reference_timeline(1, first, second) == (5.0, 1.5)


class TestWholeBatchStage:
    """The serialized candidate composed from the two sub-batch stages
    equals the canonical pass over the full histogram."""

    CASES = [
        # (config, counters, exact sums expected; None: batch-dependent)
        (NeuPimsConfig(), False, True),
        # The 1.18 fine-grained overhead leaves ~4% of loads dyadic, so
        # a batch of 8 or more all but surely holds one that is not.
        (NeuPimsConfig(composite_isa=False), False, False),
        (NeuPimsConfig(dual_row_buffer=False), False, None),
        (NeuPimsConfig(adaptive_sbi=False), False, True),
        (NeuPimsConfig(), True, True),
    ]

    @pytest.mark.parametrize("config, counters, exact", CASES)
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(8, 96), seed=st.integers(0, 2 ** 16))
    def test_iteration_matches_canonical_pass(self, config, counters,
                                              exact, n, seed):
        device, canonical = device_with(config), device_with(config)
        if counters:
            device.attach_counters()
            canonical.attach_counters()
        squeeze_memos(device)
        squeeze_memos(canonical)
        canonical._exact_sums = False  # sticky: always the full pass
        passes = []
        stage = device.mha_stage_classes
        device.mha_stage_classes = lambda hist: passes.append(hist) or \
            stage(hist)
        reqs = batch(n, seed=seed)
        result = device.iteration(reqs)
        assert result == canonical.iteration(batch(n, seed=seed))
        if exact is not None:
            assert device._exact_sums is exact
        (_, hist1), (_, hist2) = device.prepare_class_plan(reqs).split
        merged = merge_histograms(hist1, hist2)
        assert merged == mha_histogram(reqs)
        # The two sub-batch passes, plus the canonical pass over the
        # merged histogram where the composed stage was refused.
        whole = config.adaptive_sbi and not device._exact_sums
        assert passes == [hist1, hist2] + ([merged] if whole else [])


def advanced(requests, shift):
    """Copies of ``requests`` after ``shift`` more decode steps."""
    return [make_request(r.request_id, input_len=r.input_len,
                         output_len=r.output_len,
                         generated=r.generated + shift, channel=r.channel)
            for r in requests]


def counted_passes(device):
    """Route the device's canonical MHA passes through a call log."""
    passes = []
    stage = device.mha_stage_classes
    device.mha_stage_classes = lambda hist: passes.append(hist) or \
        stage(hist)
    return passes


CONFIGS = [
    NeuPimsConfig(),
    NeuPimsConfig(dual_row_buffer=False),
    NeuPimsConfig(composite_isa=False),
    NeuPimsConfig(sub_batch_interleaving=False),
    NeuPimsConfig(adaptive_sbi=False),
]

# Some contexts fall below every model's affine threshold (seq_len 6-16).
_input_len = st.one_of(st.integers(1, 20), st.integers(1, 600))
# Unplaced (None) and invalid (-1) channels are placed by the device.
_channel = st.one_of(st.sampled_from([None, -1]), st.integers(0, 31))
_requests = st.lists(st.tuples(_input_len, _channel), min_size=1,
                     max_size=64)


class TestClosedFormSteps:
    """A window's steps after its basis are closed-form in the shift;
    each must equal a canonical iteration of the advanced batch."""

    @settings(deadline=None)
    @given(model=st.sampled_from(sorted(MODEL_REGISTRY)),
           config=st.sampled_from(CONFIGS), requests=_requests,
           shifts=st.lists(st.integers(0, 40), min_size=1, max_size=41,
                           unique=True))
    def test_matches_fresh_device(self, model, config, requests, shifts):
        spec = MODEL_REGISTRY[model]
        device = NeuPimsDevice(spec, config, layers_resident=2)
        reference = NeuPimsDevice(spec, config, layers_resident=2)
        reqs = [make_request(i, input_len=input_len, output_len=64,
                             channel=channel)
                for i, (input_len, channel) in enumerate(requests)]
        plan = device.prepare_class_plan(reqs)
        assert all(0 <= r.channel < device.channel_pool for r in reqs)
        # The one-pass plan is Algorithm 3 over per-request lists.
        sb1, sb2 = partition_batch(reqs, device.channel_pool)
        if config.sub_batch_interleaving and sb1 and sb2:
            assert plan.split == ((len(sb1), mha_histogram(sb1)),
                                  (len(sb2), mha_histogram(sb2)))
        else:
            assert plan.hist == mha_histogram(reqs)
        for shift in [0] + shifts:
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration(advanced(reqs, shift))

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_guard_accepts_every_default_model(self, model):
        """The fast path is live: after the basis no step runs a
        canonical pass, and the guard found the softmax period."""
        device = NeuPimsDevice(MODEL_REGISTRY[model], layers_resident=2)
        reqs = batch(64)
        plan = device.prepare_class_plan(reqs)
        passes = counted_passes(device)
        for shift in range(41):
            device.iteration_from_plan(plan, shift)
        assert len(passes) == 2  # the two sub-batch bases at shift 0
        assert device._affine_ok and device._affine_steps is not None
        assert device._period in (2, 4, 16)
        assert device._affine_floor <= 16

    def test_classes_below_the_threshold_rebase(self):
        """A sub-batch holding a context below the verified range runs
        canonical passes until every class is inside it, then steps from
        that pass in closed form."""
        device = device_with(NeuPimsConfig(sub_batch_interleaving=False))
        reqs = [make_request(0, input_len=3, channel=0),
                make_request(1, input_len=200, channel=1)]
        plan = device.prepare_class_plan(reqs)
        passes = counted_passes(device)
        reference = device_with(NeuPimsConfig(sub_batch_interleaving=False))
        for shift in range(30):
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration(advanced(reqs, shift))
        floor = device._affine_floor
        assert 3 < floor <= 16
        # The basis, then a canonical pass per step until 3 + shift
        # reaches the floor; closed form from the first pass inside.
        assert len(passes) == floor - 3 + 1

    def test_guard_refuses_a_slope_change(self):
        """A window that grows past the kink must not extrapolate the
        slope measured below it: the guard turns off, for good."""
        estimator = KinkedEstimator(
            spec=GPT3_7B, org=NeuPimsConfig().org,
            latencies=analytic_latencies())
        device = NeuPimsDevice(GPT3_7B, layers_resident=2,
                               estimator=estimator)
        reference = NeuPimsDevice(GPT3_7B, layers_resident=2,
                                  estimator=estimator)
        below = [make_request(i, input_len=200 + 3 * i, channel=i % 4)
                 for i in range(8)]
        plan = device.prepare_class_plan(below)
        for shift in range(4):
            device.iteration_from_plan(plan, shift)
        assert device._affine_ok and device._affine_hi < 300
        crossing = advanced(below, 60)  # contexts 260..281
        plan = device.prepare_class_plan(crossing)
        passes = counted_passes(device)
        for shift in range(40):
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration(advanced(crossing, shift))
        assert not device._affine_ok
        assert len(passes) == 2 * 40


@dataclass(frozen=True)
class FallingEstimator(MhaLatencyEstimator):
    """A dyadic estimate that falls by Algorithm 1's slope per token."""

    def estimate(self, seq_len: int) -> float:
        return 2.0 ** 16 - super().estimate(seq_len)


class TestFrontier:
    """A closed-form step reads its most-loaded channel among the basis's
    frontier in (load, members); the max channel may switch inside a
    window, and a falling load must not be pruned at all."""

    # Channel 0: two long contexts, the most-loaded channel at shift 0
    # (one per sub-batch, 15,145 cycles each at seq_len 440).  Channel 1:
    # eight short ones (four per sub-batch, 4 x 3,627.5 = 14,510 cycles
    # at seq_len 100), gaining three times as fast per step: channel 1
    # overtakes in each sub-batch and in the whole batch at shift 7.
    REQUESTS = [(440, 0), (440, 0)] + [(100, 1)] * 8

    @staticmethod
    def _requests():
        return [make_request(i, input_len=input_len, output_len=64,
                             channel=channel)
                for i, (input_len, channel) in
                enumerate(TestFrontier.REQUESTS)]

    @pytest.mark.parametrize("config", [
        NeuPimsConfig(),  # the serialized whole batch wins
        NeuPimsConfig(adaptive_sbi=False),  # the interleaved halves
        NeuPimsConfig(sub_batch_interleaving=False),  # one basis
    ])
    def test_max_channel_switches_inside_a_window(self, config):
        device = NeuPimsDevice(GPT3_7B, config, layers_resident=2)
        reqs = self._requests()
        plan = device.prepare_class_plan(reqs)
        passes = counted_passes(device)
        argmax = set()
        for shift in range(16):
            advanced_reqs = advanced(reqs, shift)
            reference = NeuPimsDevice(GPT3_7B, config, layers_resident=2)
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration(advanced_reqs)
            loads = reference.mha_stage(advanced_reqs).loads
            argmax.add(max(loads, key=loads.get))
        assert argmax == {0, 1}  # the premise: the max channel switched
        assert len(passes) == (1 if plan.split is None else 2)

    @pytest.mark.parametrize("config", [
        NeuPimsConfig(sub_batch_interleaving=False),  # one basis
        NeuPimsConfig(),  # two bases; the whole batch's max channel
    ])
    def test_falling_load_keeps_every_channel(self, config):
        """With a falling load the channel with more members falls
        faster: channel 1 dominates channel 0 in (load, members) at the
        basis, yet channel 0 is the most loaded later on."""
        estimator = FallingEstimator(spec=GPT3_7B, org=NeuPimsConfig().org,
                                     latencies=analytic_latencies())
        device = NeuPimsDevice(GPT3_7B, config, layers_resident=2,
                               estimator=estimator)
        # Channel 1: two contexts at seq_len 960 (2 x 32,776 cycles),
        # falling by 67.75 per step; channel 0: one at seq_len 20
        # (64,618.5), falling by 33.875: channel 0 overtakes at shift 28.
        reqs = [make_request(0, input_len=20, channel=0),
                make_request(1, input_len=960, channel=1),
                make_request(2, input_len=960, channel=1)]
        plan = device.prepare_class_plan(reqs)
        passes = counted_passes(device)
        argmax = set()
        for shift in range(41):
            advanced_reqs = advanced(reqs, shift)
            reference = NeuPimsDevice(GPT3_7B, config, layers_resident=2,
                                      estimator=estimator)
            assert device.iteration_from_plan(plan, shift) == \
                reference.iteration(advanced_reqs)
            loads = reference.mha_stage(advanced_reqs).loads
            argmax.add(max(loads, key=loads.get))
        assert argmax == {0, 1}
        assert device._affine_steps[1] < 0
        assert len(passes) == (1 if plan.split is None else 2)


class TestShardForMha:
    def test_shard_divides_heads(self):
        shard = shard_for_mha(GPT3_7B, 4)
        assert shard.num_heads == 8
        assert shard.d_model == 8 * 128

    def test_shard_preserves_head_dim(self):
        assert shard_for_mha(GPT3_7B, 2).head_dim == GPT3_7B.head_dim
