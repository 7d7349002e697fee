"""Tests for mixed prefill+decode iterations."""

import pytest

from repro.core.device import NeuPimsDevice
from repro.core.mixed import (
    MixedBatch,
    mixed_iteration,
    prefill_attention_cycles,
)
from repro.model.spec import GPT3_7B
from repro.serving.request import InferenceRequest

from tests.conftest import make_request


def device(layers=2):
    return NeuPimsDevice(GPT3_7B, tp=4, layers_resident=layers)


def prefill_request(rid, prompt=128):
    return InferenceRequest(rid, input_len=prompt, output_len=32)


class TestMixedBatch:
    def test_gemm_tokens_combine_phases(self):
        batch = MixedBatch(
            decode=[make_request(i) for i in range(4)],
            prefill=[prefill_request(10, 100), prefill_request(11, 50)])
        assert batch.gemm_tokens == 4 + 150

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            MixedBatch(decode=[], prefill=[])


class TestMixedIteration:
    def test_decode_only_close_to_plain_iteration(self):
        d = device()
        decode = [make_request(i, input_len=256) for i in range(32)]
        mixed = mixed_iteration(d, MixedBatch(decode, []))
        plain = d.iteration([make_request(100 + i, input_len=256)
                             for i in range(32)])
        assert mixed.latency == pytest.approx(plain.latency, rel=0.25)

    def test_prefill_work_increases_latency(self):
        d = device()
        decode = [make_request(i, input_len=256) for i in range(32)]
        base = mixed_iteration(d, MixedBatch(list(decode), [])).latency
        with_prefill = mixed_iteration(
            d, MixedBatch(decode, [prefill_request(50, 512)])).latency
        assert with_prefill > base

    def test_prefill_attention_scales_quadratically(self):
        d = device()
        short = prefill_attention_cycles(d, [prefill_request(0, 256)])
        long = prefill_attention_cycles(d, [prefill_request(1, 1024)])
        assert long > 4 * short

    def test_pure_prefill_iteration_has_no_pim_work(self):
        d = device()
        result = mixed_iteration(
            d, MixedBatch([], [prefill_request(0, 256)]))
        assert result.busy["pim"] == 0.0
        assert result.latency > 0

    def test_decode_mha_overlaps_prefill_compute(self):
        """Adding prefill work to a PIM-bound iteration is partly free."""
        d = device()
        decode = [make_request(i, input_len=2048, channel=0)
                  for i in range(8)]
        base = mixed_iteration(d, MixedBatch(list(decode), [])).latency
        combo = mixed_iteration(
            d, MixedBatch(decode, [prefill_request(60, 64)])).latency
        # The small prefill hides inside the long MHA stage.
        assert combo < base * 1.15
