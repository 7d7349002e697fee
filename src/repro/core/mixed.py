"""Mixed prefill + decode iterations (Orca's selective batching, fully).

The paper's system splits phases across hardware: summarization on
standalone NPUs, generation on NeuPIMs devices (Figure 7).  Orca's
original selective batching instead allows *mixed* iterations, where some
requests contribute their whole prompt (prefill) and others one decode
token, sharing the batched GEMMs.  This module models mixed iterations on
a NeuPIMs device:

* batched GEMMs run over ``decode_tokens + sum(prompt lengths)`` rows;
* decode requests' MHA runs on the PIM as usual (GEMV);
* prefill requests' attention is compute-shaped (matrix-matrix) and runs
  on the NPU alongside the GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.device import IterationResult, NeuPimsDevice
from repro.model.layers import GemmShape
from repro.serving.request import InferenceRequest


@dataclass(frozen=True)
class MixedBatch:
    """One mixed iteration's composition."""

    decode: Sequence[InferenceRequest]
    prefill: Sequence[InferenceRequest]

    def __post_init__(self) -> None:
        if not self.decode and not self.prefill:
            raise ValueError("mixed batch is empty")

    @property
    def gemm_tokens(self) -> int:
        """Rows of the batched GEMMs: one per decode request plus every
        prompt token of the prefill requests."""
        return len(self.decode) + sum(r.input_len for r in self.prefill)


def prefill_attention_cycles(device: NeuPimsDevice,
                             prefill: Sequence[InferenceRequest]) -> float:
    """NPU cycles for the prefill requests' (GEMM-shaped) attention."""
    spec = device.spec
    total = 0.0
    for request in prefill:
        seq = request.input_len
        attn = GemmShape(m=seq * spec.num_heads, k=spec.head_dim, n=seq)
        total += 2 * device.npu.gemm_cycles(attn, spec.dtype_bytes)
    return total


def mixed_iteration(device: NeuPimsDevice, batch: MixedBatch
                    ) -> IterationResult:
    """Execute one mixed prefill+decode iteration on a NeuPIMs device.

    The decode requests' PIM MHA overlaps the (now larger) GEMM stages
    exactly as in a pure decode iteration; the prefill attention adds NPU
    work to the projection/FFN stage, which further hides the PIM time.
    """
    gemm = device.gemm_stage_cycles(batch.gemm_tokens)
    prefill_attn = prefill_attention_cycles(device, batch.prefill)

    if batch.decode:
        device._ensure_assigned(batch.decode)
        mha = device.mha_stage(batch.decode)
        t_mha = mha.duration(device.config.dual_row_buffer)
        softmax = mha.softmax_cycles
        pim_busy = mha.pim_busy_cycles
        internal = mha.internal_bytes
    else:
        t_mha = softmax = pim_busy = internal = 0.0

    npu_stage = gemm.qkv_cycles + gemm.projffn_cycles + prefill_attn
    if device.config.sub_batch_interleaving and batch.decode:
        # The decode MHA overlaps the GEMM + prefill-attention work.
        per_block = max(npu_stage, t_mha) + min(npu_stage, t_mha) * 0.1
    else:
        per_block = npu_stage + t_mha
    latency = per_block * device.layers

    busy = {
        "npu": (gemm.compute_cycles + prefill_attn) * device.layers,
        "npu_vector": softmax * device.layers,
        "pim": pim_busy * device.layers,
    }
    return IterationResult(
        latency=latency,
        busy=busy,
        external_bytes=gemm.external_bytes * device.layers,
        internal_pim_bytes=internal * device.layers,
    )

