"""SIMD vector-unit timing model.

Each NeuPIMs NPU chiplet pairs a systolic array with a 128-lane SIMD
vector unit (Table 2) serving the non-GEMM operators: softmax, layer
normalization, residual adds and activation functions.  In the MHA overlap
analysis (Figure 10) the vector units consume partial logits from the PIM
while the systolic arrays stay idle — so their timing matters for the
interleaving model even though they are rarely the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil


@dataclass(frozen=True)
class VectorConfig:
    """Vector-unit geometry."""

    lanes: int = 128
    clock_ghz: float = 1.0
    #: cycles of fixed start-up overhead per kernel invocation
    launch_overhead: int = 16

    def __post_init__(self) -> None:
        if self.lanes <= 0 or self.clock_ghz <= 0 or self.launch_overhead < 0:
            raise ValueError("invalid vector-unit parameters")


def elementwise_cycles(elements: int, config: VectorConfig,
                       ops_per_element: float = 1.0) -> float:
    """Cycles for an elementwise kernel over ``elements`` values."""
    if elements < 0:
        raise ValueError("elements must be non-negative")
    if elements == 0:
        return 0.0
    work = ceil(elements * ops_per_element / config.lanes)
    return config.launch_overhead + work


def softmax_cycles(seq_len: int, num_heads: int, config: VectorConfig) -> float:
    """Cycles for the per-request softmax over ``num_heads`` logit rows.

    Softmax is three passes (max, exp+sum, divide) — about 5 operations per
    element including the exponential.
    """
    if seq_len <= 0 or num_heads <= 0:
        raise ValueError("seq_len and num_heads must be positive")
    return elementwise_cycles(seq_len * num_heads, config, ops_per_element=5.0)


def layernorm_cycles(batch_tokens: int, d_model: int,
                     config: VectorConfig) -> float:
    """Cycles for layer normalization over the batch (2 per block)."""
    return elementwise_cycles(batch_tokens * d_model, config,
                              ops_per_element=4.0)


def activation_cycles(batch_tokens: int, d_ffn: int,
                      config: VectorConfig) -> float:
    """Cycles for the FFN activation function (GELU ~ 8 ops/element)."""
    return elementwise_cycles(batch_tokens * d_ffn, config,
                              ops_per_element=8.0)
