"""NPU substrate: systolic arrays, vector units, chip-level latency model."""

from repro.npu.chip import NpuChip, NpuConfig
from repro.npu.systolic import (
    SystolicConfig,
    TileSchedule,
    gemm_compute_cycles,
    gemm_efficiency,
    schedule_gemm,
)
from repro.npu.vector import (
    VectorConfig,
    activation_cycles,
    elementwise_cycles,
    layernorm_cycles,
    softmax_cycles,
)

from repro.npu.functional import FunctionalSystolicArray, reference_gemm

__all__ = [
    "NpuChip",
    "NpuConfig",
    "SystolicConfig",
    "TileSchedule",
    "gemm_compute_cycles",
    "gemm_efficiency",
    "schedule_gemm",
    "VectorConfig",
    "activation_cycles",
    "elementwise_cycles",
    "layernorm_cycles",
    "softmax_cycles",
    "FunctionalSystolicArray",
    "reference_gemm",
]
