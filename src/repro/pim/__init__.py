"""PIM substrate: Newton-style GEMV engine, NeuPIMs ISA, KV layout."""

from repro.pim.engine import (
    CalibratedLatencies,
    MhaExecution,
    PimChannelEngine,
    calibrate,
    measure_gemv_latency,
)
from repro.pim.gemv import (
    GemvOp,
    command_count,
    composite_stream,
    fine_grained_stream,
)
from repro.pim.layout import KvLayout

from repro.pim.functional import (
    FunctionalPimChannel,
    pim_attention,
    reference_attention,
)

__all__ = [
    "CalibratedLatencies",
    "MhaExecution",
    "PimChannelEngine",
    "calibrate",
    "measure_gemv_latency",
    "GemvOp",
    "command_count",
    "composite_stream",
    "fine_grained_stream",
    "KvLayout",
    "FunctionalPimChannel",
    "pim_attention",
    "reference_attention",
]
