"""NeuPIMs core: configuration, algorithms 1-3, device and system models."""

from repro.core.binpack import (
    ChannelLoadTracker,
    channel_loads,
    greedy_min_load_assign,
    load_imbalance,
    round_robin_assign,
)
from repro.core.config import NeuPimsConfig
from repro.core.device import (
    IterationResult,
    MhaStageTiming,
    NeuPimsDevice,
    shard_for_mha,
)
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.core.partition import (
    group_by_channel,
    partition_batch,
    partition_stats,
    partition_sub_batches,
)
from repro.core.system import NeuPimsSystem, ParallelismScheme

from repro.core.overlap import HeadPipelineModel, OverlapTimeline
from repro.core.planner import DeploymentPlan, PlanPoint, plan_deployment
from repro.core.prefill import EndToEndResult, StandaloneNpu, end_to_end_request

__all__ = [
    "ChannelLoadTracker",
    "channel_loads",
    "greedy_min_load_assign",
    "load_imbalance",
    "round_robin_assign",
    "NeuPimsConfig",
    "IterationResult",
    "MhaStageTiming",
    "NeuPimsDevice",
    "shard_for_mha",
    "MhaLatencyEstimator",
    "analytic_latencies",
    "group_by_channel",
    "partition_batch",
    "partition_stats",
    "partition_sub_batches",
    "NeuPimsSystem",
    "ParallelismScheme",
    "HeadPipelineModel",
    "OverlapTimeline",
    "DeploymentPlan",
    "PlanPoint",
    "plan_deployment",
    "EndToEndResult",
    "StandaloneNpu",
    "end_to_end_request",
]
