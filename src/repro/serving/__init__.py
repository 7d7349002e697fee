"""Inference-serving substrate: requests, pool, paging, traces, scheduler."""

from repro.serving.paging import (
    OutOfMemoryError,
    PagedKvAllocator,
    PagedKvConfig,
    channel_allocators,
    max_batch_without_paging,
)
from repro.serving.grouping import (
    GROUPING_MODES,
    DeviceClassPlan,
    GroupedExecutor,
    ClassTable,
    SystemClassPlan,
    class_histogram,
    mha_histogram,
    shift_histogram,
)
from repro.serving.events import (
    FaultInjected,
    IterationCompleted,
    KvPressure,
    NodeDegraded,
    RequestAdmitted,
    RequestRetired,
    RequestRetried,
    RequestShed,
    RequestTimedOut,
    ServingEvent,
    WindowCommitted,
)
from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.scheduler import (
    IterationRecord,
    IterationScheduler,
    ServingStats,
)
from repro.serving.trace import (
    ALPACA,
    DATASETS,
    SHAREGPT,
    DatasetTrace,
    LengthDistribution,
    get_dataset,
    poisson_arrivals,
    sample_batches,
    warmed_batch,
)

from repro.serving.latency import (
    LatencyReport,
    LatencyTracker,
    RequestLatency,
    percentile,
)

from repro.serving.preemption import (
    PreemptingAllocatorPool,
    PreemptionCosts,
    RestorePolicy,
)

__all__ = [
    "OutOfMemoryError",
    "PagedKvAllocator",
    "PagedKvConfig",
    "channel_allocators",
    "max_batch_without_paging",
    "DeviceClassPlan",
    "GROUPING_MODES",
    "GroupedExecutor",
    "ClassTable",
    "SystemClassPlan",
    "class_histogram",
    "mha_histogram",
    "shift_histogram",
    "FaultInjected",
    "IterationCompleted",
    "KvPressure",
    "NodeDegraded",
    "RequestAdmitted",
    "RequestRetired",
    "RequestRetried",
    "RequestShed",
    "RequestTimedOut",
    "ServingEvent",
    "WindowCommitted",
    "RequestPool",
    "InferenceRequest",
    "RequestStatus",
    "IterationRecord",
    "IterationScheduler",
    "ServingStats",
    "ALPACA",
    "DATASETS",
    "SHAREGPT",
    "DatasetTrace",
    "LengthDistribution",
    "get_dataset",
    "poisson_arrivals",
    "sample_batches",
    "warmed_batch",
    "LatencyReport",
    "LatencyTracker",
    "RequestLatency",
    "percentile",
    "PreemptingAllocatorPool",
    "PreemptionCosts",
    "RestorePolicy",
]
