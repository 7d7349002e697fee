"""Cross-layer performance subsystem: memoization and interning.

Three caches back the serving-scale fast paths (see DESIGN.md):

* :mod:`repro.perf.streams` interns GEMV command streams per
  ``(shape, organization, encoding, dtype)``;
* :mod:`repro.perf.calibration` caches command-level calibration per
  hardware configuration and memoizes Algorithm-1 estimates per sequence
  length;
* :mod:`repro.perf.cache` is the shared keyed-cache registry with
  uniform invalidation and hit/miss accounting.

:class:`~repro.perf.cache.Memo` is the fourth piece: a bounded FIFO
memo for one pure one-argument function, owned by the object that makes
the function pure (the device's GEMM-stage, per-class MHA and iteration
memos, the counter model's per-class memo).  A hit is a bare dict
lookup, so it stays out of the named registry.
"""

from repro.perf.cache import KeyedCache, Memo, cache, cache_info, invalidate
from repro.perf.calibration import (CALIBRATION_CACHE, ESTIMATE_CACHE,
                                    MemoizedEstimator, cached_calibrate,
                                    memoized_estimator)
from repro.perf.streams import STREAM_CACHE, interned_stream

__all__ = [
    "KeyedCache",
    "Memo",
    "cache",
    "cache_info",
    "invalidate",
    "CALIBRATION_CACHE",
    "ESTIMATE_CACHE",
    "MemoizedEstimator",
    "cached_calibrate",
    "memoized_estimator",
    "STREAM_CACHE",
    "interned_stream",
]
