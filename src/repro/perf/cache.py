"""Keyed, invalidatable caches shared by the performance fast paths.

The command-level simulation and the serving stack recompute a lot of
pure-function results: GEMV command streams for identical shapes,
:func:`repro.pim.engine.calibrate` for identical hardware configs,
Algorithm-1 estimates for identical sequence lengths.  Those
process-wide tables are named :class:`KeyedCache` instances, so they can
be inspected (:func:`cache_info`) and dropped (:func:`invalidate`)
uniformly.  Per-object memos of pure one-argument methods (the device's
GEMM-stage, per-class MHA and iteration memos) use the lighter
:class:`Memo` instead.

Keys must capture *every* input of the cached computation.  The hardware
parameter dataclasses (:class:`~repro.dram.timing.TimingParams`,
:class:`~repro.dram.timing.HbmOrganization`,
:class:`~repro.dram.timing.PimTiming`, :class:`~repro.model.spec.ModelSpec`)
are frozen and hash by value, so a config that differs in any field —
e.g. an ``HbmOrganization`` with a different page size — naturally misses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional


class KeyedCache:
    """A named memo table with hit/miss accounting and size bounds.

    Eviction is FIFO (oldest insertion first) and is driven by two
    independent bounds: an entry count, and optionally a total *weight*
    computed per value (e.g. ``len`` for interned command streams, so the
    bound tracks retained commands rather than entry count — one 10k-
    command stream weighs what it costs).
    """

    def __init__(self, name: str, max_entries: int = 4096,
                 max_weight: Optional[float] = None,
                 weight: Optional[Callable[[Any], float]] = None) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_weight is not None and max_weight <= 0:
            raise ValueError("max_weight must be positive")
        self.name = name
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.hits = 0
        self.misses = 0
        #: bumped on every clear(); lets write-through L1 mirrors (e.g.
        #: :class:`repro.perf.calibration.MemoizedEstimator`) detect
        #: invalidation without re-keying the shared table per lookup
        self.generation = 0
        self._weight_fn = weight
        self._entries: Dict[Hashable, Any] = {}
        self._weights: Dict[Hashable, float] = {}
        self._total_weight = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _evict_oldest(self) -> None:
        oldest = next(iter(self._entries))
        del self._entries[oldest]
        self._total_weight -= self._weights.pop(oldest, 0.0)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = compute()
            weight = (float(self._weight_fn(value))
                      if self._weight_fn is not None else 0.0)
            if self.max_weight is not None and weight > self.max_weight:
                # Heavier than the whole budget: caching it would flush
                # everything and still bust the bound — hand it back
                # uncached instead.
                return value
            while self._entries and (
                    len(self._entries) >= self.max_entries
                    or (self.max_weight is not None
                        and self._total_weight + weight > self.max_weight)):
                self._evict_oldest()
            self._entries[key] = value
            if weight:
                self._weights[key] = weight
                self._total_weight += weight
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are kept)."""
        self._entries.clear()
        self._weights.clear()
        self._total_weight = 0.0
        self.generation += 1

    def info(self) -> Dict[str, float]:
        """Size, weight and hit/miss counters, for diagnostics and tests."""
        return {"size": len(self._entries), "hits": self.hits,
                "misses": self.misses, "weight": self._total_weight}


class Memo(dict):
    """A bounded per-instance memo for one pure one-argument function.

    ``memo[key]`` returns ``compute(key)``, computing it only on a miss.
    A hit is a plain dict lookup (``dict.__getitem__`` consults
    :meth:`__missing__` only when the key is absent), which is what the
    device's per-class and per-signature lookups need: hundreds of
    thousands of them per serving run.  At ``bound`` entries the oldest
    insertion is evicted (FIFO).  ``misses`` and ``evictions`` count the
    slow path; hits are not counted, since counting them would cost the
    fast path a Python frame.

    Unlike :class:`KeyedCache` a memo is not registered by name and not
    reached by :func:`invalidate`: it belongs to the object whose fixed
    configuration makes ``compute`` pure, and dies with it.
    """

    def __init__(self, compute: Callable[[Hashable], Any],
                 bound: int) -> None:
        super().__init__()
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.compute = compute
        self.bound = bound
        self.misses = 0
        self.evictions = 0

    def __missing__(self, key: Hashable) -> Any:
        self.misses += 1
        value = self.compute(key)
        if len(self) >= self.bound:
            del self[next(iter(self))]
            self.evictions += 1
        self[key] = value
        return value


_REGISTRY: Dict[str, KeyedCache] = {}


def cache(name: str, max_entries: int = 4096,
          max_weight: Optional[float] = None,
          weight: Optional[Callable[[Any], float]] = None) -> KeyedCache:
    """Get or create the registry cache called ``name``.

    Configuration parameters apply on creation only; later lookups by
    name return the existing instance unchanged.
    """
    existing = _REGISTRY.get(name)
    if existing is None:
        existing = _REGISTRY[name] = KeyedCache(name, max_entries,
                                                max_weight, weight)
    return existing


def invalidate(name: Optional[str] = None) -> None:
    """Clear one named cache, or every registered cache."""
    if name is not None:
        target = _REGISTRY.get(name)
        if target is not None:
            target.clear()
        return
    for entry in _REGISTRY.values():
        entry.clear()


def cache_info() -> Dict[str, Dict[str, float]]:
    """Size/hit/miss summary of every registered cache, by name."""
    return {name: entry.info() for name, entry in sorted(_REGISTRY.items())}
