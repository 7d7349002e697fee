"""Channel load balancing — Algorithm 2 (greedy min-load bin packing).

Each request's KV cache lives in one PIM channel, and a channel executes
its requests' MHA sequentially; the MHA phase of an iteration therefore
lasts as long as the *most loaded* channel.  Algorithm 2 minimizes that
makespan greedily: sort incoming requests by sequence length descending
and place each on the channel with the smallest estimated load (LPT
scheduling, a 4/3-approximation of the optimal makespan).

The naive NPU+PIM baseline assigns requests round-robin instead
(:func:`round_robin_assign`), which Figure 13 shows costs throughput
whenever sequence lengths are skewed.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.estimator import MhaLatencyEstimator
from repro.serving.request import InferenceRequest


#: A multiple of 1/32 in [0, 2**32) is an integer number of 1/32 units
#: below 2**37, so over at most this many requests every product and
#: partial sum of such values (or of their differences) is an integer
#: below 2**53 units: float arithmetic on them is exact in any order.
EXACT_BATCH = 2 ** 16


class ChannelLoadTracker:
    """Incrementally maintained per-channel load (Algorithm 2's metric).

    Algorithm 2 starts from the per-channel loads of the *resident*
    requests before placing new ones; recomputing ``estimate_batch`` over
    every channel's whole resident set at each admission boundary would be
    O(batch x channels x iterations), so this tracker keeps those loads
    live instead.  The scheduler calls :meth:`add` on admission,
    :meth:`update` when a request's context grows (:meth:`shift` when a
    grouped window grew them all), and :meth:`remove` on retirement;
    the bin packer starts from :attr:`loads` instead of re-estimating
    the resident set.

    The tracker stores a per-channel **seq_len histogram** (integer
    multiplicities of each equivalence class) and derives loads from it
    lazily, accumulating ``estimate(seq_len) * count`` in ascending
    seq_len order.  Integer histogram updates commute, so the loads are a
    pure function of the resident class multiset — the per-request
    update path and the grouped engine's batched resync produce
    bit-identical loads, and :func:`channel_loads` (the scan-based
    recompute) uses the same canonical accumulation.

    Histogram keys are ``seq_len - offset`` for one tracker-wide
    ``offset``: a grouped window over the whole tracked set advances
    every context by the same number of tokens, which :meth:`shift`
    records instead of moving each request's key.  With a ``guard``
    (the device's affine guard, attached by
    :meth:`~repro.core.device.NeuPimsDevice.attach_load_tracker`) that
    vouches for every tracked seq_len over the old and the new offset,
    a shift steps each cached load by one estimate step times its
    channel's members, which is the canonical sum bit for bit (every
    value is exact there: DESIGN.md §5); otherwise the cache is dropped.

    Note this is a *behavioral* upgrade where wired in, not only a fast
    path: the untracked scheduler wiring passes no resident set, so
    admission packs against idle channels.  Attaching a tracker makes
    placement follow the paper's algorithm (and changes serving numbers
    accordingly); the untracked default is unchanged.

    Pairs well with :func:`repro.perf.memoized_estimator`, which makes the
    per-request re-estimates O(1) dictionary hits.
    """

    def __init__(self, estimator: MhaLatencyEstimator, num_channels: int,
                 guard: Optional[Callable[[int, int], bool]] = None) -> None:
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        self.estimator = estimator
        self.num_channels = num_channels
        #: ``guard(low, high)``: whether ``estimator``'s values over
        #: seq_lens ``[low, high]`` are exact and step alike per token
        self.guard = guard
        #: per-channel {seq_len - offset: count} histograms
        self._hist: List[Dict[int, int]] = [{} for _ in range(num_channels)]
        #: request id -> (channel, seq_len - offset at last refresh)
        self._contrib: Dict[int, Tuple[int, int]] = {}
        #: tokens added to every tracked context by :meth:`shift`
        self._offset = 0
        #: per-channel cached load (None = recompute from histogram)
        self._cache: List[Optional[float]] = [0.0] * num_channels
        #: per channel with a cached load: (lowest key, highest key,
        #: members), or None while it is empty
        self._spans: List[Optional[Tuple[int, int, int]]] = \
            [None] * num_channels

    @property
    def loads(self) -> List[float]:
        """Current estimated load per channel (live copy)."""
        cache = self._cache
        if None not in cache:
            return cache[:]
        return [self._channel_load(channel) if load is None else load
                for channel, load in enumerate(cache)]

    def _channel_load(self, channel: int) -> float:
        cached = self._cache[channel]
        if cached is None:
            hist = self._hist[channel]
            offset = self._offset
            cached = 0.0
            keys = sorted(hist)
            for key in keys:
                cached += self.estimator.estimate(key + offset) * hist[key]
            self._cache[channel] = cached
            self._spans[channel] = (keys[0], keys[-1], sum(hist.values())) \
                if keys else None
        return cached

    def __len__(self) -> int:
        return len(self._contrib)

    def _check_channel(self, request: InferenceRequest) -> int:
        channel = request.channel
        if channel is None or not 0 <= channel < self.num_channels:
            raise ValueError(
                f"request {request.request_id} has no valid channel "
                f"(got {channel})"
            )
        return channel

    def _hist_add(self, channel: int, key: int) -> None:
        hist = self._hist[channel]
        hist[key] = hist.get(key, 0) + 1
        self._cache[channel] = None

    def _hist_remove(self, channel: int, key: int) -> None:
        hist = self._hist[channel]
        remaining = hist.get(key, 0) - 1
        if remaining < 0:
            raise ValueError(
                f"channel {channel} histogram underflow at seq_len "
                f"{key + self._offset}")
        if remaining:
            hist[key] = remaining
        else:
            hist.pop(key, None)
        self._cache[channel] = None

    def add(self, request: InferenceRequest) -> float:
        """Track an admitted request; returns its load contribution."""
        channel = self._check_channel(request)
        if request.request_id in self._contrib:
            raise ValueError(f"request {request.request_id} already tracked")
        seq_len = request.seq_len
        key = seq_len - self._offset
        self._hist_add(channel, key)
        self._contrib[request.request_id] = (channel, key)
        return self.estimator.estimate(seq_len)

    def update(self, request: InferenceRequest) -> None:
        """Refresh a request's contribution (context grew).

        Upserts: a running request the tracker has not seen — e.g. a
        pre-warmed batch submitted directly in the RUNNING state, which
        never crosses the admission path — is adopted once it has a
        channel, so per-iteration refreshes self-heal coverage.
        """
        entry = self._contrib.get(request.request_id)
        if entry is None:
            channel = request.channel
            if channel is not None and 0 <= channel < self.num_channels:
                self.add(request)
            return
        old_channel, old_key = entry
        if request.channel != old_channel:
            # The request was re-homed (e.g. re-assigned for a smaller
            # channel pool): migrate its contribution.
            self.remove(request)
            self.update(request)
            return
        new_key = request.seq_len - self._offset
        if new_key == old_key:
            return
        self._hist_remove(old_channel, old_key)
        self._hist_add(old_channel, new_key)
        self._contrib[request.request_id] = (old_channel, new_key)

    def sync_member(self, request_id: int, channel: int,
                    seq_len: int) -> None:
        """Per-member resync from the grouped engine (upserting, like
        :meth:`update`, but without touching the request object); the
        fallback of :meth:`shift` when a window's batch is not exactly
        the tracked set."""
        key = seq_len - self._offset
        entry = self._contrib.get(request_id)
        if entry is not None:
            if entry == (channel, key):
                return
            self._hist_remove(*entry)
        self._hist_add(channel, key)
        self._contrib[request_id] = (channel, key)

    def shift(self, steps: int) -> None:
        """Every tracked context grew by ``steps`` tokens.

        The grouped engine's window close when its batch is exactly the
        tracked set: O(channels), whatever the batch size.  Keys are
        relative to the offset, so the histograms keep their shape and
        order and loads stay the canonical ascending-seq_len sums.  A
        cached load steps in closed form where the guard vouches for the
        seq_lens crossed (see the class docstring), else it is dropped.
        """
        if not steps:
            return
        offset = self._offset
        self._offset += steps
        cache, spans = self._cache, self._spans
        occupied = [channel for channel, span in enumerate(spans)
                    if span is not None and cache[channel] is not None]
        if occupied and self.guard is not None \
                and len(self._contrib) <= EXACT_BATCH:
            low = min(spans[channel][0] for channel in occupied)
            high = max(spans[channel][1] for channel in occupied)
            first, last = sorted((offset, self._offset))
            if self.guard(low + first, high + last):
                estimate = self.estimator.estimate
                step = estimate(low + self._offset) - estimate(low + offset)
                for channel in occupied:
                    cache[channel] += step * spans[channel][2]
                return
        for channel in occupied:
            cache[channel] = None

    def remove(self, request: InferenceRequest) -> None:
        """Stop tracking a retired request (no-op when untracked)."""
        entry = self._contrib.pop(request.request_id, None)
        if entry is None:
            return
        self._hist_remove(*entry)

    def clear(self) -> None:
        """Forget every tracked request."""
        self._hist = [{} for _ in range(self.num_channels)]
        self._cache = [0.0] * self.num_channels
        self._spans = [None] * self.num_channels
        self._contrib.clear()


def channel_loads(requests: Iterable[InferenceRequest],
                  estimator: MhaLatencyEstimator,
                  num_channels: int) -> List[float]:
    """Estimated MHA load (cycles) per channel for assigned requests.

    Accumulates per (channel, seq_len) equivalence class in ascending
    seq_len order — the same canonical arithmetic as
    :class:`ChannelLoadTracker`, so a scan-based recompute matches the
    incrementally tracked loads bit for bit.
    """
    hists: List[Dict[int, int]] = [{} for _ in range(num_channels)]
    for request in requests:
        if request.channel is None:
            continue
        if not 0 <= request.channel < num_channels:
            raise ValueError(
                f"request {request.request_id} on invalid channel "
                f"{request.channel}"
            )
        hist = hists[request.channel]
        hist[request.seq_len] = hist.get(request.seq_len, 0) + 1
    loads = [0.0] * num_channels
    for channel, hist in enumerate(hists):
        for seq_len in sorted(hist):
            loads[channel] += estimator.estimate(seq_len) * hist[seq_len]
    return loads


def greedy_min_load_assign(
    new_requests: Sequence[InferenceRequest],
    estimator: MhaLatencyEstimator,
    num_channels: int,
    existing: Sequence[InferenceRequest] = (),
    initial_loads: Optional[Sequence[float]] = None,
) -> Dict[int, int]:
    """Algorithm 2: assign ``new_requests`` to channels, mutating them.

    Parameters
    ----------
    new_requests:
        Requests without a channel assignment.
    existing:
        Already-placed requests contributing to current channel loads
        (Algorithm 2's initial per-channel load computation).
    initial_loads:
        Pre-computed starting loads (e.g. a :class:`ChannelLoadTracker`'s
        :attr:`~ChannelLoadTracker.loads`); when given, ``existing`` is
        not re-estimated.

    Returns
    -------
    Mapping of request id to assigned channel (also written into each
    request's ``channel`` field).
    """
    if num_channels <= 0:
        raise ValueError("num_channels must be positive")
    if initial_loads is not None:
        if len(initial_loads) != num_channels:
            raise ValueError("initial_loads length must equal num_channels")
        loads = list(initial_loads)
    else:
        loads = channel_loads(existing, estimator, num_channels)

    assignment: Dict[int, int] = {}
    # Sort by sequence length descending (longest-processing-time first).
    ordered = sorted(new_requests, key=lambda r: (-r.seq_len, r.request_id))
    # A min-heap of (load, channel) pops the least-loaded channel, ties to
    # the lower index — the same choice as a scan over channels, in
    # O(log channels) per request.
    heap = [(load, channel) for channel, load in enumerate(loads)]
    heapify(heap)
    for request in ordered:
        load, channel = heap[0]
        request.channel = channel
        heapreplace(heap, (load + estimator.estimate(request.seq_len),
                           channel))
        assignment[request.request_id] = channel
    return assignment


def round_robin_assign(
    new_requests: Sequence[InferenceRequest],
    num_channels: int,
    start: int = 0,
) -> Dict[int, int]:
    """Baseline policy: requests go to channels round-robin (paper §8.1)."""
    if num_channels <= 0:
        raise ValueError("num_channels must be positive")
    assignment: Dict[int, int] = {}
    for offset, request in enumerate(new_requests):
        channel = (start + offset) % num_channels
        request.channel = channel
        assignment[request.request_id] = channel
    return assignment


def load_imbalance(loads: Sequence[float]) -> float:
    """Makespan imbalance: max load over mean load (1.0 = perfectly even)."""
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean
