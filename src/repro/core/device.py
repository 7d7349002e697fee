"""The NeuPIMs device model: one NPU+PIM accelerator executing iterations.

This is the event/tile-level model used by the end-to-end experiments
(Figures 12-15, Table 4).  One generation iteration of the resident
decoder blocks is composed from:

* **GEMM stages** on the NPU systolic arrays (QKV generation and
  projection + FFNs), timed by :class:`repro.npu.chip.NpuChip` — these are
  sharded by tensor parallelism;
* **MHA stages** on the PIM channels (logit/attend GEMVs per request,
  estimated by Algorithm 1) and the NPU vector units (softmax).  Following
  the paper's Algorithm 1 (which uses the full ``E`` and ``N_head``), MHA
  work is *not* sharded by TP: a request's KV cache lives whole in its
  assigned channel, and tensor parallelism shards the weight GEMMs only.

Execution composition depends on the feature flags:

* ``sub_batch_interleaving`` off -> the serialized timeline of Figure
  11(a): N x (QKV -> MHA -> Proj&FFNs).
* on -> the Figure 11(b) pipeline: the batch splits per Algorithm 3 and
  the two sub-batches are list-scheduled onto the NPU-S and PIM units
  (:func:`interleave_timeline`), overlapping one sub-batch's GEMMs with
  the other's MHA.
* ``dual_row_buffer`` off (blocked mode) additionally serializes the
  per-head PIM->vector-unit handoffs inside MHA and pays the fine-grained
  command overhead (no composite ISA without the NeuPIMs bank).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.binpack import (ChannelLoadTracker, greedy_min_load_assign,
                                round_robin_assign)
from repro.core.config import NeuPimsConfig
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.perf.cache import Memo
from repro.perf.calibration import memoized_estimator
from repro.core.partition import sub_batch_halves
from repro.model.layers import ffn_gemms, projection_gemm, qkv_generation_gemm
from repro.model.spec import ModelSpec
from repro.npu.chip import NpuChip
from repro.serving.grouping import (ClassTable, DeviceClassPlan,
                                    MhaHistogram, merge_histograms,
                                    mha_histogram, shift_histogram)
from repro.serving.request import InferenceRequest

#: A multiple of 1/32 in [0, 2**32) is an integer number of 1/32 units
#: below 2**37, so over at most this many requests every product and
#: partial sum of such values (or of their differences) is an integer
#: below 2**53 units: float arithmetic on them is exact in any order.
_EXACT_BATCH = 2 ** 16


#: Softmax periods the affine guard tries; each divides the last.
_PERIODS = (1, 2, 4, 8, 16)
#: Seq_lens the guard verifies past the top of the range it is asked for.
_AFFINE_SPAN = 2 * _PERIODS[-1]


def _dyadic(value: float) -> bool:
    return 0.0 <= value < 2.0 ** 32 and (value * 32.0).is_integer()


def _class_histogram(channels: Sequence[Tuple[int, List[int]]]
                     ) -> MhaHistogram:
    """The canonical histogram of ascending ``(channel, seq_lens)``."""
    hist: List[Tuple[int, int, int]] = []
    for channel, seq_lens in channels:
        seq_lens.sort()
        start = 0
        while start < len(seq_lens):
            end = bisect_right(seq_lens, seq_lens[start], start)
            hist.append((channel, seq_lens[start], end - start))
            start = end
    return tuple(hist)


def _profile(hist: MhaHistogram, period: int = _PERIODS[-1]):
    """``({channel: requests}, lowest seq_len, highest seq_len,
    {seq_len mod period: requests})``: what a stage needs to step in
    closed form (`NeuPimsDevice._advance`); ``period`` divides
    ``_PERIODS[-1]``."""
    counts: Dict[int, int] = {}
    residues: Dict[int, int] = {}
    for channel, seq_len, count in hist:
        counts[channel] = counts.get(channel, 0) + count
        residue = seq_len % period
        residues[residue] = residues.get(residue, 0) + count
    seq_lens = list(map(itemgetter(1), hist))
    return counts, min(seq_lens), max(seq_lens), residues


def _bump(counts: Dict, key, step: int) -> int:
    """Add ``step`` to ``counts[key]``, dropping the key at zero."""
    count = counts.get(key, 0) + step
    if count:
        counts[key] = count
    else:
        del counts[key]
    return count


class _LiveSplit:
    """One device's view of a live :class:`ClassTable`: Algorithm 3's
    split of every channel, the two sub-batch histograms and their basis
    MHA stages, over seq_lens relative to the table's offset.

    ``lens``, ``members`` and ``halves`` hold each channel's relative
    seq_lens in member id order, its size and its first-half size as last
    planned.  Per sub-batch: ``hist`` is the canonical histogram as a
    sorted list, and a basis is ``[offset, stage]`` (stage ``None`` when
    the sub-batch is empty) or ``None`` while unknown, as after a rebuild
    until a canonical pass supplies it.  A known basis comes with its
    profile (`_profile`'s members per channel and per seq_len residue)
    and, while a plan applies deltas, with ``sums``, the basis being
    updated as ``[loads, raw, softmax, KV bytes]``.
    """

    def __init__(self, table: ClassTable, channel_pool: int) -> None:
        self.table, self.generation = table, table.generation
        self.lens: Dict[int, List[int]] = {}
        self.members = [0] * channel_pool
        self.halves = [0] * channel_pool
        self.hist: Tuple[List[Tuple[int, int, int]], ...] = ([], [])
        self.sizes, self.changed = [0, 0], [True, True]
        self.spans: List[Tuple[int, int]] = [(0, 0), (0, 0)]
        self.bases: List[Optional[list]] = [None, None]
        self.profiles: List[Optional[tuple]] = [None, None]
        self.sums: List[Optional[list]] = [None, None]
        self.plan: Optional[DeviceClassPlan] = None
        #: the bases installed with `plan`
        self.installed: List[Optional[list]] = [None, None]

    def forget(self, half: int) -> None:
        """Sub-batch ``half``'s basis is unknown from here on."""
        self.bases[half] = self.profiles[half] = self.sums[half] = None

    def change(self, half: int, channel: int, relative: int, step: int,
               contrib: Memo) -> None:
        """Add ``step`` members (remove, if negative) to sub-batch
        ``half`` at ``relative`` on ``channel``."""
        self.changed[half] = True
        self.sizes[half] += step
        hist = self.hist[half]
        at = bisect_left(hist, (channel, relative))
        if at < len(hist) and hist[at][:2] == (channel, relative):
            count = hist[at][2] + step
            hist[at:at + 1] = [(channel, relative, count)] if count else []
        else:
            hist.insert(at, (channel, relative, step))
        if self.profiles[half] is None:
            return
        counts, residues = self.profiles[half]
        _bump(residues, relative % _PERIODS[-1], step)
        estimate, load, softmax, kv_bytes = \
            contrib[relative + self.table.offset]
        sums = self.sums[half]
        if _bump(counts, channel, step):
            sums[0][channel] = sums[0].get(channel, 0.0) + step * load
        else:
            del sums[0][channel]
        sums[1] += step * estimate
        sums[2] += step * softmax
        sums[3] += step * kv_bytes

    def restate(self, half: int, channel: int, part: List[int],
                contrib: Memo) -> None:
        """Make the relative seq_lens ``part`` sub-batch ``half``'s
        members on ``channel``: without a basis to keep up the rows are
        replaced, with one each class that changed is changed."""
        hist = self.hist[half]
        start = bisect_left(hist, (channel,))
        end = bisect_left(hist, (channel + 1,), start)
        old, rows = hist[start:end], list(_class_histogram(((channel, part),)))
        if self.profiles[half] is None:
            if old != rows:
                self.sizes[half] += len(part) - sum(row[2] for row in old)
                hist[start:end] = rows
                self.changed[half] = True
            return
        steps = {relative: -count for _, relative, count in old}
        for _, relative, count in rows:
            steps[relative] = steps.get(relative, 0) + count
        for relative, step in steps.items():
            if step:
                self.change(half, channel, relative, step, contrib)


@dataclass
class IterationResult:
    """Timing and accounting of one generation iteration."""

    latency: float
    busy: Dict[str, float] = field(default_factory=dict)
    external_bytes: float = 0.0
    internal_pim_bytes: float = 0.0
    #: typed counter vector of the iteration (empty unless a counter
    #: model is attached; see :mod:`repro.counters`)
    counters: Dict[str, float] = field(default_factory=dict)

    def utilization(self, name: str) -> float:
        """Busy fraction of the named unit over the iteration."""
        if self.latency <= 0:
            return 0.0
        return min(1.0, self.busy.get(name, 0.0) / self.latency)


@dataclass(frozen=True)
class GemmStage:
    """Timing of one sub-batch's GEMM stages (QKV, projection + FFNs)."""

    qkv_cycles: float       #: QKV generation latency (roofline)
    projffn_cycles: float   #: projection + both FFN GEMMs latency
    external_bytes: float   #: weight + activation HBM traffic
    compute_cycles: float   #: ideal MAC-limited cycles (utilization acct)

    @property
    def total_cycles(self) -> float:
        return self.qkv_cycles + self.projffn_cycles


@dataclass(frozen=True)
class MhaStageTiming:
    """Timing components of one sub-batch's MHA stage."""

    pim_cycles: float       #: most-loaded channel's GEMV time (with stalls)
    softmax_cycles: float   #: vector-unit time across the sub-batch
    internal_bytes: float   #: KV bytes streamed inside the PIM banks
    pim_busy_cycles: float = 0.0  #: stall-free GEMV time (utilization acct)
    #: per-channel GEMV loads (with stalls) whose max is ``pim_cycles``
    loads: Dict[int, float] = field(default_factory=dict)
    raw_total: float = 0.0  #: stall-free GEMV time summed over requests

    def duration(self, dual_row_buffer: bool) -> float:
        """Stage duration under the given bank microarchitecture.

        Dual row buffers let the vector units consume partial logits while
        the PIM keeps computing (Figure 10), so the stage is the max of
        the two flows; blocked mode serializes the PIM execution (whose
        per-channel loads already include the host handoffs) with softmax.
        """
        if dual_row_buffer:
            return max(self.pim_cycles, self.softmax_cycles)
        return self.pim_cycles + self.softmax_cycles


class NeuPimsDevice:
    """One NeuPIMs accelerator (NPU + PIM channels).

    Parameters
    ----------
    spec:
        Full model specification.
    config:
        Hardware + feature configuration.
    tp:
        Tensor-parallel degree sharding the weight GEMMs.
    layers_resident:
        Decoder blocks executed per iteration on this device
        (``num_layers / pp`` under pipeline parallelism).
    estimator:
        Algorithm-1 estimator; defaults to the analytic calibration.
    channel_pool:
        PIM channels available for request placement.  Defaults to one
        device's channels; a tensor-parallel group pools the channels of
        all its devices (each request's KV cache lives on one channel of
        one group member), so :class:`~repro.core.system.NeuPimsSystem`
        passes ``tp * channels``.
    """

    def __init__(self, spec: ModelSpec, config: Optional[NeuPimsConfig] = None,
                 tp: int = 1, layers_resident: Optional[int] = None,
                 estimator: Optional[MhaLatencyEstimator] = None,
                 channel_pool: Optional[int] = None) -> None:
        self.spec = spec
        self.config = config or NeuPimsConfig()
        self.tp = tp
        self.layers = (spec.num_layers if layers_resident is None
                       else layers_resident)
        if self.layers <= 0:
            raise ValueError("layers_resident must be positive")
        spec.heads_per_shard(tp)  # validates divisibility
        self.channel_pool = (self.config.num_channels if channel_pool is None
                             else channel_pool)
        if self.channel_pool <= 0:
            raise ValueError("channel_pool must be positive")
        self.npu = NpuChip(self.config.npu, self.config.org,
                           self.config.bandwidth_derate)
        # Algorithm-1 estimates are pure per seq_len; the memo makes the
        # per-iteration MHA loads and admission bin packing O(1) lookups.
        self.estimator = memoized_estimator(estimator or MhaLatencyEstimator(
            spec=spec, org=self.config.org,
            latencies=analytic_latencies(self.config.timing, self.config.org,
                                         self.config.pim_timing),
        ))
        #: Optional live per-channel load tracker (see
        #: :class:`~repro.core.binpack.ChannelLoadTracker`); when attached,
        #: admission-time bin packing starts from its loads instead of
        #: assuming idle channels.
        self.load_tracker: Optional[ChannelLoadTracker] = None
        #: Optional analytic-tier counter model (see
        #: :meth:`attach_counters`); when attached, iteration results
        #: carry typed counter vectors set before they enter the
        #: iteration memo, so memo hits replay counters too.
        self.counter_model = None
        self._rr_cursor = 0
        # Memos of pure one-argument functions under this device's fixed
        # spec/config/estimator (DESIGN.md §3).  Per-class MHA
        # contributions (GEMV estimate, softmax time, internal KV bytes)
        # depend on seq_len only, not on channel placement, so every
        # request of a (channel, seq_len) class shares one entry; GEMM
        # stages depend on the sub-batch token count only; and whole
        # iteration results on the plan signature only, so a recurring
        # class signature (steady-state decode, repeated warmed batches)
        # replays its result instead of re-simulating.
        self._class_contrib = Memo(self._class_contribution, 32768)
        self._gemm_memo = Memo(self._gemm_stage, 1024)
        self._iteration_memo = Memo(self._iteration, 2048)
        #: Sticky: every class value computed so far is within the
        #: exact-summation bounds (cleared by `_class_contribution`).
        self._exact_sums = True
        # The affine guard (`_affine`) and the current window's bases
        # (`_sub_batch_stage`): [plan, [shift, stage, profile] per hist].
        self._affine_lo, self._affine_hi, self._affine_floor = 1, 0, 1
        self._affine_steps: Optional[Tuple[float, ...]] = None
        self._period, self._affine_ok = 1, True
        self._bases: list = [None]
        # The split of the live class table planned last (`table_plan`).
        self._live: Optional[_LiveSplit] = None
        # Config-derived MHA constants, hoisted out of the per-request loop.
        overhead = 1.0
        if not self.config.composite_isa:
            overhead *= 1.0 + self.config.fine_grained_overhead
        if not self.config.dual_row_buffer:
            overhead *= 1.0 + self.config.blocked_mode_overhead
        self._mha_overhead = overhead
        # Blocked-mode handoffs: per head, the logits leave the PIM via
        # RDRESULT and the softmax results return via GWRITE through the
        # single row buffer, serializing with the GEMVs on that channel.
        pim = self.config.pim_timing
        self._transfer_per_request = spec.num_heads * (
            pim.rdresult_cycles + pim.gwrite_cycles)

    def attach_load_tracker(self) -> ChannelLoadTracker:
        """Create and attach a load tracker over this device's channels."""
        self.load_tracker = ChannelLoadTracker(self.estimator,
                                               self.channel_pool)
        return self.load_tracker

    def attach_counters(self):
        """Create and attach the analytic-tier typed counter model.

        Returns the :class:`~repro.counters.model.DeviceCounterModel`;
        subsequent iterations carry their counter vectors on
        :attr:`IterationResult.counters`.  The iteration memo is dropped,
        since results memoized before the attach carry no counters.
        """
        from repro.counters.model import DeviceCounterModel
        self.counter_model = DeviceCounterModel(self)
        self._iteration_memo.clear()
        return self.counter_model

    # ------------------------------------------------------------------
    # Channel assignment (Algorithm 2 or round robin).
    # ------------------------------------------------------------------

    def assign_channels(self, new_requests: Sequence[InferenceRequest],
                        existing: Sequence[InferenceRequest] = ()) -> None:
        """Place unassigned requests onto PIM channels per the config."""
        if self.config.greedy_binpack:
            initial = (self.load_tracker.loads
                       if self.load_tracker is not None and not existing
                       else None)
            greedy_min_load_assign(new_requests, self.estimator,
                                   self.channel_pool, existing,
                                   initial_loads=initial)
        else:
            round_robin_assign(new_requests, self.channel_pool,
                               start=self._rr_cursor)
            self._rr_cursor = (self._rr_cursor + len(new_requests)) \
                % self.channel_pool

    def _ensure_assigned(self, requests: Sequence[InferenceRequest]) -> None:
        """Assign channels to new requests (and re-home out-of-range ones,
        e.g. requests previously placed by a system with a larger pool)."""
        unassigned = []
        for request in requests:
            if request.channel is None or \
                    not 0 <= request.channel < self.channel_pool:
                request.channel = None
                unassigned.append(request)
        if unassigned:
            assigned = [r for r in requests if r.channel is not None]
            self.assign_channels(unassigned, assigned)

    # ------------------------------------------------------------------
    # Stage timing.
    # ------------------------------------------------------------------

    def gemm_stage_cycles(self, batch_tokens: int) -> "GemmStage":
        """GEMM-stage timing for a sub-batch of ``batch_tokens`` tokens.

        Pure in ``batch_tokens`` under the fixed spec/config, so the
        stage is memoized — steady-state serving recomputes nothing.
        """
        if batch_tokens <= 0:
            raise ValueError("batch_tokens must be positive")
        return self._gemm_memo[batch_tokens]

    def _gemm_stage(self, batch_tokens: int) -> GemmStage:
        dtype = self.spec.dtype_bytes
        qkv = qkv_generation_gemm(self.spec, batch_tokens, self.tp)
        proj = projection_gemm(self.spec, batch_tokens, self.tp)
        ffns = ffn_gemms(self.spec, batch_tokens, self.tp)
        t_qkv = self.npu.gemm_cycles(qkv, dtype)
        t_proj = self.npu.gemm_cycles(proj, dtype)
        t_ffn = sum(self.npu.gemm_cycles(g, dtype) for g in ffns)
        bytes_moved = (qkv.bytes_moved(dtype) + proj.bytes_moved(dtype)
                       + sum(g.bytes_moved(dtype) for g in ffns))
        ideal = self.npu.systolic_busy_cycles(qkv, proj, *ffns)
        return GemmStage(qkv_cycles=t_qkv, projffn_cycles=t_proj + t_ffn,
                         external_bytes=float(bytes_moved),
                         compute_cycles=float(ideal))

    def _class_contribution(self, seq_len: int
                            ) -> Tuple[float, float, float, float]:
        """One request's (estimate, channel load, softmax, KV bytes) at
        ``seq_len``; clears ``_exact_sums`` if a value is out of bounds."""
        estimate = self.estimator.estimate(seq_len)
        load = estimate * self._mha_overhead
        if not self.config.dual_row_buffer:
            load += self._transfer_per_request
        values = (
            estimate, load,
            self.npu.softmax_latency(seq_len, self.spec.num_heads),
            2.0 * seq_len * self.spec.d_model * self.spec.dtype_bytes,
        )
        if self._exact_sums and not all(map(_dyadic, values)):
            self._exact_sums = False
        return values

    def mha_stage(self, requests: Sequence[InferenceRequest]) -> MhaStageTiming:
        """MHA timing for a sub-batch already assigned to channels."""
        return self.mha_stage_classes(mha_histogram(requests))

    def mha_stage_classes(self, hist: MhaHistogram) -> MhaStageTiming:
        """MHA timing from a canonical class histogram.

        This is the **single** arithmetic for both serving paths: the
        per-request path builds ``hist`` by scanning the batch, the
        grouped path maintains it incrementally, and the sums accumulate
        in the histogram's canonical ``(channel, seq_len)`` order either
        way — so identical histograms give bit-identical timings.
        """
        if not hist:
            return MhaStageTiming(0.0, 0.0, 0.0)
        contrib = self._class_contrib
        loads: Dict[int, float] = {}
        raw_total = 0.0
        softmax_total = 0.0
        internal_bytes = 0.0
        for channel, seq_len, count in hist:
            estimate, load, softmax, kv_bytes = contrib[seq_len]
            raw_total += estimate * count
            loads[channel] = loads.get(channel, 0.0) + load * count
            softmax_total += softmax * count
            internal_bytes += kv_bytes * count
        return self._stage(loads, raw_total, softmax_total, internal_bytes)

    def _stage(self, loads: Dict[int, float], raw_total: float,
               softmax_total: float, internal_bytes: float
               ) -> MhaStageTiming:
        # PIM *compute* utilization averages the in-bank units across all
        # channels (Table 4's accounting), so busy time is the mean
        # stall-free channel load.
        return MhaStageTiming(pim_cycles=max(loads.values()),
                              softmax_cycles=softmax_total,
                              internal_bytes=internal_bytes,
                              pim_busy_cycles=raw_total / self.channel_pool,
                              loads=loads, raw_total=raw_total)

    def _whole_batch_stage(self, plan: DeviceClassPlan, shift: int,
                           mha1: MhaStageTiming, mha2: MhaStageTiming
                           ) -> MhaStageTiming:
        """Both sub-batches' MHA stage: the sum of theirs, which is the
        canonical pass over the merged histogram bit for bit when the
        ``_exact_sums`` guard holds (read only here, after the sub-batch
        stages computed every class entry it covers); else that pass."""
        if not (self._exact_sums and plan.batch_size <= _EXACT_BATCH):
            (_, hist1), (_, hist2) = plan.split
            return self.mha_stage_classes(
                shift_histogram(merge_histograms(hist1, hist2), shift))
        loads = dict(mha1.loads)
        for channel, load in mha2.loads.items():
            loads[channel] = loads.get(channel, 0.0) + load
        return self._stage(loads, mha1.raw_total + mha2.raw_total,
                           mha1.softmax_cycles + mha2.softmax_cycles,
                           mha1.internal_bytes + mha2.internal_bytes)

    def _sub_batch_stage(self, plan: DeviceClassPlan, index: int,
                         hist: MhaHistogram, shift: int) -> MhaStageTiming:
        """The MHA stage of the plan's ``index``-th histogram advanced by
        ``shift`` (the plan's offset included): closed-form from the
        window's basis (a stage at an earlier shift, installed by
        `table_plan` or from a canonical pass) where `_affine` vouches for
        every seq_len involved, else a canonical pass that becomes the
        basis (DESIGN.md §5)."""
        bases = self._bases
        if bases[0] is not plan:
            bases = self._bases = [plan, None, None]
        basis = bases[index + 1]
        if basis is not None and self.counter_model is None \
                and plan.batch_size <= _EXACT_BATCH:
            if basis[2] is None:
                basis[2] = _profile(hist, self._residue_period())
            sums = self._advance(*basis, shift)
            if sums is not None:
                return self._stage(*sums)
        stage = self.mha_stage_classes(shift_histogram(hist, shift))
        bases[index + 1] = [shift, stage, basis and basis[2]]
        return stage

    def _advance(self, start: int, stage: MhaStageTiming, profile,
                 shift: int) -> Optional[list]:
        """``stage`` (over the seq_lens of ``profile`` advanced by
        ``start``) advanced to ``shift`` in O(channels + residues), as
        `_stage`'s ``[loads, raw, softmax, KV bytes]``, or ``None`` where
        `_affine` does not vouch for the seq_lens crossed.  A residue's
        softmax step is read at its lowest seq_len in ``[low, high]``:
        under the guard every member of a residue modulo `_period` steps
        alike (the profile's residues are modulo a multiple of it)."""
        counts, low, high, residues = profile
        if not (start <= shift and self._affine(low + start, high + shift)):
            return None
        contrib = self._class_contrib
        then, now = contrib[low + start], contrib[low + shift]
        load, size = now[1] - then[1], sum(counts.values())
        softmax = stage.softmax_cycles
        period = self._period
        for residue, count in residues.items():
            seq_len = low + (residue - low) % period
            softmax += count * (contrib[seq_len + shift][2]
                                - contrib[seq_len + start][2])
        loads = stage.loads
        return [{channel: loads[channel] + load * count
                 for channel, count in counts.items()},
                stage.raw_total + (now[0] - then[0]) * size, softmax,
                stage.internal_bytes + (now[3] - then[3]) * size]

    def _residue_period(self) -> int:
        """The period softmax residues may be grouped by: `_period` once
        the guard has seeded its steps (it never re-seeds), else the
        longest one it tries."""
        return _PERIODS[-1] if self._affine_steps is None else self._period

    def _affine(self, low: int, high: int) -> bool:
        """Whether the class values over seq_lens ``[low, high]`` are
        exact and step by ``_affine_steps`` per token (softmax: per
        ``_period`` tokens), verified lazily: the first call seeds them
        at ``high``, later ones grow the verified range.  A failure below
        the range fixes a floor; above it, it turns the guard off."""
        if self._affine_lo <= low and high <= self._affine_hi:
            return True
        if not (self._affine_ok and self._exact_sums) \
                or low < self._affine_floor:
            return False
        if self._affine_steps is None and not self._seed(high):
            self._affine_floor = high + 1
            return False
        if high > self._affine_hi:
            top = high + _AFFINE_SPAN
            self._affine_ok = all(map(self._fits,
                                      range(self._affine_hi + 1, top + 1)))
            if not self._affine_ok:
                return False
            self._affine_hi = top
        while self._affine_lo > low:
            if not self._fits(self._affine_lo - 1):
                self._affine_floor = self._affine_lo
                return False
            self._affine_lo -= 1
        return True

    def _seed(self, seq_len: int) -> bool:
        """Steps at ``seq_len``, verified on ``_AFFINE_SPAN`` more."""
        top = seq_len + _AFFINE_SPAN
        for period in _PERIODS:
            self._period = period
            self._affine_steps = self._steps(seq_len)
            if all(map(self._fits, range(seq_len, top + 1))):
                self._affine_lo, self._affine_hi = seq_len, top
                return True
        self._affine_steps = None
        return False

    def _steps(self, seq_len: int) -> Tuple[float, ...]:
        """How each class value steps from ``seq_len`` to the next seq_len
        (softmax: to ``seq_len + _period``)."""
        contrib = self._class_contrib
        here, after = contrib[seq_len], contrib[seq_len + 1]
        return (after[0] - here[0], after[1] - here[1],
                contrib[seq_len + self._period][2] - here[2],
                after[3] - here[3])

    def _fits(self, seq_len: int) -> bool:
        return self._steps(seq_len) == self._affine_steps and self._exact_sums

    # ------------------------------------------------------------------
    # Iteration execution.
    # ------------------------------------------------------------------

    def prepare_class_plan(self, requests: Sequence[InferenceRequest]
                           ) -> DeviceClassPlan:
        """Freeze the batch's class structure at a batch boundary.

        Assigns channels to unplaced requests (exactly as a per-request
        iteration would), then captures the Algorithm-3 split when
        sub-batch interleaving splits the batch, else the full class
        histogram.  Between boundaries the plan is reused with a uniform
        seq_len shift (the batch membership and channel placement are
        fixed, so the split is translation-invariant).  One pass buckets
        the seq_lens by channel, in canonical order.
        """
        if not requests:
            raise ValueError("empty batch")
        self._ensure_assigned(requests)
        buckets: List[List[int]] = [[] for _ in range(self.channel_pool)]
        for request in requests:
            buckets[request.channel].append(request.input_len
                                            + request.generated)
        channels = list(enumerate(buckets))
        size = len(requests)
        if self.config.sub_batch_interleaving and size >= 2:
            halves = sub_batch_halves(len(lens) for _, lens in channels)
            size1 = sum(halves)
            if 0 < size1 < size:
                pairs = list(zip(channels, halves))
                return DeviceClassPlan(size, None, (
                    (size1, _class_histogram(
                        [(c, lens[:half]) for (c, lens), half in pairs])),
                    (size - size1, _class_histogram(
                        [(c, lens[half:]) for (c, lens), half in pairs]))))
        return DeviceClassPlan(size, _class_histogram(channels))

    def table_plan(self, table: ClassTable) -> DeviceClassPlan:
        """The plan of a live class table's batch: equal to
        :meth:`prepare_class_plan` on ``table.batch`` (its seq_lens kept
        relative to the table's offset), but paid per delta.

        Members placed nowhere yet are placed first, exactly as
        :meth:`prepare_class_plan` would, and the table rebuilt.  The
        split continues from the last plan of the same table generation
        (`_apply`).  The sub-batch basis stages step to the table's
        offset in closed form (`_advance`), follow the deltas by exact
        add/subtract and are installed as the window's bases, while
        `_exact_sums` holds, no counter model is attached and the batch
        is at most `_EXACT_BATCH`; otherwise the split is rebuilt (the
        same add path) on every plan and the window's canonical passes
        supply the bases.
        """
        batch = table.batch
        if not batch:
            raise ValueError("empty batch")
        if table.unplaced or table.channel_bound > self.channel_pool:
            self._ensure_assigned(batch)
            table.rebuild()
        live, dirty = self._live, table.dirty
        table.dirty = set()
        if live is None or live.table is not table \
                or live.generation != table.generation \
                or not (self._exact_sums and self.counter_model is None
                        and len(batch) <= _EXACT_BATCH):
            live = self._live = _LiveSplit(table, self.channel_pool)
            dirty |= table.occupied()
        elif dirty:
            window = self._bases if self._bases[0] is live.plan else None
            for half in (0, 1):
                basis = window and window[half + 1]
                if basis is not None and basis is not live.installed[half]:
                    # A canonical pass of the window: adopt it.
                    start, stage, profile = basis
                    counts, _, _, residues = \
                        profile or _profile(live.hist[half])
                    live.bases[half] = [start, stage]
                    live.profiles[half] = (dict(counts), dict(residues))
                basis = live.bases[half]
                if basis is None:
                    continue
                start, stage = basis
                if stage is None:
                    live.sums[half] = [{}, 0.0, 0.0, 0.0]
                else:  # deltas apply at the table's offset
                    counts, residues = live.profiles[half]
                    live.sums[half] = self._advance(
                        start, stage, (counts, *live.spans[half], residues),
                        table.offset)
                    if live.sums[half] is None:
                        live.forget(half)
        if dirty:
            self._apply(live, dirty)
        return self._install(live, len(batch))

    def _apply(self, live: _LiveSplit, dirty: Set[int]) -> None:
        """Bring ``live``'s split up to its table (Algorithm 3).

        A dirty channel's two halves are restated; any other channel
        whose half moved (``turn`` carries across channels, so a parity
        flip moves one member in every later odd-sized channel) moves
        that one member.  When every occupied channel is dirty, the
        id-ordered batch is bucketed once instead of asking the table, and
        a sub-batch without a basis is restated whole.
        """
        table, lens, sizes = live.table, live.lens, live.members
        whole = dirty.issuperset(table.occupied())
        if whole:
            for channel in dirty:
                lens[channel] = []
            for request in table.batch:
                lens[request.channel or 0].append(
                    request.input_len + request.generated - table.offset)
        else:
            for channel in dirty:
                lens[channel] = table.lens(channel)
        for channel in dirty:
            sizes[channel] = len(lens[channel])
        halves = (sub_batch_halves(sizes)
                  if self.config.sub_batch_interleaving else sizes)
        was_halves, live.halves = live.halves, halves
        parts = [[(channel, lens[channel][:half]) for channel, half
                  in enumerate(halves) if channel in dirty],
                 [(channel, lens[channel][half:]) for channel, half
                  in enumerate(halves) if channel in dirty]]
        contrib = self._class_contrib
        for index in (0, 1):
            if whole and live.profiles[index] is None:
                # Nothing to keep up: the sub-batch is restated at once.
                live.hist[index][:] = _class_histogram(parts[index])
                live.sizes[index] = sum(len(part) for _, part in parts[index])
                live.changed[index] = True
            else:
                for channel, part in parts[index]:
                    live.restate(index, channel, part, contrib)
        for channel, (half, was) in enumerate(zip(halves, was_halves)):
            if half != was and channel not in dirty:
                moved = lens[channel][min(was, half)]
                live.change(half > was, channel, moved, -1, contrib)
                live.change(half < was, channel, moved, 1, contrib)

    def _install(self, live: _LiveSplit, size: int) -> DeviceClassPlan:
        """``live``'s plan at its table's offset, with its known bases
        installed for the window."""
        offset, period = live.table.offset, self._residue_period()
        bases: list = [None, None, None]
        for half in (0, 1):
            if live.changed[half]:
                live.changed[half] = False
                if live.sizes[half]:
                    lens = list(map(itemgetter(1), live.hist[half]))
                    live.spans[half] = min(lens), max(lens)
                sums = live.sums[half]
                if sums is None or not self._exact_sums:
                    live.forget(half)
                else:
                    live.bases[half] = [offset, self._stage(*sums)
                                        if live.sizes[half] else None]
            live.sums[half] = None
            basis = live.bases[half]
            if basis is not None and basis[1] is not None:
                counts, residues = live.profiles[half]
                grouped: Dict[int, int] = {}
                for residue, count in residues.items():
                    _bump(grouped, residue % period, count)
                bases[half + 1] = [*basis, (dict(counts), *live.spans[half],
                                            grouped)]
        (size1, size2), (hist, split) = live.sizes, map(tuple, live.hist)
        plan = (DeviceClassPlan(size, hist, None, offset) if size1 == size
                else DeviceClassPlan(size, None, ((size1, hist),
                                                  (size2, split)), offset))
        bases[0] = live.plan = plan
        self._bases, live.installed = bases, bases[1:]
        return plan

    def iteration(self, requests: Sequence[InferenceRequest]) -> IterationResult:
        """Execute one generation iteration over the batch.

        With sub-batch interleaving enabled, the runtime compares the
        interleaved pipeline against the serialized schedule using the
        same latency model and keeps the faster one (``adaptive_sbi``);
        the paper notes SBI's pipelining penalty can outweigh its benefit
        below batch 256, which this fallback avoids paying.

        The per-request batch is reduced to its class histogram first and
        all timing flows through :meth:`iteration_from_plan`, so this
        path and the grouped serving engine share one arithmetic.
        """
        return self.iteration_from_plan(self.prepare_class_plan(requests), 0)

    def iteration_from_plan(self, plan: DeviceClassPlan,
                            shift: int = 0) -> IterationResult:
        """One iteration of a planned batch after ``shift`` decode steps,
        memoized by ``(plan, shift)``: the result is a pure function of
        the plan's histograms and the shift under this device's fixed
        configuration, so a recurring plan replays it exactly."""
        return self._iteration_memo[(plan, shift)]

    def _iteration(self, key: Tuple[DeviceClassPlan, int]) -> IterationResult:
        """The iteration result of a ``(plan, shift)`` key, with its
        counter vector when counters are on."""
        plan, shift = key
        shift += plan.offset
        if plan.split is None:
            hist = plan.hist
            result = self._serialized(
                plan.batch_size, self._sub_batch_stage(plan, 0, hist, shift))
        else:
            (size1, hist1), (size2, hist2) = plan.split
            gemm1 = self.gemm_stage_cycles(size1)
            mha1 = self._sub_batch_stage(plan, 0, hist1, shift)
            gemm2 = self.gemm_stage_cycles(size2)
            mha2 = self._sub_batch_stage(plan, 1, hist2, shift)
            result = self._interleaved(gemm1, mha1, gemm2, mha2)
            if self.config.adaptive_sbi:
                whole = self._whole_batch_stage(plan, shift, mha1, mha2)
                serialized = self._serialized(plan.batch_size, whole)
                if serialized.latency < result.latency:
                    result = serialized
        if self.counter_model is not None:
            # Every result here is a fresh object, so the counter vector
            # is set in place and enters the memo with the timing.
            if plan.split is not None:
                hist = merge_histograms(hist1, hist2)
            result.counters = self.counter_model.iteration_counters(
                shift_histogram(hist, shift), result.latency,
                result.busy.get("npu", 0.0))
        return result

    def _serialized(self, batch_tokens: int,
                    mha: MhaStageTiming) -> IterationResult:
        """Figure 11(a): QKV -> MHA -> Proj&FFN per block, serialized."""
        gemm = self.gemm_stage_cycles(batch_tokens)
        t_mha = mha.duration(self.config.dual_row_buffer)
        layers = self.layers
        return IterationResult(
            latency=(gemm.qkv_cycles + t_mha + gemm.projffn_cycles) * layers,
            busy={"npu": gemm.compute_cycles * layers,
                  "npu_vector": mha.softmax_cycles * layers,
                  "pim": mha.pim_busy_cycles * layers},
            external_bytes=gemm.external_bytes * layers,
            internal_pim_bytes=mha.internal_bytes * layers)

    def _interleaved(self, gemm1: GemmStage, mha1: MhaStageTiming,
                     gemm2: GemmStage, mha2: MhaStageTiming
                     ) -> IterationResult:
        """Figure 11(b): two sub-batches pipelined across NPU-S and PIM."""
        layers = self.layers
        dual_row_buffer = self.config.dual_row_buffer
        latency, vector_busy = interleave_timeline(
            layers,
            (gemm1.qkv_cycles, mha1.duration(dual_row_buffer),
             gemm1.projffn_cycles, mha1.softmax_cycles),
            (gemm2.qkv_cycles, mha2.duration(dual_row_buffer),
             gemm2.projffn_cycles, mha2.softmax_cycles))
        pim_busy = (mha1.pim_busy_cycles + mha2.pim_busy_cycles) * layers
        return IterationResult(
            latency=latency,
            busy={"npu": gemm1.compute_cycles * layers
                         + gemm2.compute_cycles * layers,
                  "npu_vector": vector_busy, "pim": pim_busy},
            external_bytes=gemm1.external_bytes * layers
            + gemm2.external_bytes * layers,
            internal_pim_bytes=mha1.internal_bytes * layers
            + mha2.internal_bytes * layers)

    # ------------------------------------------------------------------

    def executor(self):
        """A :data:`~repro.serving.scheduler.BatchExecutor` for this device."""
        def run(batch: Sequence[InferenceRequest]) -> float:
            return self.iteration(batch).latency
        return run


def interleave_timeline(layers: int,
                        first: Tuple[float, float, float, float],
                        second: Tuple[float, float, float, float]
                        ) -> Tuple[float, float]:
    """Algorithm-3 sub-batch interleaving (Figure 11b) as a list schedule.

    Each sub-batch runs ``layers`` x (QKV on NPU-S -> MHA on PIM ->
    Proj&FFNs on NPU-S); a stage is ``(qkv, mha, projffn, softmax)``
    cycles.  Every step books the next operator of the sub-batch that
    can start it earliest (ties go to ``first``) at ``max(ready, unit
    free)``.  An MHA booking also books its softmax on the NPU vector
    units; no operator waits on them, so only their busy time is kept,
    summed in booking order.  Returns ``(latency, vector busy)``.
    """
    durations = (first[:3], second[:3])
    softmax = (first[3], second[3])
    ops = 3 * layers
    ready = [0.0, 0.0]
    cursor = [0, 0]
    free = [0.0, 0.0]  # NPU-S, PIM: when each is next idle
    vector_busy, done = 0.0, float("inf")  # done: a finished sub-batch
    for _ in range(2 * ops):
        # `f if f > r else r` is max(ready, unit free) without a call.
        c0, c1 = cursor
        r, f = ready[0], free[c0 % 3 == 1]
        start0 = done if c0 == ops else (f if f > r else r)
        r, f = ready[1], free[c1 % 3 == 1]
        start1 = done if c1 == ops else (f if f > r else r)
        s, start = (1, start1) if start1 < start0 else (0, start0)
        phase = cursor[s] % 3
        end = start + durations[s][phase]
        free[phase == 1] = end
        if phase == 1:
            vector_busy += softmax[s]
        ready[s] = end
        cursor[s] += 1
    return max(ready), vector_busy


def shard_for_mha(spec: ModelSpec, tp: int) -> ModelSpec:
    """Per-device MHA shard (heads divided by TP).

    The default NeuPIMs model follows Algorithm 1 and keeps MHA unsharded;
    this helper exists for sensitivity studies that shard attention too.
    """
    heads = spec.heads_per_shard(tp)
    return replace(spec, name=f"{spec.name}-mha-tp{tp}",
                   num_heads=heads, d_model=heads * spec.head_dim)
