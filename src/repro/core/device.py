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
  the two sub-batches are list-scheduled onto the NPU-S and PIM resources,
  overlapping one sub-batch's GEMMs with the other's MHA.
* ``dual_row_buffer`` off (blocked mode) additionally serializes the
  per-head PIM->vector-unit handoffs inside MHA and pays the fine-grained
  command overhead (no composite ISA without the NeuPIMs bank).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.binpack import (ChannelLoadTracker, greedy_min_load_assign,
                                round_robin_assign)
from repro.core.config import NeuPimsConfig
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.perf.cache import Memo
from repro.perf.calibration import memoized_estimator
from repro.core.partition import partition_batch
from repro.model.layers import ffn_gemms, projection_gemm, qkv_generation_gemm
from repro.model.spec import ModelSpec
from repro.npu.chip import NpuChip
from repro.serving.grouping import (DeviceClassPlan, MhaHistogram,
                                    SubBatchClasses, mha_histogram,
                                    shift_histogram)
from repro.serving.request import InferenceRequest
from repro.sim.engine import Resource


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
    transfer_cycles: float  #: blocked-mode PIM<->host handoff overhead
    internal_bytes: float   #: KV bytes streamed inside the PIM banks
    pim_busy_cycles: float = 0.0  #: stall-free GEMV time (utilization acct)

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
        # Scratch resources for the interleaved list scheduler (reset per
        # call; busy-interval recording off — only busy totals are read).
        self._res_npu_s = Resource("npu_s", record_intervals=False)
        self._res_pim = Resource("pim", record_intervals=False)
        self._res_npu_v = Resource("npu_v", record_intervals=False)
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
            if request.channel is None or request.channel >= self.channel_pool:
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
                            ) -> Tuple[float, float, float]:
        """One seq_len class's (estimate, softmax, KV bytes)."""
        return (
            self.estimator.estimate(seq_len),
            self.npu.softmax_latency(seq_len, self.spec.num_heads),
            2.0 * seq_len * self.spec.d_model * self.spec.dtype_bytes,
        )

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
            return MhaStageTiming(0.0, 0.0, 0.0, 0.0)
        contrib = self._class_contrib
        loads: Dict[int, float] = {}
        raw_total = 0.0
        softmax_total = 0.0
        internal_bytes = 0.0
        batch_size = 0
        overhead = self._mha_overhead
        dual_row_buffer = self.config.dual_row_buffer
        transfer_per_request = self._transfer_per_request
        for channel, seq_len, count in hist:
            estimate, softmax, kv_bytes = contrib[seq_len]
            batch_size += count
            raw_total += estimate * count
            load = estimate * overhead
            if not dual_row_buffer:
                load += transfer_per_request
            loads[channel] = loads.get(channel, 0.0) + load * count
            softmax_total += softmax * count
            internal_bytes += kv_bytes * count
        pim_cycles = max(loads.values())
        transfers = (0.0 if dual_row_buffer
                     else transfer_per_request * batch_size
                     / self.channel_pool)
        # PIM *compute* utilization averages the in-bank units across all
        # channels (Table 4's accounting), so busy time is the mean
        # stall-free channel load.
        mean_raw = raw_total / self.channel_pool
        return MhaStageTiming(pim_cycles=pim_cycles,
                              softmax_cycles=softmax_total,
                              transfer_cycles=transfers,
                              internal_bytes=internal_bytes,
                              pim_busy_cycles=mean_raw)

    # ------------------------------------------------------------------
    # Iteration execution.
    # ------------------------------------------------------------------

    def prepare_class_plan(self, requests: Sequence[InferenceRequest]
                           ) -> DeviceClassPlan:
        """Freeze the batch's class structure at a batch boundary.

        Assigns channels to unplaced requests (exactly as a per-request
        iteration would), then captures the full class histogram and —
        when sub-batch interleaving applies — the Algorithm-3 split.
        Between boundaries the plan is reused with a uniform seq_len
        shift (the batch membership and channel placement are fixed, so
        the split is translation-invariant).
        """
        if not requests:
            raise ValueError("empty batch")
        self._ensure_assigned(requests)
        split = None
        if self.config.sub_batch_interleaving and len(requests) >= 2:
            sb1, sb2 = partition_batch(requests, self.channel_pool)
            split = (SubBatchClasses(len(sb1), mha_histogram(sb1)),
                     SubBatchClasses(len(sb2), mha_histogram(sb2)))
        return DeviceClassPlan(batch_size=len(requests),
                               hist=mha_histogram(requests), split=split)

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
        """One iteration of a planned batch after ``shift`` decode steps.

        Results are memoized by the shifted class signature (the
        iteration replay cache): when a signature recurs the memoized
        :class:`IterationResult` is returned as-is, which is exact
        because the result is a pure function of the signature under this
        device's fixed configuration.
        """
        hist = shift_histogram(plan.hist, shift)
        split = plan.split
        if split is not None and split[0].size and split[1].size:
            sb1, sb2 = split
            return self._iteration_memo[(
                plan.batch_size, hist,
                (sb1.size, shift_histogram(sb1.hist, shift)),
                (sb2.size, shift_histogram(sb2.hist, shift)))]
        return self._iteration_memo[(plan.batch_size, hist)]

    def _iteration(self, signature: Tuple) -> IterationResult:
        """The iteration result of a ``(batch_size, hist[, sub1, sub2])``
        plan signature, with its counter vector when counters are on."""
        batch_size, hist = signature[0], signature[1]
        if len(signature) == 4:
            result = self._interleaved_classes(signature[2], signature[3])
            if self.config.adaptive_sbi:
                serialized = self._serialized_classes(batch_size, hist)
                if serialized.latency < result.latency:
                    result = serialized
        else:
            result = self._serialized_classes(batch_size, hist)
        if self.counter_model is not None:
            # Every result here is a fresh object, so the counter vector
            # is set in place and enters the memo with the timing.
            result.counters = self.counter_model.iteration_counters(
                hist, result.latency, result.busy.get("npu", 0.0))
        return result

    def _serialized_classes(self, batch_tokens: int,
                            hist: MhaHistogram) -> IterationResult:
        """Figure 11(a): QKV -> MHA -> Proj&FFN per block, serialized."""
        gemm = self.gemm_stage_cycles(batch_tokens)
        mha = self.mha_stage_classes(hist)
        t_mha = mha.duration(self.config.dual_row_buffer)
        per_block = gemm.qkv_cycles + t_mha + gemm.projffn_cycles
        latency = per_block * self.layers
        busy = {
            "npu": gemm.compute_cycles * self.layers,
            "npu_vector": mha.softmax_cycles * self.layers,
            "pim": mha.pim_busy_cycles * self.layers,
        }
        return IterationResult(
            latency=latency,
            busy=busy,
            external_bytes=gemm.external_bytes * self.layers,
            internal_pim_bytes=mha.internal_bytes * self.layers,
        )

    def _interleaved_classes(self, sub1: Tuple[int, MhaHistogram],
                             sub2: Tuple[int, MhaHistogram]
                             ) -> IterationResult:
        """Figure 11(b): two sub-batches pipelined across NPU-S and PIM."""
        stage_plans: List[Tuple[GemmStage, MhaStageTiming]] = []
        gemm_bytes = 0.0
        internal_bytes = 0.0
        compute_busy = 0.0
        for size, hist in (sub1, sub2):
            gemm = self.gemm_stage_cycles(size)
            mha = self.mha_stage_classes(hist)
            stage_plans.append((gemm, mha))
            gemm_bytes += gemm.external_bytes * self.layers
            internal_bytes += mha.internal_bytes * self.layers
            compute_busy += gemm.compute_cycles * self.layers

        npu_s = self._res_npu_s
        pim = self._res_pim
        npu_v = self._res_npu_v
        npu_s.reset()
        pim.reset()
        npu_v.reset()

        # Build each sub-batch's operator sequence over the resident layers.
        sequences: List[List[Tuple[str, float]]] = []
        for gemm, mha in stage_plans:
            t_mha = mha.duration(self.config.dual_row_buffer)
            seq: List[Tuple[str, float]] = []
            for _ in range(self.layers):
                seq.append(("npu_s", gemm.qkv_cycles))
                seq.append(("pim", t_mha))
                seq.append(("npu_s", gemm.projffn_cycles))
            sequences.append(seq)

        resources = {"npu_s": npu_s, "pim": pim}
        ready = [0.0, 0.0]
        cursor = [0, 0]
        softmax_share = [plan[1].softmax_cycles for plan in stage_plans]
        while any(cursor[s] < len(sequences[s]) for s in (0, 1)):
            # Pick the sub-batch whose next operator can start earliest
            # (list scheduling); ties favour sub-batch order.
            best_s, best_start = None, None
            for s in (0, 1):
                if cursor[s] >= len(sequences[s]):
                    continue
                res_name, _ = sequences[s][cursor[s]]
                candidate = max(ready[s], resources[res_name].free_at)
                if best_start is None or candidate < best_start:
                    best_s, best_start = s, candidate
            res_name, duration = sequences[best_s][cursor[best_s]]
            _, end = resources[res_name].acquire_for(duration,
                                                     earliest=ready[best_s])
            if res_name == "pim":
                npu_v.acquire_for(softmax_share[best_s],
                                  earliest=end - duration)
            ready[best_s] = end
            cursor[best_s] += 1

        latency = max(ready)
        pim_busy = sum(plan[1].pim_busy_cycles
                       for plan in stage_plans) * self.layers
        busy = {
            "npu": compute_busy,
            "npu_vector": npu_v.busy_time,
            "pim": pim_busy,
        }
        return IterationResult(
            latency=latency,
            busy=busy,
            external_bytes=gemm_bytes,
            internal_pim_bytes=internal_bytes,
        )

    # ------------------------------------------------------------------

    def executor(self):
        """A :data:`~repro.serving.scheduler.BatchExecutor` for this device."""
        def run(batch: Sequence[InferenceRequest]) -> float:
            return self.iteration(batch).latency
        return run


def shard_for_mha(spec: ModelSpec, tp: int) -> ModelSpec:
    """Per-device MHA shard (heads divided by TP).

    The default NeuPIMs model follows Algorithm 1 and keeps MHA unsharded;
    this helper exists for sensitivity studies that shard attention too.
    """
    heads = spec.heads_per_shard(tp)
    return replace(spec, name=f"{spec.name}-mha-tp{tp}",
                   num_heads=heads, d_model=heads * spec.head_dim)
