"""Analytic-tier counter model: typed counter vectors per iteration.

The device tier never materializes command streams, so its counter
vectors come from the same closed-form geometry Algorithm 1 prices:
wave/GWRITE counts of the logit and attend GEMVs
(:func:`repro.pim.gemv.mha_gemv_ops`), the arithmetic C/A-bus cost of
the configured command encoding (:func:`repro.pim.gemv.ca_bus_cost`),
the NPU's ideal MAC-limited GEMM cycles, and the refresh cadence
(``latency / tREFI`` per active channel).  The cycle tier measures the
same quantities from the command-level simulation
(:meth:`repro.dram.controller.MemoryController.counter_view`); the
refutation harness diffs the two.

Per-iteration vectors are a pure function of the batch's
``(batch_tokens, class histogram)`` signature under a fixed device
configuration — the same purity contract as the iteration replay memo —
which is what makes counter totals bit-identical across grouping modes
and stream-vs-batch consumption.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.perf.cache import Memo
from repro.pim.gemv import ca_bus_cost, mha_gemv_ops


class DeviceCounterModel:
    """Computes typed counter vectors for one :class:`NeuPimsDevice`.

    Attached via :meth:`repro.core.device.NeuPimsDevice.attach_counters`;
    when attached, every memo-missing iteration result gets its counter
    vector before it enters the device's iteration memo, so memo hits
    replay counters exactly like they replay timing.
    """

    __slots__ = ("_num_heads", "_head_dim", "_dtype", "_org", "_composite",
                 "_trefi", "_layers", "_per_class")

    def __init__(self, device) -> None:
        spec, config = device.spec, device.config
        self._num_heads = spec.num_heads
        self._head_dim = spec.head_dim
        self._dtype = spec.dtype_bytes
        self._org = config.org
        self._composite = config.composite_isa
        self._trefi = config.timing.tREFI
        self._layers = device.layers
        # Per-seq_len class contributions, memoized like the device's
        # `_class_contrib`.
        self._per_class = Memo(self.class_counters, 32768)

    def class_counters(self, seq_len: int) -> Tuple[float, float, float]:
        """One request's per-layer (issue slots, row acts, C/A cycles)."""
        org, dtype = self._org, self._dtype
        slots = 0
        ca = 0
        for op in mha_gemv_ops(self._num_heads, self._head_dim, seq_len):
            slots += op.waves(org, dtype)
            ca += ca_bus_cost(op, org, self._composite, dtype)
        return (float(slots), float(slots * org.banks_per_channel),
                float(ca))

    def iteration_counters(self, hist, latency: float,
                           npu_busy_cycles: float) -> Dict[str, float]:
        """Typed counter vector of one iteration.

        ``hist`` is the canonical ``(channel, seq_len, count)`` class
        histogram; ``latency`` the iteration latency (drives the refresh
        prediction) and ``npu_busy_cycles`` the ideal systolic busy time
        already computed by the GEMM stages.
        """
        slots = 0.0
        acts = 0.0
        ca = 0.0
        channels = set()
        per_class = self._per_class
        for channel, seq_len, count in hist:
            s, a, c = per_class[seq_len]
            slots += s * count
            acts += a * count
            ca += c * count
            channels.add(channel)
        layers = self._layers
        refresh = latency * len(channels) / self._trefi
        return {
            "dram.ca_busy_cycles": ca * layers,
            "dram.refresh_stalls": refresh,
            "dram.row_activations": acts * layers,
            "npu.systolic_busy_cycles": npu_busy_cycles,
            "pim.gemv_issue_slots": slots * layers,
        }
