"""Roofline analysis of decoder operators (paper Figure 4).

Figure 4 plots per-operator arithmetic intensity (FLOPs/byte) against
attainable performance on a device roofline, showing that the generation
phase's logit/attend operators sit deep in the memory-bound region while
summarization-phase operators and batched QKV/projection/FFN GEMMs are
compute-bound.  This module reproduces those coordinates analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.model.layers import decoder_block_operators
from repro.model.spec import ModelSpec


@dataclass(frozen=True)
class RooflinePoint:
    """One operator class on the roofline plot."""

    label: str
    phase: str
    arithmetic_intensity: float
    attainable_tflops: float
    bound: str  # "compute" or "memory"


@dataclass(frozen=True)
class DeviceRoofline:
    """A peak-compute / peak-bandwidth roofline.

    Attributes are in FLOP/s and bytes/s.  ``ridge_intensity`` is the
    arithmetic intensity at which the device transitions from memory- to
    compute-bound.
    """

    name: str
    peak_flops: float
    peak_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.peak_bandwidth <= 0:
            raise ValueError("peaks must be positive")

    @property
    def ridge_intensity(self) -> float:
        return self.peak_flops / self.peak_bandwidth

    def attainable(self, intensity: float) -> float:
        """Attainable FLOP/s at the given arithmetic intensity."""
        if intensity <= 0:
            return 0.0
        return min(self.peak_flops, intensity * self.peak_bandwidth)

    def time_for(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution time in seconds: max(compute, memory)."""
        return max(flops / self.peak_flops, bytes_moved / self.peak_bandwidth)


#: A100-class roofline used for the Figure 4 reproduction (fp16 tensor core
#: peak 312 TFLOPS, HBM2e 1555 GB/s).
A100_ROOFLINE = DeviceRoofline("a100-40gb", peak_flops=312e12, peak_bandwidth=1555e9)

#: RTX 3090-class roofline used in Figure 5 (fp16 ~71 TFLOPS, 936 GB/s).
RTX3090_ROOFLINE = DeviceRoofline("rtx3090-24gb", peak_flops=71e12,
                                  peak_bandwidth=936e9)


def _aggregate(ops, labels: Dict[str, str]) -> Dict[str, Dict[str, float]]:
    """Sum FLOPs/bytes of operators into labelled groups."""
    groups: Dict[str, Dict[str, float]] = {}
    for op in ops:
        base = op.name.split("[")[0]
        label = labels.get(base)
        if label is None:
            continue
        bucket = groups.setdefault(label, {"flops": 0.0, "bytes": 0.0})
        bucket["flops"] += op.flops
        bucket["bytes"] += op.bytes_moved
    return groups


def roofline_points(
    spec: ModelSpec,
    batch_size: int,
    avg_seq_len: int,
    device: DeviceRoofline = A100_ROOFLINE,
    prompt_len: Optional[int] = None,
) -> List[RooflinePoint]:
    """Compute Figure-4-style roofline points for one model.

    Two operator groups per phase are reported, matching the figure:
    ``Logit, Attend`` (the activation-activation operators) and
    ``QKV gen, Projection`` (the weight-activation operators; FFNs behave
    identically and are folded into the latter group).
    """
    if batch_size <= 0 or avg_seq_len <= 0:
        raise ValueError("batch_size and avg_seq_len must be positive")
    prompt = prompt_len if prompt_len is not None else avg_seq_len

    labels = {
        "logit": "Logit, Attend",
        "attend": "Logit, Attend",
        "attention": "Logit, Attend",
        "qkv_generation": "QKV gen, Projection",
        "projection": "QKV gen, Projection",
        "ffn1": "QKV gen, Projection",
        "ffn2": "QKV gen, Projection",
    }

    points: List[RooflinePoint] = []
    for phase, seq_lens in (
        ("generation", [avg_seq_len] * batch_size),
        ("summarization", [prompt] * batch_size),
    ):
        ops = decoder_block_operators(spec, seq_lens, phase=phase)
        for label, acc in sorted(_aggregate(ops, labels).items()):
            intensity = acc["flops"] / acc["bytes"] if acc["bytes"] else float("inf")
            attainable = device.attainable(intensity)
            bound = "compute" if intensity >= device.ridge_intensity else "memory"
            points.append(
                RooflinePoint(
                    label=label,
                    phase=phase,
                    arithmetic_intensity=intensity,
                    attainable_tflops=attainable / 1e12,
                    bound=bound,
                )
            )
    return points


def phase_intensity(spec: ModelSpec, batch_size: int, seq_lens: Sequence[int],
                    phase: str) -> float:
    """Aggregate arithmetic intensity of one phase's decoder block."""
    if len(seq_lens) != batch_size:
        raise ValueError("seq_lens length must equal batch_size")
    ops = decoder_block_operators(spec, list(seq_lens), phase=phase)
    flops = sum(op.flops for op in ops)
    bytes_moved = sum(op.bytes_moved for op in ops)
    return flops / bytes_moved if bytes_moved else float("inf")


def is_memory_bound(spec: ModelSpec, batch_size: int, seq_lens: Sequence[int],
                    phase: str, device: DeviceRoofline = A100_ROOFLINE) -> bool:
    """Whether a phase is memory-bound on the given device roofline."""
    return phase_intensity(spec, batch_size, seq_lens, phase) < device.ridge_intensity
