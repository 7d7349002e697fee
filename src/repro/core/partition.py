"""Sub-batch partitioning — Algorithm 3 of the paper.

Sub-batch interleaving pipelines two *independent* halves of the batch, so
each half should (a) keep roughly half of every channel's requests — the
MHA time of a sub-batch is its most-loaded channel — and (b) have similar
total size — the GEMM time of a sub-batch grows with its token count.

Algorithm 3 achieves both by splitting each channel's request list in half
and alternating which sub-batch receives the extra request when a channel
holds an odd count (the ``turn`` flip).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.serving.request import InferenceRequest


def group_by_channel(requests: Sequence[InferenceRequest],
                     num_channels: int) -> List[List[InferenceRequest]]:
    """Bucket requests by their assigned channel (unassigned -> channel 0)."""
    buckets: List[List[InferenceRequest]] = [[] for _ in range(num_channels)]
    for request in requests:
        channel = request.channel if request.channel is not None else 0
        if not 0 <= channel < num_channels:
            raise ValueError(
                f"request {request.request_id} on invalid channel {channel}"
            )
        buckets[channel].append(request)
    return buckets


def sub_batch_halves(sizes: Iterable[int]) -> List[int]:
    """How many of each channel's ``size`` requests Algorithm 3 puts in
    the first sub-batch: half, odd spares alternating via ``turn``."""
    turn = True
    halves: List[int] = []
    for size in sizes:
        half = size // 2
        if size % 2:
            half += turn
            turn = not turn
        halves.append(half)
    return halves


def partition_sub_batches(
    requests_per_channel: Sequence[Sequence[InferenceRequest]],
) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
    """Algorithm 3: split each channel's requests into two sub-batches."""
    sb1: List[InferenceRequest] = []
    sb2: List[InferenceRequest] = []
    halves = sub_batch_halves(map(len, requests_per_channel))
    for channel_requests, half in zip(requests_per_channel, halves):
        sb1.extend(channel_requests[:half])
        sb2.extend(channel_requests[half:])
    return sb1, sb2


def partition_batch(requests: Sequence[InferenceRequest],
                    num_channels: int
                    ) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
    """Group by channel, then apply Algorithm 3."""
    return partition_sub_batches(group_by_channel(requests, num_channels))


def partition_stats(sb1: Sequence[InferenceRequest],
                    sb2: Sequence[InferenceRequest]) -> Dict[str, float]:
    """Balance diagnostics used by tests and the ablation bench."""
    size1, size2 = len(sb1), len(sb2)
    tokens1 = sum(r.seq_len for r in sb1)
    tokens2 = sum(r.seq_len for r in sb2)
    return {
        "size_1": float(size1),
        "size_2": float(size2),
        "size_skew": abs(size1 - size2),
        "tokens_1": float(tokens1),
        "tokens_2": float(tokens2),
        "token_skew": abs(tokens1 - tokens2) / max(1.0, (tokens1 + tokens2) / 2),
    }
