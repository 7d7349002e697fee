"""vLLM-style paged KV-cache allocation (paper §2.2).

NeuPIMs adopts vLLM's memory paging for the KV cache: instead of
pre-allocating a max-length region per request, the allocator hands out
fixed-size *blocks* (a block stores ``block_tokens`` tokens' K and V for
all layers of the device's model shard) on demand.  This is what lets the
system run batch sizes of 256-512: capacity follows the *actual* context
lengths rather than the worst case.

The allocator is per PIM channel, since a request's KV cache lives
entirely in its assigned channel's banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional

from repro.model.spec import ModelSpec


class OutOfMemoryError(RuntimeError):
    """Raised when a channel cannot allocate another KV block."""


@dataclass(frozen=True)
class PagedKvConfig:
    """Paged allocator parameters.

    ``block_tokens`` is vLLM's block size (16 tokens by default).
    ``capacity_bytes`` is the memory the channel reserves for KV cache.
    """

    block_tokens: int = 16
    capacity_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.block_tokens <= 0 or self.capacity_bytes <= 0:
            raise ValueError("block_tokens and capacity_bytes must be positive")


class PagedKvAllocator:
    """Block allocator for one channel's KV cache.

    Parameters
    ----------
    spec:
        Model (shard) whose KV footprint per token sizes the blocks.
    layers_resident:
        Decoder blocks resident on this device (pipeline parallelism
        reduces this); scales per-token bytes.
    """

    def __init__(self, config: PagedKvConfig, spec: ModelSpec,
                 layers_resident: Optional[int] = None
                 ) -> None:
        self.config = config
        self.spec = spec
        layers = spec.num_layers if layers_resident is None else layers_resident
        if layers <= 0:
            raise ValueError("layers_resident must be positive")
        per_token = 2 * spec.d_model * spec.dtype_bytes * layers
        self.block_bytes = per_token * config.block_tokens
        self.total_blocks = config.capacity_bytes // self.block_bytes
        if self.total_blocks <= 0:
            raise ValueError(
                "channel capacity smaller than one KV block; "
                "reduce block_tokens or layers_resident"
            )
        self._free_blocks = int(self.total_blocks)
        self._allocations: Dict[int, int] = {}

    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    @property
    def used_blocks(self) -> int:
        return int(self.total_blocks) - self._free_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` context tokens."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        return ceil(tokens / self.config.block_tokens) if tokens else 0

    def can_allocate(self, request_id: int, tokens: int) -> bool:
        """Whether growing ``request_id`` to ``tokens`` context would fit."""
        current = self._allocations.get(request_id, 0)
        needed = self.blocks_for(tokens) - current
        return needed <= self._free_blocks

    def allocate(self, request_id: int, tokens: int) -> int:
        """Grow the request's allocation to cover ``tokens`` context tokens.

        Returns the number of newly allocated blocks.  Allocation is
        monotonic per request (contexts only grow until release).
        """
        current = self._allocations.get(request_id, 0)
        target = self.blocks_for(tokens)
        if target < current:
            raise ValueError(
                f"request {request_id}: shrinking allocation "
                f"({current} -> {target} blocks) is not supported; release first"
            )
        needed = target - current
        if needed > self._free_blocks:
            raise OutOfMemoryError(
                f"request {request_id}: need {needed} blocks, "
                f"only {self._free_blocks} free"
            )
        self._free_blocks -= needed
        self._allocations[request_id] = target
        return needed

    def bulk_reserve(self, blocks: int) -> None:
        """Reserve ``blocks`` free blocks as one batched operation.

        Used by the grouped serving engine to commit a whole equivalence
        class's (or window's) KV growth at once; the per-request
        ``_allocations`` entries are fixed up later via
        :meth:`set_allocation` when the window closes, restoring the
        ``free == total - sum(allocations)`` invariant.
        """
        if blocks < 0:
            raise ValueError("blocks must be non-negative")
        if blocks > self._free_blocks:
            raise OutOfMemoryError(
                f"bulk reserve of {blocks} blocks exceeds "
                f"{self._free_blocks} free"
            )
        self._free_blocks -= blocks

    def set_allocation(self, request_id: int, blocks: int) -> None:
        """Record a request's block count without touching the free pool.

        Counterpart of :meth:`bulk_reserve`: the grouped engine reserves
        blocks in bulk mid-window and writes the per-request ledger back
        here at the boundary, so a later :meth:`release` frees the exact
        amount.  Never call this outside that pairing — it intentionally
        does not adjust ``free_blocks``.
        """
        if blocks < 0:
            raise ValueError("blocks must be non-negative")
        self._allocations[request_id] = blocks

    def ledger_consistent(self) -> bool:
        """Whether ``free == total - sum(allocations)`` holds (tests)."""
        allocated = sum(self._allocations.values())
        return self._free_blocks == int(self.total_blocks) - allocated

    def release(self, request_id: int) -> int:
        """Free all blocks of a finished request; returns blocks freed."""
        blocks = self._allocations.pop(request_id, 0)
        self._free_blocks += blocks
        return blocks

    def utilization(self) -> float:
        """Fraction of capacity currently allocated."""
        if self.total_blocks == 0:
            return 0.0
        return self.used_blocks / self.total_blocks

    def resident_requests(self) -> List[int]:
        """Request ids with live allocations."""
        return sorted(self._allocations)


def channel_allocators(config: PagedKvConfig, spec: ModelSpec,
                       num_channels: int,
                       layers_resident: Optional[int] = None
                       ) -> List[PagedKvAllocator]:
    """One :class:`PagedKvAllocator` per PIM channel.

    A request's KV cache lives entirely in its assigned channel's banks,
    so every serving stack needs one allocator per channel of the
    placement pool (``device.channel_pool``).  This is the single
    fan-out helper used by :class:`repro.api.session.Session` and the
    examples instead of hand-built list comprehensions.
    """
    if num_channels <= 0:
        raise ValueError("num_channels must be positive")
    return [PagedKvAllocator(config, spec, layers_resident=layers_resident)
            for _ in range(num_channels)]


def max_batch_without_paging(config: PagedKvConfig, spec: ModelSpec,
                             max_seq_len: int,
                             layers_resident: Optional[int] = None
                             ) -> int:
    """Batch size a *non-paged* allocator supports (worst-case reservation).

    Without paging every request reserves ``max_seq_len`` tokens up front;
    this is the baseline that vLLM-style paging improves on, and the test
    suite asserts paging admits strictly larger batches for realistic
    length distributions.
    """
    allocator = PagedKvAllocator(config, spec, layers_resident)
    blocks_per_request = allocator.blocks_for(max_seq_len)
    return int(allocator.total_blocks // blocks_per_request)
