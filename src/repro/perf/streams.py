"""Interned GEMV command streams.

Serving workloads lower the same GEMV shapes over and over: every request
of a given sequence length produces identical logit/attend command streams.
A stream is a :class:`~repro.dram.commands.CommandStream` descriptor (a
prefix, one wave template and a wave count, a suffix), so even a 4096x4096
fine-grained GEMV holds a few dozen commands: the descriptor, not the
interning, is what avoids building its 10k commands.  Interning shares
one frozen descriptor between every controller that drains the shape.

Streams are keyed by every input that shapes them: the GEMV dimensions,
the HBM organization, the element width, the encoding and the base row.
A mutated (replaced) :class:`~repro.dram.timing.HbmOrganization` hashes
differently and misses.
"""

from __future__ import annotations

from repro.dram.commands import CommandStream
from repro.dram.timing import HbmOrganization
from repro.perf.cache import cache
from repro.pim.gemv import GemvOp, composite_stream, fine_grained_stream

#: Registry name of the stream intern table.
STREAM_CACHE = "gemv_streams"

#: Total commands the interned descriptors may hold.  A descriptor weighs
#: its GWRITEs (one per operand page) plus a few, whatever its wave count,
#: so only sweeps of very wide GEMVs reach the bound.
STREAM_HELD_BUDGET = 1 << 16

# Created at import so the weight-based bound is configured before any
# caller can instantiate the table by bare name.
_STREAMS = cache(STREAM_CACHE, max_entries=4096, max_weight=STREAM_HELD_BUDGET,
                 weight=lambda s: sum(len(run) for run, _ in s.runs()))


def interned_stream(op: GemvOp, org: HbmOrganization, *,
                    composite: bool = True, dtype_bytes: int = 2,
                    base_row: int = 0) -> CommandStream:
    """The command stream descriptor for ``op``, interned.

    The operation *tag* is part of the key (it is stamped into each
    command's ``meta``), so identically shaped GEMVs with different tags
    intern separately while repeated requests of one tagged shape share.
    """
    key = (op.rows, op.cols, op.tag, org, composite, dtype_bytes, base_row)
    builder = composite_stream if composite else fine_grained_stream
    return _STREAMS.get_or_compute(
        key, lambda: builder(op, org, dtype_bytes, base_row))
