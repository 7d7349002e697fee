"""GEMV operation descriptors and PIM command-stream builders.

Two command encodings are produced for the same logical GEMV, matching
Figure 9 of the paper:

* :func:`fine_grained_stream` — the baseline Newton encoding: one
  ``PIM_GWRITE``, then per wave a ``PIM_ACTIVATION`` per 4-bank group, one
  ``PIM_DOTPRODUCT``, and a trailing ``PIM_RDRESULT`` — heavy C/A traffic.
* :func:`composite_stream` — the NeuPIMs encoding: ``PIM_HEADER`` +
  ``PIM_GWRITE`` + one ``PIM_GEMV(k)`` + ``PIM_PRECHARGE`` — constant
  command count regardless of ``k``.

Both return a :class:`~repro.dram.commands.CommandStream`: waves differ
only in their rows, so a stream holds one wave template and a count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Tuple

from repro.dram.commands import (Command, CommandStream, CommandType,
                                 ca_bus_cycles)
from repro.dram.timing import HbmOrganization


@dataclass(frozen=True)
class GemvOp:
    """One GEMV to run on a PIM channel.

    Attributes
    ----------
    rows:
        Matrix rows (dot products to perform).
    cols:
        Matrix columns (elements per dot product).
    tag:
        Operation label for stats (e.g. ``"logit[3]"``).
    """

    rows: int
    cols: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"GEMV dims must be positive: {self}")

    def waves(self, org: HbmOrganization, dtype_bytes: int = 2) -> int:
        """All-bank dot-product waves needed for this GEMV.

        Each wave MACs one open page per bank: ``banks`` rows at a time,
        ``page`` elements of the column dimension at a time.
        """
        elements_per_page = org.elements_per_page(dtype_bytes)
        row_rounds = ceil(self.rows / org.banks_per_channel)
        col_rounds = ceil(self.cols / elements_per_page)
        return row_rounds * col_rounds

    def gwrites(self, org: HbmOrganization, dtype_bytes: int = 2) -> int:
        """GWRITE commands to stage the operand vector."""
        return ceil(self.cols / org.elements_per_page(dtype_bytes))


def fine_grained_stream(op: GemvOp, org: HbmOrganization, dtype_bytes: int = 2,
                        base_row: int = 0) -> CommandStream:
    """Baseline Newton command stream for one GEMV.

    The ``GWRITE* / (ACT4* DOTPRODUCT PRECHARGE)* / RDRESULT`` sequence as
    one wave template repeated per wave: wave ``w`` activates row
    ``base_row + w`` — the actual addresses do not affect timing provided
    they differ per wave (row misses).
    """
    gwrite = Command(CommandType.PIM_GWRITE, bank=0, row=base_row + 10_000,
                     meta=op.tag)
    wave = tuple(
        Command(CommandType.PIM_ACTIVATION, row=base_row, meta=op.tag,
                banks=tuple(range(g * org.banks_per_group,
                                  (g + 1) * org.banks_per_group)))
        for g in range(org.bank_groups)
    ) + (Command(CommandType.PIM_DOTPRODUCT, meta=op.tag),
         Command(CommandType.PIM_PRECHARGE, meta=op.tag))
    return CommandStream((gwrite,) * op.gwrites(org, dtype_bytes), wave,
                         op.waves(org, dtype_bytes),
                         (Command(CommandType.PIM_RDRESULT, meta=op.tag),))


def composite_stream(op: GemvOp, org: HbmOrganization,
                     dtype_bytes: int = 2, base_row: int = 0) -> CommandStream:
    """NeuPIMs composite command stream for one GEMV.

    ``PIM_HEADER`` announces the dimensionality (wave count) so the memory
    controller can schedule around refresh; ``PIM_GEMV`` performs all waves
    and the result readout; ``PIM_PRECHARGE`` releases the PIM row buffers.
    """
    waves = op.waves(org, dtype_bytes)
    gwrite = Command(CommandType.PIM_GWRITE, bank=0, row=base_row + 10_000,
                     meta=op.tag)
    return CommandStream(
        (Command(CommandType.PIM_HEADER, k=waves, meta=op.tag),)
        + (gwrite,) * op.gwrites(org, dtype_bytes)
        + (Command(CommandType.PIM_GEMV, k=waves, meta=op.tag),
           Command(CommandType.PIM_PRECHARGE, meta=op.tag)))


def command_count(op: GemvOp, org: HbmOrganization, composite: bool,
                  dtype_bytes: int = 2) -> int:
    """Number of C/A-bus commands for the chosen encoding (Figure 9)."""
    return len((composite_stream if composite else fine_grained_stream)(
        op, org, dtype_bytes))


def ca_bus_cost(op: GemvOp, org: HbmOrganization, composite: bool,
                dtype_bytes: int = 2) -> int:
    """Total C/A-bus busy cycles of one GEMV, computed arithmetically.

    Prices the exact command composition of the two stream builders
    through :func:`repro.dram.commands.ca_bus_cycles` without
    materializing the streams — the analytic tier's prediction for the
    ``dram.ca_busy_cycles`` counter (refresh-driven ``REF`` commands and
    activation replays are deliberately excluded; they are the genuine
    cross-tier drift the refutation harness measures).
    """
    waves = op.waves(org, dtype_bytes)
    gwrites = op.gwrites(org, dtype_bytes)
    cost = gwrites * ca_bus_cycles(CommandType.PIM_GWRITE)
    if composite:
        return cost + (ca_bus_cycles(CommandType.PIM_HEADER)
                       + ca_bus_cycles(CommandType.PIM_GEMV)
                       + ca_bus_cycles(CommandType.PIM_PRECHARGE))
    per_wave = (org.bank_groups * ca_bus_cycles(CommandType.PIM_ACTIVATION)
                + ca_bus_cycles(CommandType.PIM_DOTPRODUCT)
                + ca_bus_cycles(CommandType.PIM_PRECHARGE))
    return cost + waves * per_wave + ca_bus_cycles(CommandType.PIM_RDRESULT)


def mha_gemv_ops(num_heads: int, head_dim: int, seq_len: int,
                 tag: str = "") -> Tuple[GemvOp, GemvOp]:
    """The logit and attend GEMVs of one request's MHA (§6.3 layout).

    Single source of the MHA GEMV geometry: the cycle tier
    (:meth:`repro.pim.engine.PimChannelEngine.mha_ops`), Algorithm 1's
    estimator (:meth:`repro.core.estimator.MhaLatencyEstimator.mha_gemv_ops`)
    and the analytic counter model all lower a request's attention to
    these two shapes, so cross-tier counter comparisons diff the same
    operations.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    logit = GemvOp(rows=seq_len * num_heads, cols=head_dim,
                   tag=f"logit{tag}")
    attend = GemvOp(rows=head_dim * num_heads, cols=seq_len,
                    tag=f"attend{tag}")
    return logit, attend
