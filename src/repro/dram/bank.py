"""DRAM bank state machines: single and dual row buffer variants.

Figure 8 of the paper contrasts (a) existing PIM banks with a single row
buffer — which forces "blocked mode", where either the host or the PIM owns
the bank — against (b) NeuPIMs banks with *dual row buffers* (a MEM row
buffer for regular read/write and a PIM row buffer for GEMV), letting both
flows proceed concurrently as long as they touch different rows.

The bank model enforces the Table 2 timing constraints per command and the
structural hazards of each organization:

* single-buffer banks reject MEM commands while a PIM operation holds the
  row buffer (and vice versa);
* dual-buffer banks allow concurrent MEM/PIM activity but refuse to open
  the *same row* in both buffers (the paper's controller-enforced rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.commands import BufferTarget
from repro.dram.timing import TimingParams


class TimingViolation(RuntimeError):
    """Raised when a command is issued before its constraints allow."""


class StructuralHazard(RuntimeError):
    """Raised on row-buffer conflicts (wrong row open, blocked mode, ...)."""


@dataclass
class _RowBuffer:
    """One row buffer's state within a bank."""

    open_row: Optional[int] = None
    act_time: float = float("-inf")
    pre_allowed_at: float = float("-inf")   # earliest PRE (tRAS / tRTP / tWR)
    act_allowed_at: float = float("-inf")   # earliest next ACT (after PRE+tRP)
    last_col_time: float = float("-inf")    # for tCCD spacing


class Bank:
    """A DRAM bank with one or two row buffers.

    Parameters
    ----------
    index:
        Bank index within its channel.
    timing:
        DRAM timing constraints.
    dual_row_buffer:
        ``True`` builds a NeuPIMs bank (separate MEM and PIM buffers);
        ``False`` builds a conventional blocked-mode PIM bank where both
        flows share a single buffer.
    """

    def __init__(self, index: int, timing: TimingParams,
                 dual_row_buffer: bool = True) -> None:
        self.index = index
        self.timing = timing
        self.dual_row_buffer = dual_row_buffer
        self._mem = _RowBuffer()
        #: blocked-mode banks share one buffer between both flows.
        self._pim = _RowBuffer() if dual_row_buffer else self._mem
        self._bufs = ((self._mem, self._pim) if dual_row_buffer
                      else (self._mem,))
        #: time until which a PIM operation owns the (shared) buffer —
        #: only meaningful for single-buffer banks (blocked mode).
        self.pim_busy_until: float = float("-inf")
        #: last activate on *any* buffer of this bank (activate spacing).
        self._last_act_any: float = float("-inf")

    def _buffer(self, target: BufferTarget) -> _RowBuffer:
        """Resolve the row buffer for a command target."""
        if target is BufferTarget.MEM:
            return self._mem
        if target is BufferTarget.PIM:
            return self._pim
        raise ValueError("command does not target a row buffer")

    def open_row(self, target: BufferTarget) -> Optional[int]:
        """Row currently open in the targeted buffer (``None`` if closed)."""
        return self._buffer(target).open_row

    def _other_buffer_row(self, target: BufferTarget) -> Optional[int]:
        if not self.dual_row_buffer:
            return None
        other = self._pim if target is BufferTarget.MEM else self._mem
        return other.open_row

    # ------------------------------------------------------------------
    # Earliest-issue queries (used by the controller to schedule).
    # ------------------------------------------------------------------

    def earliest_activate(self, target: BufferTarget, now: float) -> float:
        """Earliest cycle an ACT on ``target`` could issue at or after ``now``."""
        buf = self._buffer(target)
        t = max(now, buf.act_allowed_at)
        # Activate-to-activate spacing within the bank (row decoder shared).
        t = max(t, self._last_act_any + self.timing.tRRD_L)
        if not self.dual_row_buffer:
            t = max(t, self.pim_busy_until)
        return t

    def earliest_column(self, target: BufferTarget, row: int, now: float) -> float:
        """Earliest cycle a RD/WR/DOTPRODUCT on ``row`` could issue."""
        buf = self._buffer(target)
        if buf.open_row != row:
            raise StructuralHazard(
                f"bank {self.index}: row {row} not open in {target.value} buffer "
                f"(open: {buf.open_row})"
            )
        t = max(now, buf.act_time + self.timing.tRCD)
        t = max(t, buf.last_col_time + self.timing.tCCD_L)
        if not self.dual_row_buffer and target is BufferTarget.MEM:
            t = max(t, self.pim_busy_until)
        return t

    def earliest_precharge(self, target: BufferTarget, now: float) -> float:
        """Earliest cycle a PRE on ``target`` could issue."""
        buf = self._buffer(target)
        return max(now, buf.pre_allowed_at)

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------

    def activate(self, target: BufferTarget, row: int, time: float) -> None:
        """Open ``row`` in the targeted buffer at ``time``."""
        buf = self._buffer(target)
        if buf.open_row is not None:
            raise StructuralHazard(
                f"bank {self.index}: {target.value} buffer already open on row "
                f"{buf.open_row}; precharge first"
            )
        if self._other_buffer_row(target) == row:
            raise StructuralHazard(
                f"bank {self.index}: row {row} already open in the other buffer"
            )
        earliest = self.earliest_activate(target, time)
        if time < earliest:
            raise TimingViolation(
                f"bank {self.index}: ACT at {time} before earliest {earliest}"
            )
        buf.open_row = row
        buf.act_time = time
        buf.pre_allowed_at = time + self.timing.tRAS
        self._last_act_any = time

    def column_access(self, target: BufferTarget, row: int, time: float,
                      is_write: bool = False) -> float:
        """Perform a column access; returns data-transfer completion time."""
        buf = self._buffer(target)
        earliest = self.earliest_column(target, row, time)
        if time < earliest:
            raise TimingViolation(
                f"bank {self.index}: column access at {time} before {earliest}"
            )
        buf.last_col_time = time
        if is_write:
            data_end = time + self.timing.tCL + self.timing.tBL
            buf.pre_allowed_at = max(buf.pre_allowed_at, data_end + self.timing.tWR)
        else:
            data_end = time + self.timing.tCL + self.timing.tBL
            buf.pre_allowed_at = max(buf.pre_allowed_at, time + self.timing.tRTP)
        return data_end

    def precharge(self, target: BufferTarget, time: float) -> None:
        """Close the targeted buffer at ``time``."""
        buf = self._buffer(target)
        if buf.open_row is None:
            # Precharge of an idle bank is a legal no-op in DRAM.
            buf.act_allowed_at = max(buf.act_allowed_at, time + self.timing.tRP)
            return
        earliest = self.earliest_precharge(target, time)
        if time < earliest:
            raise TimingViolation(
                f"bank {self.index}: PRE at {time} before earliest {earliest}"
            )
        buf.open_row = None
        buf.act_allowed_at = time + self.timing.tRP

    def begin_pim_hold(self, until: float) -> None:
        """Blocked mode: mark the shared buffer as PIM-owned until ``until``."""
        if self.dual_row_buffer:
            return
        self.pim_busy_until = max(self.pim_busy_until, until)

    def refresh(self, time: float, trfc: int) -> None:
        """Apply a refresh: all buffers closed, bank unusable for tRFC."""
        for buf in self._bufs:
            buf.open_row = None
            buf.act_allowed_at = max(buf.act_allowed_at, time + trfc)
        self.pim_busy_until = max(self.pim_busy_until, time + trfc)

    def is_blocked_for_mem(self, time: float) -> bool:
        """Whether blocked-mode PIM activity stalls MEM commands at ``time``."""
        return (not self.dual_row_buffer) and time < self.pim_busy_until

    # ------------------------------------------------------------------
    # Batch replay (fast path) support.
    # ------------------------------------------------------------------

    def state_key(self, base: float, horizon: float) -> tuple:
        """Translation-invariant digest of the bank state relative to ``base``.

        ``horizon`` is the channel's C/A frontier: no future command can
        take effect before it, and every issue path max-combines these
        timestamps with it.  Timestamps already dead by ``horizon`` (minus
        the constraint they feed) are therefore clamped to their floor, so
        long-stale history (an activate from thousands of cycles ago) does
        not keep otherwise-identical states from matching.  Clamping is
        sound for dual-row-buffer banks only — blocked mode compares
        ``pim_busy_until`` against pre-frontier candidate times — so single
        -buffer banks digest raw values.
        """
        if not self.dual_row_buffer:
            parts = [self.pim_busy_until - base, self._last_act_any - base]
            for buf in self._bufs:
                parts.append(buf.open_row)
                parts.append(buf.act_time - base)
                parts.append(buf.pre_allowed_at - base)
                parts.append(buf.act_allowed_at - base)
                parts.append(buf.last_col_time - base)
            return tuple(parts)
        # Every reader of ``pim_busy_until`` is guarded by blocked mode,
        # so it is dead here (though a refresh still moves it).
        timing = self.timing
        parts = [max(self._last_act_any, horizon - timing.tRRD_L) - base]
        for buf in self._bufs:
            parts.append(buf.open_row)
            parts.append(max(buf.act_time, horizon - timing.tRCD) - base)
            parts.append(max(buf.pre_allowed_at, horizon) - base)
            parts.append(max(buf.act_allowed_at, horizon) - base)
            parts.append(max(buf.last_col_time, horizon - timing.tCCD_L) - base)
        return tuple(parts)

    def time_shift(self, dt: float) -> None:
        """Advance every stored absolute time by ``dt`` cycles."""
        self.pim_busy_until += dt
        self._last_act_any += dt
        for buf in self._bufs:
            buf.act_time += dt
            buf.pre_allowed_at += dt
            buf.act_allowed_at += dt
            buf.last_col_time += dt
