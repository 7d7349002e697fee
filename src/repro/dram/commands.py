"""DRAM and PIM command definitions.

The base DRAM command set (ACT/PRE/RD/WR/REF) follows the standard JEDEC
interface.  The PIM command set has two layers, mirroring the paper §5.2:

* the *baseline* Newton-style commands — ``PIM_GWRITE``, ``PIM_ACTIVATION``
  (grouped activation of 4 banks), ``PIM_DOTPRODUCT``, ``PIM_RDRESULT`` —
  which drive a GEMV with fine-grained C/A-bus traffic; and
* the *NeuPIMs composite* commands — ``PIM_HEADER`` (declares the GEMV
  dimensionality so the controller can schedule around refresh),
  ``PIM_GEMV`` (performs ``k`` dot-products and the result readout in one
  command), ``PIM_PRECHARGE`` (precharges the PIM row buffer).

Each command knows which row buffer it touches (``BufferTarget``), which is
what the dual-row-buffer bank model keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Tuple


class CommandType(Enum):
    """All command opcodes understood by the memory controller."""

    # Regular memory commands.
    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"

    # Baseline PIM commands (Newton).
    PIM_GWRITE = "PIM_GWRITE"
    PIM_ACTIVATION = "PIM_ACTIVATION"
    PIM_DOTPRODUCT = "PIM_DOTPRODUCT"
    PIM_RDRESULT = "PIM_RDRESULT"

    # NeuPIMs composite commands (Table 1).
    PIM_HEADER = "PIM_HEADER"
    PIM_GEMV = "PIM_GEMV"
    PIM_PRECHARGE = "PIM_PRECHARGE"


#: Commands that belong to the PIM flow (scheduled from the PIM queue).
PIM_COMMANDS = frozenset(
    {
        CommandType.PIM_GWRITE,
        CommandType.PIM_ACTIVATION,
        CommandType.PIM_DOTPRODUCT,
        CommandType.PIM_RDRESULT,
        CommandType.PIM_HEADER,
        CommandType.PIM_GEMV,
        CommandType.PIM_PRECHARGE,
    }
)

#: NeuPIMs ISA additions on top of the baseline PIM command set.
COMPOSITE_COMMANDS = frozenset(
    {CommandType.PIM_HEADER, CommandType.PIM_GEMV, CommandType.PIM_PRECHARGE}
)


class BufferTarget(Enum):
    """Which per-bank row buffer a command operates on."""

    MEM = "mem"
    PIM = "pim"
    NONE = "none"


def buffer_target(ctype: CommandType) -> BufferTarget:
    """Row buffer touched by a command type."""
    if ctype in (CommandType.ACT, CommandType.PRE, CommandType.RD, CommandType.WR):
        return BufferTarget.MEM
    if ctype in (
        CommandType.PIM_ACTIVATION,
        CommandType.PIM_DOTPRODUCT,
        CommandType.PIM_GEMV,
        CommandType.PIM_PRECHARGE,
    ):
        return BufferTarget.PIM
    return BufferTarget.NONE


@dataclass(frozen=True)
class Command:
    """One command as placed on a channel's C/A bus.

    Attributes
    ----------
    ctype:
        Opcode.
    bank:
        Target bank index, or ``None`` for channel-scope commands
        (REF, PIM_HEADER, and all-bank PIM commands).
    row:
        Target row for activates / GWRITE.
    banks:
        Bank group for ``PIM_ACTIVATION`` (the paper activates 4 banks per
        command due to tFAW).
    k:
        Dot-product count argument of ``PIM_GEMV``.
    meta:
        Free-form tag used by tests and the Figure 9 bench to attribute
        commands to operations.
    """

    ctype: CommandType
    bank: Optional[int] = None
    row: Optional[int] = None
    banks: Tuple[int, ...] = ()
    k: int = 0
    meta: str = ""

    def __post_init__(self) -> None:
        if self.ctype is CommandType.PIM_ACTIVATION and not self.banks:
            raise ValueError("PIM_ACTIVATION requires a bank group")
        if self.ctype is CommandType.PIM_GEMV and self.k <= 0:
            raise ValueError("PIM_GEMV requires k > 0 dot-products")
        if self.ctype in (CommandType.ACT, CommandType.RD, CommandType.WR,
                          CommandType.PRE) and self.bank is None:
            raise ValueError(f"{self.ctype.value} requires a bank")
        if self.ctype is CommandType.ACT and self.row is None:
            raise ValueError("ACT requires a row")

    @property
    def is_pim(self) -> bool:
        return self.ctype in PIM_COMMANDS

    @property
    def is_composite(self) -> bool:
        return self.ctype in COMPOSITE_COMMANDS

    @property
    def target(self) -> BufferTarget:
        return buffer_target(self.ctype)

    def at_wave(self, wave: int) -> "Command":
        """This template command as issued in repetition ``wave``: a row,
        if it has one, advances by one per repetition."""
        if not wave or self.row is None:
            return self
        return Command(self.ctype, self.bank, self.row + wave, self.banks,
                       self.k, self.meta)


@dataclass(frozen=True)
class CommandStream:
    """``prefix``, ``waves`` repetitions of ``template`` (rows advancing
    per :meth:`Command.at_wave`), then ``suffix``: iterating yields every
    command, ``len`` is arithmetic, and the controller consumes the runs
    by position, so a replayed wave is never built."""

    prefix: Tuple[Command, ...] = ()
    template: Tuple[Command, ...] = ()
    waves: int = 0
    suffix: Tuple[Command, ...] = ()

    def runs(self) -> Tuple[Tuple[Tuple[Command, ...], int], ...]:
        """The ``(commands, repetitions)`` runs, in order."""
        return ((self.prefix, 1), (self.template, self.waves), (self.suffix, 1))

    def __len__(self) -> int:
        return sum(len(run) * reps for run, reps in self.runs())

    def __iter__(self) -> Iterator[Command]:
        for run, reps in self.runs():
            for wave in range(reps):
                yield from (cmd.at_wave(wave) for cmd in run)


def ca_bus_cycles(ctype: CommandType) -> int:
    """C/A bus occupancy of a command in cycles.

    Regular commands occupy one command slot.  PIM commands carry extra
    payload (row lists, dimensionality) and occupy the bus longer — this is
    the "issuing delay of PIM commands is greater" property the paper's
    controller policy (PIM-priority) is built around.
    """
    if ctype in (CommandType.PIM_HEADER, CommandType.PIM_GEMV):
        return 4
    if ctype in (CommandType.PIM_GWRITE, CommandType.PIM_ACTIVATION,
                 CommandType.PIM_DOTPRODUCT, CommandType.PIM_RDRESULT,
                 CommandType.PIM_PRECHARGE):
        return 2
    return 1
