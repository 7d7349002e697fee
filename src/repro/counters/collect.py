"""Counter collection: the run-scoped accumulator.

A :class:`CounterCollector` is what the ``counters=typed`` registry
component materializes on a :class:`~repro.api.session.Session`.  The
session charges each iteration's typed counter vector into it (one
``is not None`` branch on the disabled path, same zero-overhead
discipline as the event bus and the faults layer) and snapshots the
total into the :class:`~repro.counters.report.CounterReport` attached to
the :class:`~repro.api.session.RunResult`.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.counters.report import CounterReport


class CounterCollector:
    """Accumulates typed counter charges over one run.

    Mutable and cheap by design: the hot path does one dict update per
    iteration.  The canonical, frozen view is :meth:`report`.
    """

    __slots__ = ("_totals",)

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}

    def charge(self, counters: Mapping[str, float],
               scale: float = 1.0) -> None:
        """Add a counter vector (optionally scaled) into the totals."""
        totals = self._totals
        if scale == 1.0:
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value
        else:
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value * scale

    def charge_one(self, name: str, amount: float) -> None:
        """Add a single counter charge."""
        self._totals[name] = self._totals.get(name, 0.0) + amount

    def snapshot(self) -> Dict[str, float]:
        """Sorted name->value copy of the running totals."""
        return {name: self._totals[name] for name in sorted(self._totals)}

    def report(self) -> CounterReport:
        """Freeze the totals into a canonical report."""
        return CounterReport.from_mapping(self._totals)

    def reset(self) -> None:
        """Drop all accumulated charges."""
        self._totals.clear()
