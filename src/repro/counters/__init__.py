"""Cross-fidelity typed counters, refutation, and profile-guided fidelity.

Typed hardware counter vectors emitted by both fidelity tiers over the
same taxonomy (:data:`~repro.counters.report.COUNTER_NAMES`), so the
tiers can be *diffed* rather than trusted.  A scenario turns them on
with the plain spec field ``counters="typed"``; the session folds each
iteration's vector into a totals dict (``Session.counters``) and
freezes it into ``RunResult.counters``.

* :mod:`repro.counters.report` — the taxonomy, the frozen
  :class:`CounterReport` rollup and its drift arithmetic;
* :mod:`repro.counters.model` — the analytic-tier
  :class:`DeviceCounterModel` annotating iteration results with their
  predicted counter vectors;
* :mod:`repro.counters.profile` — :class:`FidelityProfile`, the
  profile-guided ``fidelity="auto"`` decision store built from
  refutation runs;
* :mod:`repro.counters.refute` — the cross-tier refutation harness
  (``python -m repro refute``), imported lazily as a submodule because
  it drives the full :mod:`repro.api` layer.

Discipline matches the faults layer: the default is ``counters="none"``
(``Session.counters`` is ``None``), every producer guards on a single
``is not None`` branch, and the disabled path is gated bit-identical
and <5% overhead by the perf benchmark suite.
"""

from repro.counters.model import DeviceCounterModel
from repro.counters.profile import FidelityProfile, region_key, spec_region
from repro.counters.report import COUNTER_NAMES, CounterReport

__all__ = [
    "COUNTER_NAMES",
    "CounterReport",
    "DeviceCounterModel",
    "FidelityProfile",
    "region_key",
    "spec_region",
]
