"""Deterministic fault injection and resilience (registry kind ``faults``).

Real clusters lose PIM/DRAM channels, stall nodes and time out requests;
fault tolerance is a first-class availability concern in cluster design,
and a serving simulator aimed at production scale needs failure semantics
before it can model a fleet.  This package supplies them in three layers:

* :mod:`repro.faults.plan` — typed fault descriptions and the seeded,
  deterministic :class:`FaultPlan` (a pure function of options + seed,
  so faults replay identically in sweeps and pickled workers);
* :mod:`repro.faults.injector` — the :class:`FaultInjector` runtime the
  serving scheduler polls at iteration boundaries;
* :mod:`repro.faults.resilience` — the :class:`ResilienceRuntime`
  wiring the ``ServingSpec`` deadline, retry/backoff re-admission and
  shedding knobs and per-iteration latency penalties through the
  serving scheduler;
* :mod:`repro.faults.chaos` — the ``python -m repro chaos`` harness
  sweeping seeded fault scenarios and asserting conservation invariants.

The plan layer also carries **node-scoped** faults (:class:`NodeDown` /
:class:`NodeDegrade`, built by :func:`make_node_fault_plan` and queried
through the cursor-free :class:`NodeFaultSchedule`) consumed by the
fleet router's health model (:mod:`repro.cluster`), with the fleet-level
chaos sweep in :func:`run_fleet_chaos` (``python -m repro chaos
--fleet``).

The registry component kind is ``faults`` with default ``"none"``, which
materializes to ``None`` — the scheduler then carries no resilience
state and every fault-path branch reduces to one ``is not None`` check,
the same zero-overhead-when-disabled discipline as the event bus.
"""

from repro.faults.chaos import (chaos_spec, fleet_chaos_spec, run_chaos,
                                run_fleet_chaos, verify_fleet,
                                verify_session)
from repro.faults.injector import FaultInjector, NodeFaultSchedule
from repro.faults.plan import (ChannelDegrade, ChannelStall, Fault,
                               FaultPlan, KvFault, NodeDegrade, NodeDown,
                               RequestAbort, make_fault_plan,
                               make_node_fault_plan)
from repro.faults.resilience import ResilienceRuntime

__all__ = [
    "ChannelDegrade",
    "ChannelStall",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "KvFault",
    "NodeDegrade",
    "NodeDown",
    "NodeFaultSchedule",
    "RequestAbort",
    "ResilienceRuntime",
    "chaos_spec",
    "fleet_chaos_spec",
    "make_fault_plan",
    "make_node_fault_plan",
    "run_chaos",
    "run_fleet_chaos",
    "verify_fleet",
    "verify_session",
]
