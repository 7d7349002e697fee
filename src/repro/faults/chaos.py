"""Chaos harness: seeded fault sweeps with conservation invariants.

CounterPoint-style methodology (PAPERS.md): the way to trust a model is
to try to *refute* it.  Happy-path bit-identity (the grouping and
streaming equivalence suites) is necessary but not sufficient — this
harness drives :class:`~repro.api.session.Session` through seeded fault
scenarios and checks the invariants that must survive adversarial
conditions:

* **conservation** — every arrival retires exactly once with a terminal
  status (``completed | timed_out | shed | aborted``); the request pool
  drains and no KV block leaks (allocator ledgers consistent and empty);
* **monotonicity** — iteration records never move backwards in time and
  the latency report's per-request timestamps stay ordered even across
  retries and idle-forward jumps;
* **determinism** — for a fixed ``(spec, fault_seed)`` the full
  ``RunResult`` payload is bit-identical across grouping ``auto | off``
  and ``stream | batch`` consumption.  The ``auto`` cells run grouped
  windows that stop at every resilience boundary, and each cell reports
  the iterations its windows committed: a sweep whose ``auto`` cells
  commit none would pin ``auto == off`` by construction, so it is a
  violation.

The **fleet** harness extends the same methodology to the cluster tier
(:mod:`repro.cluster`): seeded node-kill schedules against a routed
fleet, asserting the fleet-level invariants — no request lost across
failovers (``admitted == completed + timed_out + shed + aborted``),
bit-identical :class:`~repro.cluster.result.FleetResult` payloads per
``(fleet spec, fault_seed)`` across observed/step-chunked and batch
stepping, and a single-node no-fault fleet reproducing the plain
:class:`~repro.api.session.Session` result bit-for-bit.

Exposed on the CLI as ``python -m repro chaos`` (``--fleet`` for the
cluster tier); the CI ``chaos-smoke`` job runs both on every push.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["chaos_spec", "fleet_chaos_spec", "run_chaos",
           "run_fleet_chaos", "verify_fleet", "verify_session"]

#: Simulated-cycle horizon for arrivals (requests land early, then the
#: batch drains over ~30x this span).
_CHAOS_ARRIVAL_HORIZON = 3e6

#: Simulated-cycle horizon for fault windows — sized to the makespan of
#: the drain (~9e7 cycles) so faults strike live requests.
_CHAOS_FAULT_HORIZON = 6e7

#: Terminal statuses a retired request may carry.
TERMINAL_STATUSES = frozenset(
    {"completed", "timed_out", "shed", "aborted"})


def chaos_spec(fault_seed: int, *, requests: int = 16,
               grouping: str = "auto") -> Any:
    """Build one chaos scenario cell for ``fault_seed``.

    A NeuPIMs system under Poisson traffic with a tight KV budget,
    deadlines, bounded retry and shedding enabled, and a seeded fault
    plan aligned with the traffic horizon — enough pressure that every
    resilience path exercises, small enough to run in well under a
    second per cell.
    """
    from repro.api.spec import ScenarioSpec, ServingSpec, TrafficSpec
    return ScenarioSpec(
        model="gpt3-7b", system="neupims", layers_resident=2,
        fidelity="analytic",
        traffic=TrafficSpec.poisson(
            rate_per_kcycle=0.02, horizon_cycles=_CHAOS_ARRIVAL_HORIZON,
            seed=11, max_requests=requests),
        serving=ServingSpec(
            max_batch_size=8,
            kv_capacity_bytes=1 << 27,
            deadline_cycles=3e7,
            max_retries=1,
            retry_backoff_cycles=2e5,
            shed_wait_cycles=4e7,
            grouping=grouping),
        faults="seeded",
        faults_options={"seed": fault_seed,
                        "horizon": _CHAOS_FAULT_HORIZON,
                        "degrades": 1, "stalls": 1, "kv_faults": 1,
                        "aborts": 1},
        label=f"chaos-{fault_seed}-{grouping}")


def verify_session(session: Any) -> List[str]:
    """Check conservation/monotonicity invariants on a finished session.

    Returns a list of human-readable violations (empty = all hold).
    """
    problems: List[str] = []
    result = session.result()
    arrival_ids = sorted(r.request_id for r in session.arrivals)
    outcome_ids = sorted(r["request_id"] for r in result.requests)
    if arrival_ids != outcome_ids:
        missing = set(arrival_ids) - set(outcome_ids)
        extra = set(outcome_ids) - set(arrival_ids)
        problems.append(
            f"conservation: arrivals != outcomes "
            f"(missing={sorted(missing)}, extra={sorted(extra)})")
    if len(outcome_ids) != len(set(outcome_ids)):
        problems.append("conservation: duplicate request outcome")
    for record in result.requests:
        if record["status"] not in TERMINAL_STATUSES:
            problems.append(
                f"conservation: request {record['request_id']} has "
                f"non-terminal status {record['status']!r}")
    if len(session.pool) != 0:
        problems.append(
            f"conservation: pool not drained ({len(session.pool)} left)")
    previous_end = float("-inf")
    for record in result.records:
        if record["latency"] <= 0:
            problems.append(
                f"monotonicity: iteration {record['index']} has "
                f"non-positive latency {record['latency']}")
        if record["start_time"] < previous_end - 1e-9:
            problems.append(
                f"monotonicity: iteration {record['index']} starts at "
                f"{record['start_time']} before previous end "
                f"{previous_end}")
        previous_end = record["start_time"] + record["latency"]
    try:
        session.latency_tracker.report()
    except ValueError as exc:
        problems.append(f"monotonicity: latency report rejected: {exc}")
    for index, allocator in enumerate(session.allocators or ()):
        if not allocator.ledger_consistent():
            problems.append(f"kv: channel {index} ledger inconsistent")
        if allocator.used_blocks:
            problems.append(
                f"kv: channel {index} leaked {allocator.used_blocks} "
                f"blocks after drain")
    summary = result.resilience
    if summary:
        terminal_total = sum(
            summary.get(key, 0)
            for key in ("completed", "timed_out", "shed", "aborted"))
        if terminal_total != len(arrival_ids):
            problems.append(
                f"conservation: terminal counts sum to {terminal_total} "
                f"for {len(arrival_ids)} arrivals")
    return problems


def run_chaos(seeds: int = 3, *, requests: int = 16) -> Dict[str, Any]:
    """Sweep ``seeds`` fault seeds across grouping and consumption modes.

    For every seed, runs the chaos scenario under grouping ``auto`` and
    ``off``, each consumed both batch (``session.run()``) and streamed
    (``session.stream()``), verifies the invariants on each cell, and
    checks the four ``RunResult`` payloads are bit-identical.  Each cell
    counts its grouped windows and the iterations they committed (from
    ``WindowCommitted`` events); ``auto`` cells that commit none are a
    violation, so the identity check cannot hold vacuously.  Returns a
    JSON-ready report with per-cell summaries and all violations.
    """
    from repro.api.session import Session
    from repro.serving.events import WindowCommitted
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    cells: List[Dict[str, Any]] = []
    violations: List[str] = []
    for fault_seed in range(seeds):
        payloads: Dict[str, Dict[str, Any]] = {}
        for grouping in ("auto", "off"):
            for mode in ("batch", "stream"):
                spec = chaos_spec(fault_seed, requests=requests,
                                  grouping=grouping)
                session = Session(spec)
                windows: List[int] = []
                session.events.subscribe(
                    WindowCommitted,
                    lambda event, log=windows: log.append(event.iterations))
                if mode == "stream":
                    for _ in session.stream():
                        pass
                    result = session.result()
                else:
                    result = session.run()
                for problem in verify_session(session):
                    violations.append(
                        f"seed {fault_seed} {grouping}/{mode}: {problem}")
                summary = result.resilience
                cells.append({
                    "fault_seed": fault_seed,
                    "grouping": grouping,
                    "mode": mode,
                    "requests": len(session.arrivals),
                    "iterations": result.iterations,
                    "completed": summary.get("completed", 0),
                    "timed_out": summary.get("timed_out", 0),
                    "shed": summary.get("shed", 0),
                    "aborted": summary.get("aborted", 0),
                    "retries": summary.get("retries", 0),
                    "faults": summary.get("faults", 0),
                    "windows": len(windows),
                    "grouped_iterations": sum(windows),
                })
                payloads[f"{grouping}/{mode}"] = result.to_dict()
        reference = payloads["auto/batch"]
        for key, payload in payloads.items():
            if payload != reference:
                violations.append(
                    f"seed {fault_seed}: records diverge between "
                    f"auto/batch and {key}")
    if not any(cell["grouped_iterations"] for cell in cells
               if cell["grouping"] == "auto"):
        violations.append("vacuous: grouping auto cells committed no "
                          "grouped iteration")
    return {
        "seeds": seeds,
        "requests_per_cell": requests,
        "cells": cells,
        "violations": violations,
        "invariants": [
            "every arrival retires exactly once with terminal status",
            "pool drained, KV ledgers consistent with zero leaked blocks",
            "iteration records and latency timestamps monotone",
            "records bit-identical across grouping auto|off and "
            "stream|batch for fixed (spec, fault_seed)",
            "grouping auto cells commit grouped iterations",
        ],
    }


# ----------------------------------------------------------------------
# Fleet tier.
# ----------------------------------------------------------------------

#: Node-fault horizon for fleet chaos — the fleet makespan is ~6e7
#: cycles, so kills inside 2e7 strike while requests are live.
_FLEET_FAULT_HORIZON = 2e7

#: Routing policies cycled across fault seeds for coverage.
_FLEET_POLICIES = ("round-robin", "least-loaded", "p2c", "affinity")


def fleet_chaos_spec(fault_seed: int, *, nodes: int = 3,
                     requests: int = 24, faults: str = "node-kill") -> Any:
    """Build one fleet chaos cell for ``fault_seed``.

    A homogeneous NeuPIMs fleet under one Poisson stream, each node
    carrying the single-session chaos pressure knobs (tight KV budget,
    deadlines, bounded retry, shedding).  The routing policy cycles with
    the seed for coverage; ``faults="node-kill"`` arms the seeded
    node-down schedule (``"none"`` runs the same fleet fault-free).
    """
    from repro.api.spec import ScenarioSpec, ServingSpec, TrafficSpec
    from repro.cluster.spec import FleetSpec
    if faults not in ("node-kill", "none"):
        raise ValueError(f"unknown fleet fault mode {faults!r}; "
                         f"known: ('node-kill', 'none')")
    node = ScenarioSpec(
        model="gpt3-7b", system="neupims", layers_resident=2,
        fidelity="analytic",
        serving=ServingSpec(
            max_batch_size=8,
            kv_capacity_bytes=1 << 27,
            deadline_cycles=3e7,
            max_retries=1,
            retry_backoff_cycles=2e5,
            shed_wait_cycles=4e7))
    policy = _FLEET_POLICIES[fault_seed % len(_FLEET_POLICIES)]
    policy_options = {"seed": fault_seed} if policy == "p2c" else {}
    fault_kwargs: Dict[str, Any] = {}
    if faults == "node-kill":
        fault_kwargs = {
            "fault_seed": fault_seed,
            "fault_options": {"horizon": _FLEET_FAULT_HORIZON, "downs": 1}}
    return FleetSpec.homogeneous(
        node, nodes,
        traffic=TrafficSpec.poisson(
            rate_per_kcycle=0.02, horizon_cycles=_CHAOS_ARRIVAL_HORIZON,
            seed=11, max_requests=requests),
        policy=policy, policy_options=policy_options,
        label=f"fleet-chaos-{fault_seed}-{faults}",
        **fault_kwargs)


def verify_fleet(router: Any) -> List[str]:
    """Check fleet conservation invariants on a finished router.

    Returns human-readable violations (empty = all hold): every stream
    request carries exactly one terminal status across all failovers,
    the ledger balances, node pools drain, per-node KV ledgers stay
    consistent with zero leaked blocks and iteration records stay
    monotone on every node.
    """
    problems: List[str] = []
    result = router.run()
    stream_ids = sorted(r.request_id for r in router.stream)
    status_ids = sorted(s["request_id"] for s in result.statuses)
    if stream_ids != status_ids:
        missing = set(stream_ids) - set(status_ids)
        extra = set(status_ids) - set(stream_ids)
        problems.append(
            f"conservation: stream != statuses "
            f"(missing={sorted(missing)}, extra={sorted(extra)})")
    if len(status_ids) != len(set(status_ids)):
        problems.append("conservation: duplicate request status")
    for entry in result.statuses:
        if entry["status"] not in TERMINAL_STATUSES:
            problems.append(
                f"conservation: request {entry['request_id']} has "
                f"non-terminal status {entry['status']!r}")
    if not result.conserved():
        problems.append(f"conservation: ledger unbalanced {result.ledger}")
    for handle in router.handles:
        session = handle.session
        label = f"node {handle.index}"
        if len(session.pool) != 0:
            problems.append(f"{label}: pool not drained "
                            f"({len(session.pool)} left)")
        for index, allocator in enumerate(session.allocators or ()):
            if not allocator.ledger_consistent():
                problems.append(
                    f"{label}: channel {index} ledger inconsistent")
            if allocator.used_blocks:
                problems.append(
                    f"{label}: channel {index} leaked "
                    f"{allocator.used_blocks} blocks after drain")
        previous_end = float("-inf")
        node_result = session.result()
        for record in node_result.records:
            if record["latency"] <= 0:
                problems.append(
                    f"{label}: iteration {record['index']} has "
                    f"non-positive latency {record['latency']}")
            if record["start_time"] < previous_end - 1e-9:
                problems.append(
                    f"{label}: iteration {record['index']} starts at "
                    f"{record['start_time']} before previous end "
                    f"{previous_end}")
            previous_end = record["start_time"] + record["latency"]
        try:
            session.latency_tracker.report()
        except ValueError as exc:
            problems.append(f"{label}: latency report rejected: {exc}")
    return problems


def run_fleet_chaos(seeds: int = 3, *, nodes: int = 3, requests: int = 24,
                    faults: str = "node-kill") -> Dict[str, Any]:
    """Sweep seeded node-kill schedules against a routed fleet.

    For every fault seed, runs the fleet cell twice — plain batch
    stepping, then step-chunked (``max_group_steps=1``) with fleet and
    node event observers attached — verifies the conservation
    invariants on each, and checks the two
    :class:`~repro.cluster.result.FleetResult` payloads are
    bit-identical (group-commit chunking and live observers must not
    change outcomes).  Each sweep also pins the single-node equivalence
    anchor: a 1-node no-fault fleet whose node result must be
    bit-identical to running the node's spec through a plain
    :class:`~repro.api.session.Session`.  Returns a JSON-ready report.
    """
    from repro.api.session import Session
    from repro.cluster.result import run_fleet
    from repro.cluster.router import Router
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    cells: List[Dict[str, Any]] = []
    violations: List[str] = []
    for fault_seed in range(seeds):
        payloads: Dict[str, Dict[str, Any]] = {}
        for mode in ("batch", "stream"):
            fleet = fleet_chaos_spec(fault_seed, nodes=nodes,
                                     requests=requests, faults=faults)
            router = Router(fleet)
            observed: List[Any] = []
            if mode == "stream":
                router.max_group_steps = 1
                router.materialize()
                router.events.subscribe(None, observed.append)
                for handle in router.handles:
                    handle.session.events.subscribe(None, observed.append)
            result = router.run()
            for problem in verify_fleet(router):
                violations.append(f"seed {fault_seed} {mode}: {problem}")
            cells.append({
                "fault_seed": fault_seed,
                "policy": fleet.policy,
                "mode": mode,
                "faults": faults,
                "nodes": nodes,
                "events_observed": len(observed),
                **{key: result.ledger.get(key, 0)
                   for key in ("requests", "completed", "timed_out",
                               "shed", "aborted", "failed_over")},
            })
            payloads[mode] = result.to_dict()
        if payloads["stream"] != payloads["batch"]:
            violations.append(
                f"seed {fault_seed}: fleet payloads diverge between "
                f"batch and step-chunked stream runs")
        single = fleet_chaos_spec(fault_seed, nodes=1, requests=requests,
                                  faults="none")
        single_result = run_fleet(single)
        plain_spec = single.nodes[0].override(traffic=single.traffic)
        plain = Session(plain_spec).run()
        if single_result.nodes[0].to_dict() != plain.to_dict():
            violations.append(
                f"seed {fault_seed}: 1-node fleet result diverges from "
                f"plain Session run")
    return {
        "seeds": seeds,
        "nodes": nodes,
        "requests_per_cell": requests,
        "faults": faults,
        "cells": cells,
        "violations": violations,
        "invariants": [
            "no request lost: admitted == completed + timed_out + shed "
            "+ aborted across failovers",
            "node pools drained, KV ledgers consistent, zero leaked "
            "blocks on every node",
            "fleet payload bit-identical per (fleet spec, fault_seed) "
            "across batch and step-chunked/observed stepping",
            "1-node round-robin fleet == plain Session, bit-identical",
        ],
    }
