"""Per-layer instrumentation of live simulator objects, from outside.

:func:`instrument` wraps the public entry points of every layer a
workload's pass goes through; :func:`per_layer_metrics` folds the
tracer's aggregates into the named per-layer metrics of
``BENCHMARK.json``.  A layer that does not run in a workload reads 0.

The scheduler's ``executor`` and ``assign_channels`` attributes are
wrapped on the scheduler itself: they are bound when the scheduler is
built, so wrapping the device's methods alone would miss those call
sites.  ``Session.executor_wrapper`` is deliberately not used — setting
it stands the grouped path down and would change what is measured.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.dram.controller import MemoryController
from repro.perf import streams as perf_streams
from repro.pim import engine as pim_engine
from repro.registry import REGISTRY

POOL_METHODS = ("submit", "waiting", "running", "running_count",
                "waiting_count", "has_waiting_arrived", "has_finished",
                "finished", "retire_finished", "evict", "get")
KV_METHODS = ("allocate", "can_allocate", "release", "bulk_reserve",
              "set_allocation", "blocks_for")
PREEMPTION_METHODS = ("preempt", "restore_cost", "note_admission", "grow")
TRACKER_METHODS = ("add", "update", "remove", "sync_member")
LATENCY_METHODS = ("observe_running", "note_completion", "has_first_token",
                   "advance_clock", "sync_clock", "report")

#: Spans recorded while the stack is built rather than run.
SETUP_SPANS = ("setup", "traffic.factory", "traffic.generate")

#: Per-layer metric names and units, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traffic.gen_s", "s"), ("traffic.requests", "count"),
    ("binpack.assign_calls", "count"), ("binpack.assign_s", "s"),
    ("binpack.tracker_calls", "count"), ("binpack.tracker_s", "s"),
    ("device.iterations", "count"), ("device.plan_s", "s"),
    ("device.iteration_s", "s"), ("device.mha_classes_calls", "count"),
    ("device.mha_classes_s", "s"), ("device.gemm_s", "s"),
    ("device.mha_calls_per_iteration", "ratio"),
    ("grouping.windows", "count"), ("grouping.grouped_iterations", "count"),
    ("grouping.grouped_share", "ratio"),
    ("grouping.mean_window_iterations", "ratio"),
    ("grouping.prepare_s", "s"), ("grouping.run_s", "s"),
    ("grouping.sync_s", "s"),
    ("kv.calls", "count"), ("kv.s", "s"), ("pool.calls", "count"),
    ("pool.s", "s"), ("kv.truncated_requests", "count"),
    ("latency.calls", "count"), ("latency.s", "s"),
    ("scheduler.iterations", "count"), ("scheduler.self_s", "s"),
    ("session.self_s", "s"),
    ("router.node_steps", "count"), ("router.self_s", "s"),
    ("router.failed_over", "count"),
    ("router.iterations_per_node_step", "ratio"),
    ("resilience.retries", "count"), ("resilience.timeouts", "count"),
    ("dram.gemvs", "count"), ("dram.commands", "count"),
    ("dram.replayed_share", "ratio"), ("dram.controller_s", "s"),
    ("dram.drain_s", "s"), ("pim.stream_s", "s"),
    ("counters.refute_s", "s"), ("pim.calibrate_s", "s"),
    ("perf.gemv_streams.hit_ratio", "ratio"),
    ("perf.mha_estimates.hit_ratio", "ratio"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _traffic_span(kind: str, *args: Any, **kwargs: Any):
    return "traffic.factory" if kind == "traffic" else None


def instrument_setup(tracer) -> None:
    """Spans for stack construction: the registry's traffic factory."""
    tracer.wrap(REGISTRY, "create", _traffic_span)


def instrument_session(tracer, session) -> None:
    """Wrap every layer entry point reachable from one live session."""
    scheduler, device = session.scheduler, session.device
    tracer.wrap(scheduler, "run_iteration", "scheduler.run_iteration")
    tracer.wrap(scheduler, "executor", "executor")
    if scheduler.assign_channels is not None:
        tracer.wrap(scheduler, "assign_channels", "binpack.assign")
    tracer.wrap(device, "assign_channels", "binpack.assign")
    tracer.wrap(device, "iteration", "device.iteration")
    tracer.wrap(device, "prepare_class_plan", "device.plan")
    tracer.wrap(device, "iteration_from_plan", "device.iteration_from_plan")
    tracer.wrap(device, "mha_stage_classes", "device.mha_classes")
    tracer.wrap(device, "gemm_stage_cycles", "device.gemm")
    if session.load_tracker is not None:
        tracer.wrap_all(session.load_tracker, TRACKER_METHODS,
                        "binpack.tracker", raw=False)
    for allocator in session.allocators or ():
        tracer.wrap_all(allocator, KV_METHODS, "kv", raw=False)
    if session.resilience is not None and \
            session.resilience.preempting is not None:
        tracer.wrap_all(session.resilience.preempting, PREEMPTION_METHODS,
                        "kv", raw=False)
    tracer.wrap_all(session.pool, POOL_METHODS, "pool", raw=False)
    tracer.wrap_all(session.latency_tracker, LATENCY_METHODS, "latency",
                    raw=False)
    if scheduler.grouped is not None:
        tracer.wrap(scheduler.grouped, "prepare", "grouping.prepare")
        tracer.wrap(scheduler.grouped, "run", "grouping.run")
    tracer.wrap(scheduler, "sync_grouped", "grouping.sync")
    tracer.wrap_all(session, ("run", "result"), "session")


def instrument_dram(tracer) -> None:
    """Wrap the command-level tier's module and class entry points."""
    tracer.wrap(pim_engine, "measure_gemv_latency", "dram.measure_gemv")
    tracer.wrap(perf_streams, "interned_stream", "pim.stream")
    tracer.wrap(MemoryController, "drain_fast", "dram.drain")


def instrument(tracer, workload, stack) -> None:
    """Wrap the layers of one prepared pass."""
    if workload.name == "cycle-refute":
        instrument_dram(tracer)
        return
    if workload.name == "fleet-failover":
        tracer.wrap(stack.target, "run", "router.run")
    for session in stack.sessions:
        instrument_session(tracer, session)


def _hit_ratio(before: Dict[str, Dict[str, float]],
               after: Dict[str, Dict[str, float]], name: str) -> float:
    start = before.get(name, {"hits": 0, "misses": 0})
    end = after.get(name, {"hits": 0, "misses": 0})
    hits = end["hits"] - start["hits"]
    lookups = hits + end["misses"] - start["misses"]
    return hits / lookups if lookups else 0.0


def per_layer_metrics(tracer, workload, stack, result, observed,
                      caches: Tuple[dict, dict], traced_wall: float,
                      untraced_wall: float) -> Dict[str, float]:
    """Fold the traced pass into the named per-layer metrics."""
    t = tracer
    fleet = workload.name == "fleet-failover"
    iterations = workload.iterations(result)
    device_iterations = t.calls("device.iteration_from_plan")
    windows = t.calls("grouping.prepare")
    grouped = t.calls("grouping.run")
    node_steps = t.calls("scheduler.run_iteration") if fleet else 0
    attributed = sum(t.self_s(name) for name in t.stats
                     if name not in SETUP_SPANS)
    resilience = result.resilience if fleet else {}
    metrics = {
        "traffic.gen_s": t.self_s("traffic.factory")
        + t.self_s("traffic.generate"),
        "traffic.requests": len(stack.requests),
        "binpack.assign_calls": t.calls("binpack.assign"),
        "binpack.assign_s": t.self_s("binpack.assign"),
        "binpack.tracker_calls": t.calls("binpack.tracker"),
        "binpack.tracker_s": t.self_s("binpack.tracker"),
        "device.iterations": device_iterations,
        "device.plan_s": t.self_s("device.plan"),
        "device.iteration_s": t.self_s("device.iteration")
        + t.self_s("device.iteration_from_plan"),
        "device.mha_classes_calls": t.calls("device.mha_classes"),
        "device.mha_classes_s": t.self_s("device.mha_classes"),
        "device.gemm_s": t.self_s("device.gemm"),
        "device.mha_calls_per_iteration":
            t.calls("device.mha_classes") / device_iterations
            if device_iterations else 0.0,
        "grouping.windows": windows,
        "grouping.grouped_iterations": grouped,
        "grouping.grouped_share": grouped / iterations if iterations else 0.0,
        "grouping.mean_window_iterations":
            grouped / windows if windows else 0.0,
        "grouping.prepare_s": t.self_s("grouping.prepare"),
        "grouping.run_s": t.self_s("grouping.run"),
        "grouping.sync_s": t.self_s("grouping.sync"),
        "kv.calls": t.calls("kv"),
        "kv.s": t.self_s("kv"),
        "pool.calls": t.calls("pool"),
        "pool.s": t.self_s("pool"),
        "kv.truncated_requests": observed.kv_growth_ooms,
        "latency.calls": t.calls("latency"),
        "latency.s": t.self_s("latency") + t.self_s("executor"),
        "scheduler.iterations": iterations,
        "scheduler.self_s": t.self_s("scheduler.run_iteration"),
        "session.self_s": t.self_s("session"),
        "router.node_steps": node_steps,
        "router.self_s": t.self_s("router.run"),
        "router.failed_over": result.ledger.get("failed_over", 0)
        if fleet else 0,
        "router.iterations_per_node_step":
            iterations / node_steps if node_steps else 0.0,
        "resilience.retries": resilience.get("retries", 0),
        "resilience.timeouts": resilience.get("timeouts", 0),
        "dram.gemvs": observed.gemvs,
        "dram.commands": observed.dram_commands,
        "dram.replayed_share": observed.dram_replayed / observed.dram_commands
        if observed.dram_commands else 0.0,
        "dram.controller_s": t.self_s("dram.measure_gemv"),
        "dram.drain_s": t.self_s("dram.drain"),
        "pim.stream_s": t.self_s("pim.stream"),
        "counters.refute_s": t.self_s("counters.refute"),
        "pim.calibrate_s": t.self_s("pim.calibrate"),
        "perf.gemv_streams.hit_ratio": _hit_ratio(*caches, "gemv_streams"),
        "perf.mha_estimates.hit_ratio": _hit_ratio(*caches, "mha_estimates"),
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": max(0.0, traced_wall - attributed),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    return {name: metrics[name] for name, _ in PER_LAYER}
