"""Built-in component registrations (systems, schedulers, traffic,
fault plans, fleet routers).

Importing :mod:`repro.registry` loads this module once, populating the
process-wide :data:`~repro.registry.REGISTRY` with every component the
repository ships.  All heavyweight imports happen *inside* the factory
bodies, so registering is cheap and the spec layer can validate names
without dragging in device models.

Factory calling conventions (the registration contract, DESIGN.md §8):

* ``system``: ``factory(model_spec, config, *, tp, layers_resident,
  estimator, **options) -> device`` — the device exposes
  ``iteration(batch) -> IterationResult`` plus the optional NeuPIMs
  surface (``assign_channels`` / ``attach_load_tracker`` /
  ``channel_pool`` / ``prepare_class_plan``) the serving stack probes
  for.  ``estimator`` is the cycle-fidelity Algorithm-1 estimator or
  ``None`` (the session picks it from the spec's ``fidelity``);
  factories for systems without a PIM estimator reject a non-``None``
  value.
* ``traffic``: ``factory(traffic_spec, **options) -> Workload`` — either
  warmed measurement ``batches`` or streaming ``arrivals``.
* ``scheduler``: ``factory(**wiring, **options) -> scheduler`` where the
  wiring kwargs are exactly :class:`~repro.serving.scheduler.
  IterationScheduler`'s constructor parameters (pool, executor,
  max_batch_size, allocators, assign_channels, load_tracker, grouped
  (``None`` for serving ``grouping="off"``), latency_tracker, events,
  plus resilience and latency_hook when the session has them).  The
  executor is the bare device call: the scheduler itself charges fault
  penalties and the latency hook and feeds the latency tracker, so
  custom policies usually subclass ``IterationScheduler`` and accept
  extra options.
* ``faults``: ``factory(serving_spec, channels, **options) ->
  FaultInjector or None`` — ``None`` (the ``"none"`` builtin) means no
  fault injection and the session skips the resilience runtime
  entirely; ``channels`` is the target system's PIM/DRAM channel count
  so seeded plans draw valid fault channels.
* ``router``: ``factory(num_nodes, **options) -> RoutingPolicy`` — the
  fleet dispatch policy of the cluster tier (:mod:`repro.cluster`);
  ``num_nodes`` is the fleet size.

The paged KV allocators, the fidelity tier and typed counters are not
components: the paper has one KV layout, two fidelity tiers and counters
that are on or off, so they are plain :class:`~repro.api.spec.
ScenarioSpec` fields the session wires directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Tuple

from repro.registry.core import ComponentRegistry

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.serving.request import InferenceRequest


@dataclass(frozen=True)
class Workload:
    """Materialized traffic: warmed batches *or* streaming arrivals.

    Exactly one of the two fields is populated.  ``batches`` drives the
    measurement loop (one generation iteration per batch, paper §8.1);
    ``arrivals`` feeds the request pool of the iteration-level serving
    scheduler.
    """

    batches: Tuple[Tuple["InferenceRequest", ...], ...] = ()
    arrivals: Tuple["InferenceRequest", ...] = ()

    @property
    def streaming(self) -> bool:
        """Whether this workload drives the serving scheduler."""
        return not self.batches


def register_builtins(registry: ComponentRegistry) -> None:
    """Populate ``registry`` with every component the repo ships."""
    _register_systems(registry)
    _register_traffic(registry)
    _register_schedulers(registry)
    _register_faults(registry)
    _register_routers(registry)


# ----------------------------------------------------------------------
# Systems.
# ----------------------------------------------------------------------

def _reject_estimator(system: str, estimator: Any) -> None:
    if estimator is not None:
        raise ValueError(f"system {system!r} has no PIM estimator to "
                         "calibrate; use fidelity='analytic'")


def _register_systems(registry: ComponentRegistry) -> None:
    def neupims(model_spec, config, *, tp, layers_resident=None,
                estimator=None, **options):
        """The paper's NPU+PIM accelerator with all NeuPIMs features."""
        from repro.core.device import NeuPimsDevice
        return NeuPimsDevice(model_spec, config, tp=tp,
                             layers_resident=layers_resident,
                             estimator=estimator, **options)

    def npu_only(model_spec, config, *, tp, layers_resident=None,
                 estimator=None, **options):
        """NPU-only baseline: MHA GEMVs on the systolic/vector units."""
        from repro.baselines.npu_only import NpuOnlyDevice
        _reject_estimator("npu-only", estimator)
        return NpuOnlyDevice(model_spec, config, tp=tp,
                             layers_resident=layers_resident, **options)

    def gpu_only(model_spec, config, *, tp, layers_resident=None,
                 estimator=None, **options):
        """GPU roofline baseline (A100-class; ignores the PIM config)."""
        from repro.baselines.gpu import GpuOnlyDevice
        _reject_estimator("gpu-only", estimator)
        return GpuOnlyDevice(model_spec, tp=tp,
                             layers_resident=layers_resident, **options)

    def transpim(model_spec, config, *, tp, layers_resident=None,
                 estimator=None, **options):
        """TransPIM-style all-in-memory baseline (TP degree fixed at 1)."""
        from repro.baselines.transpim import TransPimDevice
        _reject_estimator("transpim", estimator)
        return TransPimDevice(model_spec, config,
                              layers_resident=layers_resident, **options)

    registry.register("system", "neupims", neupims,
                      description="NeuPIMs NPU+PIM accelerator "
                                  "(all features)")
    registry.register("system", "npu-pim", neupims,
                      description="naive NPU+PIM baseline (features "
                                  "forced off by the spec)")
    registry.register("system", "npu-only", npu_only,
                      description="NPU-only baseline")
    registry.register("system", "gpu-only", gpu_only,
                      description="GPU roofline baseline (A100-class)")
    registry.register("system", "transpim", transpim,
                      description="TransPIM all-in-memory baseline")


# ----------------------------------------------------------------------
# Traffic models.
# ----------------------------------------------------------------------

def _register_traffic(registry: ComponentRegistry) -> None:
    def warmed(traffic, **options):
        """Warmed-batch measurement traffic (paper §8.1 methodology)."""
        from repro.serving.trace import sample_batches, warmed_batch
        if options:
            # sample_batches owns its per-batch start ids, so warmed
            # traffic has no tunables beyond the TrafficSpec fields.
            raise ValueError(f"unknown warmed traffic option(s) "
                             f"{sorted(options)}")
        trace = traffic.resolve_dataset()
        if traffic.num_batches == 1 and not traffic.sample_schedule:
            batches = [warmed_batch(trace, traffic.batch_size,
                                    seed=traffic.seed)]
        else:
            batches = sample_batches(trace, traffic.batch_size,
                                     traffic.num_batches,
                                     seed=traffic.seed)
        return Workload(batches=tuple(tuple(b) for b in batches))

    def poisson(traffic, **options):
        """Streaming Poisson arrivals over a fixed horizon."""
        from repro.serving.trace import poisson_arrivals
        arrivals = poisson_arrivals(
            traffic.resolve_dataset(), traffic.rate_per_kcycle,
            traffic.horizon_cycles, seed=traffic.seed, **options)
        if traffic.max_requests is not None:
            arrivals = arrivals[:traffic.max_requests]
        return Workload(arrivals=tuple(arrivals))

    def replay(traffic, **options):
        """Trace replay from explicit (input, output, arrival) triples."""
        from repro.serving.request import InferenceRequest
        start_id = int(options.pop("start_id", 0))
        if options:
            raise ValueError(f"unknown replay traffic option(s) "
                             f"{sorted(options)}")
        arrivals = tuple(
            InferenceRequest(request_id=start_id + i, input_len=inp,
                             output_len=out, arrival_time=arrival)
            for i, (inp, out, arrival) in
            enumerate(traffic.replay_requests))
        return Workload(arrivals=arrivals)

    def external(traffic, **options):
        """Streaming traffic with no arrivals of its own (router-fed)."""
        if options:
            raise ValueError(f"unknown external traffic option(s) "
                             f"{sorted(options)}")
        return Workload(arrivals=())

    registry.register("traffic", "warmed", warmed,
                      description="sampled warmed generation batches "
                                  "(measurement)")
    registry.register("traffic", "poisson", poisson,
                      option_names=("start_id",),
                      description="streaming Poisson arrivals")
    registry.register("traffic", "replay", replay,
                      option_names=("start_id",),
                      description="explicit trace replay")
    registry.register("traffic", "external", external,
                      description="empty streaming workload; requests "
                                  "arrive via pool.submit (fleet nodes)")


# ----------------------------------------------------------------------
# Schedulers.
# ----------------------------------------------------------------------

def _register_schedulers(registry: ComponentRegistry) -> None:
    def iteration(**kwargs):
        """Orca-style iteration-level scheduler (selective batching)."""
        from repro.serving.scheduler import IterationScheduler
        return IterationScheduler(**kwargs)

    registry.register("scheduler", "iteration", iteration,
                      description="iteration-level scheduling with "
                                  "selective batching (Orca-style)")


# ----------------------------------------------------------------------
# Fault injection.
# ----------------------------------------------------------------------

def _register_faults(registry: ComponentRegistry) -> None:
    def none(serving, channels, **options):
        """No fault injection — the zero-overhead default."""
        if options:
            raise ValueError(f"unknown faults option(s) "
                             f"{sorted(options)} for 'none'")
        return None

    def seeded(serving, channels, **options):
        """Seeded deterministic fault plan (repro.faults.plan)."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import make_fault_plan
        seed = int(options.pop("seed", 0))
        return FaultInjector(make_fault_plan(seed, channels, **options))

    registry.register("faults", "none", none,
                      description="no fault injection (default)")
    registry.register("faults", "seeded", seeded,
                      option_names=("seed", "horizon", "degrades",
                                    "stalls", "kv_faults", "aborts"),
                      description="seeded deterministic fault plan "
                                  "(channel degrade/stall, KV windows, "
                                  "request aborts)")


# ----------------------------------------------------------------------
# Fleet routing policies (the cluster tier).
# ----------------------------------------------------------------------

def _register_routers(registry: ComponentRegistry) -> None:
    def round_robin(num_nodes, **options):
        """Cycle dispatches over the healthy nodes in index order."""
        from repro.cluster.policies import RoundRobinPolicy
        if options:
            raise ValueError(f"unknown round-robin option(s) "
                             f"{sorted(options)}")
        return RoundRobinPolicy(num_nodes)

    def least_loaded(num_nodes, **options):
        """Send each request to the node with the lowest estimated load."""
        from repro.cluster.policies import LeastLoadedPolicy
        if options:
            raise ValueError(f"unknown least-loaded option(s) "
                             f"{sorted(options)}")
        return LeastLoadedPolicy(num_nodes)

    def affinity(num_nodes, **options):
        """Pin request id hashes to nodes (next healthy on failure)."""
        from repro.cluster.policies import SessionAffinityPolicy
        if options:
            raise ValueError(f"unknown affinity option(s) "
                             f"{sorted(options)}")
        return SessionAffinityPolicy(num_nodes)

    def power_of_two(num_nodes, **options):
        """Sample two healthy nodes per request, pick the less loaded."""
        from repro.cluster.policies import PowerOfTwoPolicy
        seed = int(options.pop("seed", 0))
        if options:
            raise ValueError(f"unknown power-of-two option(s) "
                             f"{sorted(options)}")
        return PowerOfTwoPolicy(num_nodes, seed=seed)

    registry.register("router", "round-robin", round_robin,
                      description="cycle over healthy nodes (default)")
    registry.register("router", "least-loaded", least_loaded,
                      description="lowest estimated load from "
                                  "ChannelLoadTracker rollups")
    registry.register("router", "affinity", affinity,
                      description="session affinity by request id "
                                  "(next healthy node on failover)")
    registry.register("router", "p2c", power_of_two,
                      option_names=("seed",),
                      description="power-of-two-choices with a seeded "
                                  "deterministic sampler")
