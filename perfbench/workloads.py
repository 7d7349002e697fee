"""The four benchmark workloads: inputs from a seed, runs, checks.

Every workload builds its simulator inputs here from ``--seed`` (replay
triples, scenario and fleet specs), so the simulator only ever sees the
generated inputs.  A workload object holds no run state; ``prepare``
returns a fresh :class:`Stack` for one pass.

* ``sharegpt-poisson`` — one node, open-loop Poisson ShareGPT traffic
  below saturation: many ``(channel, seq_len)`` classes, a batch
  boundary every few iterations.
* ``bucketed-waves`` — waves of bucketed-length requests, each arriving
  after the previous wave drained: the grouped engine's best case.
* ``fleet-failover`` — four nodes behind a least-loaded router with
  deadlines, retries and one seeded node kill: the per-request path on
  every node, plus ``cluster.router`` and ``faults``.
* ``cycle-refute`` — the analytic-vs-cycle refutation grid plus a cold
  calibration: the command-level DRAM/PIM simulation only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import perf
from repro.api.bench import bucketed_replay_triples
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, ServingSpec, TrafficSpec
from repro.cluster import FleetSpec, Router
from repro.counters.refute import run_refute
from repro.dram.controller import MemoryController
from repro.pim import engine as pim_engine
from repro.serving.paging import OutOfMemoryError
from repro.serving.trace import SHAREGPT, DatasetTrace, LengthDistribution


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON encoding (floats keep all digits)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw inside each of ``n`` equal quantile bands, shuffled.

    Stratified (Latin-hypercube) sampling: every seed draws from the same
    distribution, but the sample's shape barely moves between seeds — a
    plain i.i.d. sample of a heavy-tailed length model would make the
    host cost per token depend on how many extreme requests a seed drew.
    """
    bands = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(bands)
    return np.clip(bands, 1e-12, 1.0 - 1e-12)


def _lengths(dist: LengthDistribution, bands: np.ndarray) -> List[int]:
    """Inverse-CDF lengths of the clipped log-normal length model."""
    normal = NormalDist()
    raw = np.exp(dist.mu + dist.sigma * np.array(
        [normal.inv_cdf(float(p)) for p in bands]))
    return np.clip(np.rint(raw), dist.min_len, dist.max_len) \
        .astype(int).tolist()


def poisson_triples(seed: int, requests: int, rate_per_kcycle: float,
                    trace: DatasetTrace = SHAREGPT
                    ) -> List[Tuple[int, int, float]]:
    """Open-loop Poisson ``(input_len, output_len, arrival)`` triples.

    Exponential inter-arrival gaps at ``rate_per_kcycle`` arrivals per
    1000 simulated cycles and lengths from the dataset's length model,
    all stratified (see :func:`_strata`) and drawn from ``seed``.
    """
    rng = np.random.default_rng(seed)
    gaps = -np.log1p(-_strata(rng, requests)) * (1000.0 / rate_per_kcycle)
    arrivals = np.cumsum(gaps).tolist()
    inputs = _lengths(trace.input_dist, _strata(rng, requests))
    outputs = _lengths(trace.output_dist, _strata(rng, requests))
    return list(zip(inputs, outputs, arrivals))


def _generate(tracer, build: Callable[[], Any]) -> Any:
    """Run input generation, as a ``traffic.generate`` span when traced."""
    if tracer is None:
        return build()
    with tracer.span("traffic.generate"):
        return build()


@dataclass
class Stack:
    """One pass's materialized inputs and simulator objects."""

    #: the object whose ``execute`` runs the pass (session/router/None)
    target: Any = None
    #: request objects of the pass (for token accounting)
    requests: Sequence[Any] = ()
    #: per-node sessions (serving workloads); the untraced chunk clock
    #: counts their ``step`` calls
    sessions: List[Any] = field(default_factory=list)
    #: undoes module-level observer patches (see ``Workload.observe``)
    undo: Callable[[], None] = lambda: None


@dataclass
class Observed:
    """Counts gathered by the reference pass's light observers."""

    kv_growth_ooms: int = 0
    gemvs: int = 0
    dram_commands: int = 0
    dram_replayed: int = 0


class Workload:
    """Base: a named workload with seeded inputs and exact checks."""

    name = ""
    #: the simulated unit ``host_us_per_unit`` divides by
    unit = "token"
    #: ChunkClock granularity (hooked calls per chunk)
    chunk_every = 16

    def prepare(self, seed: int, size: str, tracer=None) -> Stack:
        raise NotImplementedError

    def execute(self, stack: Stack, tracer=None) -> Any:
        raise NotImplementedError

    def chunk_hooks(self, stack: Stack) -> List[Tuple[Any, str]]:
        """``(owner, attr)`` pairs the chunk clock counts calls of."""
        return [(session, "step") for session in stack.sessions]

    def payload(self, result: Any) -> Any:
        return result.to_dict()

    def units(self, result: Any, observed: "Observed") -> int:
        return result.total_tokens

    def iterations(self, result: Any) -> int:
        return result.iterations

    def check(self, stack: Stack, result: Any,
              observed: Observed) -> List[str]:
        raise NotImplementedError

    def observe(self, stack: Stack, observed: Observed) -> None:
        """Attach the reference pass's observers (KV growth OOMs)."""
        for session in stack.sessions:
            for allocator in session.allocators or ():
                _count_growth_ooms(allocator, observed)

    def report(self, stack: Stack, result: Any,
               observed: Observed) -> Dict[str, Tuple[float, str]]:
        """Simulated metrics, ``name -> (value, unit)``."""
        raise NotImplementedError


def _count_growth_ooms(allocator, observed: Observed) -> None:
    """Count KV growth failures: an OOM for a request already resident.

    Without a resilience runtime the scheduler ends such a request early
    (a silent truncation); with one it may retry instead.
    """
    allocate = allocator.allocate

    def counted(request_id, tokens):
        try:
            return allocate(request_id, tokens)
        except OutOfMemoryError:
            if request_id in allocator.resident_requests():
                observed.kv_growth_ooms += 1
            raise
    allocator.allocate = counted


def _serving_report(result, completed: int, requests: int,
                    observed: Observed) -> Dict[str, Tuple[float, str]]:
    latency = result.latency_ms
    failed = requests - completed + observed.kv_growth_ooms
    return {
        "sim_tokens_per_s": (result.tokens_per_second, "1/s"),
        "sim_ttft_p50_ms": (latency.get("ttft_p50_ms", 0.0), "ms"),
        "sim_ttft_p99_ms": (latency.get("ttft_p99_ms", 0.0), "ms"),
        "sim_tpot_p50_ms": (latency.get("tpot_p50_ms", 0.0), "ms"),
        "sim_tpot_p99_ms": (latency.get("tpot_p99_ms", 0.0), "ms"),
        "sim_latency_samples": (completed, "count"),
        "requests_failed_fraction": (failed / max(1, requests), "ratio"),
        "kv_truncated_requests": (observed.kv_growth_ooms, "count"),
    }


# ----------------------------------------------------------------------
# One-node serving workloads.
# ----------------------------------------------------------------------

class _SingleNode(Workload):
    """A workload driven through one :class:`Session`."""

    def spec(self, seed: int, size: str, tracer=None) -> ScenarioSpec:
        raise NotImplementedError

    def prepare(self, seed: int, size: str, tracer=None) -> Stack:
        session = Session(self.spec(seed, size, tracer))
        session.materialize()
        return Stack(target=session, requests=session.arrivals,
                     sessions=[session])

    def execute(self, stack: Stack, tracer=None):
        return stack.target.run()

    def _common_checks(self, stack: Stack, result) -> List[str]:
        problems = []
        expected = sum(r.output_len for r in stack.requests)
        generated = sum(r.generated for r in stack.requests)
        if generated != result.total_tokens:
            problems.append(f"tokens emitted {result.total_tokens} != "
                            f"tokens generated {generated}")
        if result.total_tokens != expected:
            problems.append(f"tokens emitted {result.total_tokens} != "
                            f"sum(output_len) {expected}")
        statuses = [r["status"] for r in result.requests]
        if len(statuses) != len(stack.requests) or \
                any(s != "completed" for s in statuses):
            problems.append("not every request completed")
        return problems

    def report(self, stack, result, observed):
        completed = sum(1 for r in result.requests
                        if r["status"] == "completed")
        metrics = _serving_report(result, completed, len(stack.requests),
                                  observed)
        metrics["sim_iterations"] = (result.iterations, "count")
        metrics["sim_tokens"] = (result.total_tokens, "count")
        return metrics


class ShareGptPoisson(_SingleNode):
    name = "sharegpt-poisson"
    #: arrivals per 1000 simulated cycles: below saturation (0.001
    #: peaks the batch near 190; 0.002 pins it at the 256 cap)
    RATE = 0.0012
    REQUESTS = {"full": 600, "tiny": 40}

    def spec(self, seed, size, tracer=None):
        triples = _generate(tracer, lambda: poisson_triples(
            seed, self.REQUESTS[size], self.RATE))
        return ScenarioSpec(
            model="gpt3-7b", system="neupims", layers_resident=4,
            fidelity="analytic", traffic=TrafficSpec.replay(triples),
            serving=ServingSpec(max_batch_size=256,
                                kv_capacity_bytes=1 << 30,
                                grouping="auto"),
            label=f"{self.name}-{size}-{seed}")

    def check(self, stack, result, observed):
        problems = self._common_checks(stack, result)
        if observed.kv_growth_ooms:
            problems.append(f"{observed.kv_growth_ooms} KV growth OOMs")
        return problems


class BucketedWaves(_SingleNode):
    name = "bucketed-waves"
    chunk_every = 4
    WAVES = {"full": 32, "tiny": 2}
    WAVE_REQUESTS = {"full": 1024, "tiny": 64}
    #: simulated cycles between wave arrivals; one 1024-request wave
    #: drains in ~1.7e8 cycles, so waves never overlap
    WAVE_GAP_CYCLES = 2.5e8
    #: per-channel KV budget: enough for a whole wave, so nothing is
    #: cut short (4096 requests at 1 GiB would be)
    KV_BYTES = 1 << 30

    def triples(self, seed: int, size: str) -> List[Tuple[int, int, float]]:
        waves, per_wave = self.WAVES[size], self.WAVE_REQUESTS[size]
        out = []
        for wave in range(waves):
            arrival = wave * self.WAVE_GAP_CYCLES
            for input_len, output_len, _ in bucketed_replay_triples(
                    per_wave, seed=seed * 1009 + wave):
                out.append((input_len, output_len, arrival))
        return out

    def spec(self, seed, size, tracer=None):
        triples = _generate(tracer, lambda: self.triples(seed, size))
        return ScenarioSpec(
            model="gpt3-7b", system="neupims", layers_resident=4,
            fidelity="analytic", traffic=TrafficSpec.replay(triples),
            serving=ServingSpec(max_batch_size=self.WAVE_REQUESTS[size],
                                kv_capacity_bytes=self.KV_BYTES,
                                grouping="auto"),
            label=f"{self.name}-{size}-{seed}")

    def check(self, stack, result, observed):
        problems = self._common_checks(stack, result)
        waves = len({r.arrival_time for r in stack.requests})
        longest = max(r.output_len for r in stack.requests)
        if result.iterations != waves * longest:
            problems.append(f"{result.iterations} iterations != {waves} "
                            f"waves x {longest}: waves overlapped")
        return problems


# ----------------------------------------------------------------------
# The fleet.
# ----------------------------------------------------------------------

class FleetFailover(Workload):
    name = "fleet-failover"
    chunk_every = 64
    RATE = 0.002
    REQUESTS = {"full": 400, "tiny": 40}

    #: the node-kill schedule is part of the workload, not of its
    #: traffic: the seed draws arrivals and lengths only
    FAULT_SEED = 5

    def fleet(self, seed: int, size: str, tracer=None) -> FleetSpec:
        requests = self.REQUESTS[size]
        triples = _generate(tracer, lambda: poisson_triples(
            seed, requests, self.RATE))
        node = ScenarioSpec(
            model="gpt3-7b", system="neupims", layers_resident=4,
            fidelity="analytic",
            serving=ServingSpec(max_batch_size=64,
                                kv_capacity_bytes=1 << 30,
                                deadline_cycles=4e8, max_retries=1,
                                retry_backoff_cycles=2e5))
        return FleetSpec(
            nodes=(node,) * 4, traffic=TrafficSpec.replay(triples),
            policy="least-loaded", fault_seed=self.FAULT_SEED,
            # The kill lands inside the arrival span.
            fault_options={"horizon": triples[-1][2], "downs": 1},
            label=f"{self.name}-{size}-{seed}")

    def prepare(self, seed, size, tracer=None):
        router = Router(self.fleet(seed, size, tracer))
        router.materialize()
        sessions = [handle.session for handle in router.handles]
        return Stack(target=router, requests=router.stream,
                     sessions=sessions)

    def execute(self, stack, tracer=None):
        return stack.target.run()

    def iterations(self, result):
        return sum(node.iterations for node in result.nodes)

    def check(self, stack, result, observed):
        problems = []
        if not result.conserved():
            problems.append(f"fleet ledger does not balance: "
                            f"{result.ledger}")
        if result.ledger.get("requests") != len(stack.requests):
            problems.append("ledger request count != stream length")
        generated = sum(r.generated for r in stack.requests)
        if generated != result.total_tokens:
            problems.append(f"tokens emitted {result.total_tokens} != "
                            f"tokens generated {generated}")
        return problems

    def report(self, stack, result, observed):
        completed = result.ledger.get("completed", 0)
        metrics = _serving_report(result, completed, len(stack.requests),
                                  observed)
        metrics["sim_iterations"] = (self.iterations(result), "count")
        metrics["sim_tokens"] = (result.total_tokens, "count")
        metrics["failed_over"] = (result.ledger.get("failed_over", 0),
                                  "count")
        metrics["timed_out"] = (result.ledger.get("timed_out", 0), "count")
        return metrics


# ----------------------------------------------------------------------
# The command-level tier.
# ----------------------------------------------------------------------

class CycleRefute(Workload):
    name = "cycle-refute"
    unit = "DRAM command"
    chunk_every = 64
    SEQ_LENS = {"full": None, "tiny": (128,)}

    def prepare(self, seed, size, tracer=None):
        # Set-up is the spec-to-stack cost a cycle-fidelity scenario
        # pays: a cold session materialization, which calibrates the
        # Algorithm-1 constants from the command-level model.
        perf.invalidate()
        session = Session(ScenarioSpec(
            model="gpt3-7b", system="neupims", fidelity="cycle",
            traffic=TrafficSpec.warmed(batch_size=64, seed=seed)))
        session.materialize()
        return Stack(target=(seed, self.SEQ_LENS[size]))

    def execute(self, stack, tracer=None):
        seed, seq_lens = stack.target
        perf.invalidate()
        if tracer is None:
            report = run_refute(seq_lens=seq_lens, seed=seed)
            latencies = pim_engine.calibrate()
        else:
            with tracer.span("counters.refute"):
                report = run_refute(seq_lens=seq_lens, seed=seed)
            with tracer.span("pim.calibrate"):
                latencies = pim_engine.calibrate()
        return {"refute": report,
                "calibration": [latencies.l_tile, latencies.l_gwrite]}

    def chunk_hooks(self, stack):
        return [(MemoryController, "step")]

    def payload(self, result):
        return result

    def observe(self, stack, observed):
        measure = pim_engine.measure_gemv_latency

        def counted(*args, **kwargs):
            latency, controller = measure(*args, **kwargs)
            observed.gemvs += 1
            observed.dram_commands += controller.replay.total
            observed.dram_replayed += controller.replay.replayed
            return latency, controller
        pim_engine.measure_gemv_latency = counted
        stack.undo = lambda: setattr(pim_engine, "measure_gemv_latency",
                                     measure)

    def units(self, result, observed):
        return observed.dram_commands

    def iterations(self, result):
        return 0

    def check(self, stack, result, observed):
        problems = []
        if not result["refute"]["passed"]:
            problems.append(f"refute grid failed: "
                            f"{result['refute']['violations']}")
        if observed.dram_commands <= 0:
            problems.append("no DRAM commands were simulated")
        return problems

    def report(self, stack, result, observed):
        worst = result["refute"]["worst"]
        return {
            "fidelity_max_drift": (max(w["drift"] for w in worst.values()),
                                   "ratio"),
            "refute_cells": (len(result["refute"]["cells"]), "count"),
            "sim_gemvs": (observed.gemvs, "count"),
            "sim_dram_commands": (observed.dram_commands, "count"),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ShareGptPoisson(), BucketedWaves(), FleetFailover(),
                        CycleRefute())
}
