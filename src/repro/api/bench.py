"""The large-batch serving benchmark behind ``python -m repro bench``.

One benchmark, three consumers:

* the CLI subcommand prints the ``BENCH`` JSON line and can compare the
  run against a committed baseline (CI fails on a >20% speedup
  regression);
* ``benchmarks/test_perf_regression.py`` asserts the grouped engine's
  speedup and record identity as part of the perf-regression suite;
* the JSON payload is uploaded as a CI artifact to seed the serving-scale
  perf trajectory.

The workload is a class-friendly replay trace: a large decode batch
whose input/output lengths cluster into a few buckets (production
traffic binned by prompt template / length bucket), so the batch
collapses into a handful of ``(channel, seq_len, remaining)``
equivalence classes.  Wall-clock numbers compare ``grouping="off"``
(per-request iterations) against ``grouping="auto"`` (group-commit
windows); the *simulated* metrics are required to be bit-identical, so
only the wall-clock ratio is machine-dependent.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.session import RunResult, Session
from repro.api.spec import ScenarioSpec, ServingSpec, TrafficSpec

#: Length buckets of the benchmark trace (tokens).  Few buckets keep the
#: class count far below the request count, which is the regime the
#: grouped engine targets: the batch collapses into at most
#: ``len(INPUT_BUCKETS) x num_channels`` MHA classes however large it is.
INPUT_BUCKETS = (128, 320)
OUTPUT_BUCKETS = (64, 96)


def bucketed_replay_triples(num_requests: int,
                            input_buckets=INPUT_BUCKETS,
                            output_buckets=OUTPUT_BUCKETS,
                            seed: int = 0) -> List[tuple]:
    """Deterministic ``(input_len, output_len, arrival)`` triples.

    Lengths cycle through the bucket grid in a seeded, interleaved order
    (no RNG dependency); all requests arrive at time zero, modelling a
    drained admission queue in front of a saturated decode batch.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    triples = []
    n_in, n_out = len(input_buckets), len(output_buckets)
    for index in range(num_requests):
        mixed = index * 2654435761 + seed * 97  # Knuth hash, deterministic
        input_len = input_buckets[mixed % n_in]
        output_len = output_buckets[(mixed // n_in) % n_out]
        triples.append((input_len, output_len, 0.0))
    return triples


def serving_bench_spec(num_requests: int = 1024,
                       grouping: str = "auto",
                       max_iterations: int = 1_000_000) -> ScenarioSpec:
    """The benchmark scenario at one grouping mode."""
    return ScenarioSpec(
        model="gpt3-7b",
        system="neupims",
        layers_resident=4,
        fidelity="analytic",
        traffic=TrafficSpec.replay(
            bucketed_replay_triples(num_requests)),
        serving=ServingSpec(max_batch_size=num_requests,
                            kv_capacity_bytes=1 << 30,
                            max_iterations=max_iterations,
                            grouping=grouping),
        label=f"serving-bench-{grouping}",
    )


def timed_call(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``(fn(), wall seconds)``, timed the way :mod:`timeit` times.

    The heap is collected first and the cyclic collector paused for the
    call, so a collection owed to garbage from earlier work (a test
    suite, a previous repeat) cannot land inside the measurement and
    skew a wall-clock ratio.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _run_mode(num_requests: int, grouping: str,
              max_iterations: int) -> tuple:
    session = Session(serving_bench_spec(num_requests, grouping,
                                         max_iterations))
    return timed_call(session.run)


def run_serving_bench(num_requests: int = 1024,
                      repeats: int = 3,
                      max_iterations: int = 1_000_000) -> Dict[str, Any]:
    """Run the benchmark; raises ``RuntimeError`` if records diverge.

    The speedup ratio below is gated in CI, and single wall-clock
    samples on shared runners are noise-prone, so the two modes run in
    ``max(2, repeats)`` interleaved rounds (one per-request run, then
    one grouped run) and ``speedup`` is the median over rounds of the
    per-round ratio: a shared machine drifts between speeds for seconds
    at a time, which the two runs of a round share and the ratio
    cancels.  The wall times reported are best-of.
    """
    baseline_result: Optional[RunResult] = None
    grouped_result: Optional[RunResult] = None
    off_seconds = auto_seconds = float("inf")
    ratios: List[float] = []
    for _ in range(max(2, repeats)):
        baseline_result, off = _run_mode(num_requests, "off",
                                         max_iterations)
        grouped_result, auto = _run_mode(num_requests, "auto",
                                         max_iterations)
        ratios.append(off / max(auto, 1e-9))
        off_seconds = min(off_seconds, off)
        auto_seconds = min(auto_seconds, auto)
    if grouped_result.to_dict() != baseline_result.to_dict():
        raise RuntimeError(
            "grouped serving run diverged from the per-request run "
            "(records or aggregates are not bit-identical)")
    iterations = baseline_result.iterations
    tokens = baseline_result.total_tokens
    speedup = statistics.median(ratios)
    return {
        "bench": "grouped_serving",
        "requests": num_requests,
        "iterations": iterations,
        "tokens": tokens,
        "sim_tokens_per_s": round(baseline_result.tokens_per_second, 3),
        "sim_time_ms": round(baseline_result.total_time_cycles / 1e6, 3),
        "wall_off_s": round(off_seconds, 3),
        "wall_auto_s": round(auto_seconds, 3),
        "us_per_iteration_off": round(off_seconds * 1e6
                                      / max(iterations, 1), 1),
        "us_per_iteration_auto": round(auto_seconds * 1e6
                                       / max(iterations, 1), 1),
        "speedup": round(speedup, 2),
        "records_identical": True,
    }


def compare_to_baseline(payload: Dict[str, Any],
                        baseline: Dict[str, Any],
                        tolerance: float = 0.2) -> List[str]:
    """Regression check against a committed baseline payload.

    Simulated metrics are deterministic and must match almost exactly;
    the wall-clock ``speedup`` is a same-machine ratio, comparable across
    runners, and may not regress by more than ``tolerance`` (default
    20%).  Returns a list of human-readable problems (empty = pass).
    """
    problems: List[str] = []
    for key in ("requests", "iterations", "tokens"):
        if key in baseline and payload.get(key) != baseline[key]:
            problems.append(f"{key}: expected {baseline[key]}, "
                            f"got {payload.get(key)}")
    for key in ("sim_tokens_per_s", "sim_time_ms"):
        if key in baseline:
            expected = float(baseline[key])
            actual = float(payload.get(key, 0.0))
            if abs(actual - expected) > 1e-6 * max(1.0, abs(expected)):
                problems.append(f"{key}: expected {expected}, got {actual}")
    if "speedup" in baseline:
        floor = float(baseline["speedup"]) * (1.0 - tolerance)
        if float(payload.get("speedup", 0.0)) < floor:
            problems.append(
                f"speedup regression: {payload.get('speedup')} < "
                f"{floor:.2f} ({(1 - tolerance):.0%} of baseline "
                f"{baseline['speedup']})")
    return problems
