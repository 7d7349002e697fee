#!/usr/bin/env python3
"""Inference-serving simulation: the full NeuPIMs system stack.

Drives the Orca-style iteration-level scheduler with streaming Poisson
arrivals from the Alpaca trace: requests enter the pool, are placed onto
PIM channels by greedy min-load bin packing (Algorithm 2), get paged KV
allocations (vLLM-style), and generate tokens iteration by iteration on
the NeuPIMs device until they complete.

The whole stack is declared by one ``ScenarioSpec`` and materialized by a
``Session`` (see ``repro.api``): pool, per-channel allocators, load
tracker and scheduler come from the spec, and the run returns the uniform
``RunResult``.  The numbers are identical to the pre-API hand wiring
(pinned by ``tests/test_api_session.py``).

Run:  python examples/serving_simulation.py
"""

from repro.analysis.report import format_table
from repro.api import ScenarioSpec, Session, TrafficSpec


def build_scenario() -> ScenarioSpec:
    """The declarative description of this serving experiment."""
    return ScenarioSpec(
        model="gpt3-7b",
        system="neupims",
        layers_resident=8,
        traffic=TrafficSpec.poisson(dataset="alpaca", rate_per_kcycle=0.02,
                                    horizon_cycles=2e7, seed=7,
                                    max_requests=48),
        # serving defaults: batch cap 16, paged KV (256 MB/channel),
        # live channel-load tracking for Algorithm-2 admission
    )


def main() -> None:
    session = Session(build_scenario()).materialize()
    print(f"submitting {len(session.arrivals)} streaming requests "
          f"(Alpaca lengths, Poisson arrivals)\n")

    # Peek at the pool table mid-run (Figure 7's request pool view).
    for _ in range(4):
        session.step()
    print("request pool after 4 iterations:")
    print(session.pool.format_table(limit=10))
    print("...")

    result = session.run()  # finishes the remaining iterations

    print()
    rows = [
        ("iterations executed", result.iterations),
        ("tokens generated", result.total_tokens),
        ("simulated time (ms)", round(result.total_time_cycles / 1e6, 2)),
        ("throughput (tokens/s)", round(result.tokens_per_second)),
        ("mean batch size", round(result.mean_batch_size, 1)),
        ("max batch size", result.max_batch_size),
    ]
    print(format_table(["metric", "value"], rows, title="serving summary"))


if __name__ == "__main__":
    main()
