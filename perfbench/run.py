#!/usr/bin/env python3
"""Layered simulator benchmark: host cost and simulated serving metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sharegpt-poisson --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another in this
process.  Every run first replays a tiny pinned canary of the workload
and checks its digest, then runs one reference pass (digest, exact
invariants, simulated metrics), then repeats timed passes until
``--seconds`` have elapsed; every pass must reproduce the reference
digest.  ``--trace 1`` replaces the timed tail with one traced pass and
reports the per-layer metrics instead of the end-to-end ones.

The report lines name every metric with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check
passed.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".bench_trace"

#: Set-ups timed per pass (``setup_s`` is their median over the run),
#: fewer once a pass's set-ups have taken ``SETUP_BUDGET_S``.
SETUP_REPEATS = 10
SETUP_BUDGET_S = 0.1
#: The speed probe's time on the reference host in its fast state; host
#: times are reported scaled to it (see :func:`probe`).
REFERENCE_PROBE_S = 0.0004
#: Bounds on timed passes per run.
MIN_PASSES, MAX_PASSES = 3, 200


def probe() -> float:
    """Time a fixed pure-Python loop (dict, int and float work), ~0.4 ms.

    The shared host's speed swings — ~2x bursts of 1-3 s, and drifts over
    tens of seconds that outlast a run — move raw timings by 20-50%.  The
    probe runs next to every timed chunk and set-up, and each is scaled
    by ``REFERENCE_PROBE_S`` over the probe's time there.  The loop is
    the benchmark's own code, so a simulator change cannot move it.
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    total = 0.0
    for i in range(2000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        total += key * 0.5
    return time.perf_counter() - start


def fastest_chunks(chunk_lists: List[List[float]]) -> float:
    """Sum over chunks of each chunk's fastest time across passes.

    Every pass cuts the same deterministic work into the same chunks, so
    chunk ``k`` is comparable across passes; keeping its fastest time
    drops the host's contention bursts.  Falls back to the fastest whole
    pass if the chunkings ever disagree.
    """
    lengths = {len(chunks) for chunks in chunk_lists}
    if len(lengths) != 1:
        return min(sum(chunks) for chunks in chunk_lists)
    return sum(min(column) for column in zip(*chunk_lists))


class Run:
    """One workload measured at one seed."""

    def __init__(self, workload, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.report: Dict[str, Any] = {}
        self.metrics: Dict[str, float] = {}
        self.digest = ""

    def _fail(self, problem: str) -> None:
        self.problems.append(f"{self.workload.name}: {problem}")

    def _pass(self, seed: int, size: str, observe: bool):
        """Prepare and execute one pass; returns (stack, result, observed)."""
        from workloads import Observed
        stack = self.workload.prepare(seed, size)
        observed = Observed()
        if observe:
            self.workload.observe(stack, observed)
        try:
            result = self.workload.execute(stack)
        finally:
            stack.undo()
        return stack, result, observed

    def canary(self, pins: Dict[str, Any]) -> None:
        """Replay the tiny pinned canary and compare its digest."""
        from workloads import digest
        pin = pins.get("canary", {}).get(self.workload.name)
        self.attempted += 1
        _, result, _ = self._pass(pin["seed"] if pin else 0, "tiny", False)
        found = digest(self.workload.payload(result))
        if pin is None or found != pin["digest"]:
            self.failed += 1
            self._fail(f"canary digest {found} does not match the pinned "
                       f"{pin['digest'] if pin else 'nothing'}")

    def reference(self, pins: Dict[str, Any]):
        """The observed reference pass: digest, invariants, sim metrics."""
        from workloads import digest
        self.attempted += 1
        stack, result, observed = self._pass(self.seed, self.size, True)
        self.digest = digest(self.workload.payload(result))
        problems = self.workload.check(stack, result, observed)
        if self.size == "tiny":
            canary = pins.get("canary", {}).get(self.workload.name, {})
            pinned = canary.get("digest") \
                if canary.get("seed") == self.seed else None
        else:
            pinned = pins.get("full", {}).get(self.workload.name, {}) \
                .get(str(self.seed))
        if pinned is not None and pinned != self.digest:
            problems.append(f"digest {self.digest} does not match the "
                            f"pinned {pinned}")
        if problems:
            self.failed += 1
            for problem in problems:
                self._fail(problem)
        self.report = {name: value for name, value in
                       self.workload.report(stack, result, observed).items()}
        return result, observed

    def timed(self, seconds: float):
        """Timed passes until ``seconds`` elapse; returns pass statistics."""
        from repro import perf
        from tracer import ChunkClock
        from workloads import digest
        deadline = time.perf_counter() + seconds
        setups: List[float] = []
        walls: List[float] = []
        raw_chunks: List[List[float]] = []
        scaled_chunks: List[List[float]] = []
        raw_setups: List[float] = []
        while len(walls) < MAX_PASSES:
            spent = 0.0
            # Start the set-ups and the pass from a collected heap, as a
            # fresh process would, not amid the last pass's garbage.
            gc.collect()
            for _ in range(SETUP_REPEATS):
                perf.invalidate()
                speed = probe()
                start = time.perf_counter()
                stack = self.workload.prepare(self.seed, self.size)
                raw_setups.append(time.perf_counter() - start)
                setups.append(raw_setups[-1] * REFERENCE_PROBE_S / speed)
                spent += raw_setups[-1]
                if spent >= SETUP_BUDGET_S:
                    break
            clock = ChunkClock(self.workload.chunk_every, probe)
            for owner, attr in self.workload.chunk_hooks(stack):
                clock.hook(owner, attr)
            gc.collect()
            clock.start()
            try:
                result = self.workload.execute(stack)
            finally:
                wall = clock.stop()
            self.attempted += 1
            found = digest(self.workload.payload(result))
            if found != self.digest:
                self.failed += 1
                self._fail(f"timed pass {len(walls)} digest {found} != "
                           f"reference {self.digest}")
            walls.append(wall)
            raw_chunks.append(clock.chunks)
            scaled_chunks.append(clock.scaled(REFERENCE_PROBE_S))
            if len(walls) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
        return setups, raw_setups, walls, raw_chunks, scaled_chunks

    def traced(self, untraced_wall: float) -> Dict[str, float]:
        """One traced pass; returns the per-layer metrics."""
        import layers
        from repro import perf
        from tracer import Tracer
        from workloads import Observed, digest
        tracer = Tracer()
        observed = Observed()
        perf.invalidate()
        layers.instrument_setup(tracer)
        try:
            with tracer.span("setup"):
                stack = self.workload.prepare(self.seed, self.size, tracer)
            self.workload.observe(stack, observed)
            layers.instrument(tracer, self.workload, stack)
            before = perf.cache_info()
            gc.collect()
            start = time.perf_counter()
            result = self.workload.execute(stack, tracer)
            traced_wall = time.perf_counter() - start
            after = perf.cache_info()
        finally:
            tracer.restore()
            if "stack" in locals():
                stack.undo()
        self.attempted += 1
        found = digest(self.workload.payload(result))
        if found != self.digest:
            self.failed += 1
            self._fail(f"traced pass digest {found} != reference "
                       f"{self.digest}: the wrappers changed the run")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_chrome_trace(
            str(TRACE_DIR / f"{self.workload.name}-seed{self.seed}.json"))
        return layers.per_layer_metrics(
            tracer, self.workload, stack, result, observed,
            (before, after), traced_wall, untraced_wall)

    def measure(self, seconds: float, trace: bool,
                pins: Dict[str, Any]) -> None:
        if self.size == "full":
            self.canary(pins)
        result, observed = self.reference(pins)
        units = self.workload.units(result, observed)
        iterations = self.workload.iterations(result)
        setups, raw_setups, walls, raw_chunks, scaled_chunks = self.timed(
            seconds / 2 if trace else seconds)
        wall = fastest_chunks(raw_chunks)
        scaled = fastest_chunks(scaled_chunks)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Raw host figures (fastest chunks, unscaled) for the report; the
        # reported metrics are the probe-scaled ones.
        host = {
            "wall_s": (wall, "s"),
            "wall_median_s": (statistics.median(walls), "s"),
            "setup_raw_s": (statistics.median(raw_setups), "s"),
            "host_slowdown": (wall / scaled, "ratio"),
        }
        if self.workload.unit == "token":
            host["wall_us_per_token"] = (wall * 1e6 / units, "us")
            host["wall_us_per_iteration"] = (wall * 1e6 / iterations, "us")
        else:
            host["wall_ns_per_dram_command"] = (wall * 1e9 / units, "ns")
        self.report = {**host, **self.report,
                       "timed_passes": (len(walls), "count")}
        if trace:
            self.metrics = self.traced(statistics.median(walls))
        else:
            self.metrics = {"host_us_per_unit": scaled * 1e6 / units,
                            "setup_s": statistics.median(setups),
                            "peak_rss_mb": peak_rss_mb}


def _print_report(run: Run, units: Dict[str, str]) -> None:
    print(f"== {run.workload.name} (seed {run.seed}, {run.size})")
    print(f"   digest {run.digest}")
    for name, (value, unit) in run.report.items():
        print(f"   {name:<32} {value:>16.6g} {unit}")
    if run.metrics:
        print("   -- reported metrics --")
        for name, value in run.metrics.items():
            print(f"   {name:<32} {value:>16.6g} {units.get(name, '')}")
    for problem in run.problems:
        print(f"   FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds of timed passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="'tiny' runs the canary-sized inputs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as handle:
        pins = json.load(handle)

    units = dict(layers.PER_LAYER)
    units.update({"host_us_per_unit": "us", "setup_s": "s",
                  "peak_rss_mb": "MB"})
    runs = []
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.size)
        run.measure(args.seconds, bool(args.trace), pins)
        _print_report(run, units)
        runs.append(run)

    if len(runs) == 1:
        metrics = runs[0].metrics
    else:
        metrics = {f"{run.workload.name}.{name}": value
                   for run in runs for name, value in run.metrics.items()}
    correct = not any(run.problems for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": units[name.split(
            ".", 1)[1] if len(runs) > 1 else name]}
            for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
