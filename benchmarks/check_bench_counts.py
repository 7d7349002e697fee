#!/usr/bin/env python3
"""Gate the deterministic perfbench call counts on the newest BENCH file.

Run from the repository root::

    python3 benchmarks/check_bench_counts.py

It runs ``perfbench/run.py --workload all --seed 0 --trace 1``, reads the
last line of its output (one JSON object) and compares each workload's
traced call counts against the ``trace`` pass recorded in the newest
``BENCH_<n>.json`` at the repository root.  The counts are exact
functions of the code and the seed, so the gate has no noise: it fails
if the run is not ``correct``, if any count is higher than recorded, if
a serving workload's traced device iterations differ from its scheduler
iterations (every committed iteration must pass through the traced
device entry, so the counts cannot be lowered by routing around it), or
if a workload's ``grouping.grouped_share`` or ``dram.replayed_share`` is
lower than recorded (both shares are deterministic too: a falling
grouped share means iterations went back to the per-request path, a
falling replayed share means DRAM commands went back to per-command
stepping).
``--result FILE`` checks a saved output instead of running the
benchmark.  Exit code 0 means every count held.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Traced per-layer counts that may not grow between BENCH files.
COUNTS = ("kv.calls", "binpack.tracker_calls", "latency.calls",
          "pool.calls", "device.mha_classes_calls")

#: Traced per-layer shares that may not fall between BENCH files.
SHARES = ("grouping.grouped_share", "dram.replayed_share")

TRACE_COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "0",
                 "--trace", "1"]


def newest_bench(root: Path = ROOT) -> Path:
    """The ``BENCH_<n>.json`` with the largest ``n`` under ``root``."""
    numbered = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    if not numbered:
        raise FileNotFoundError(f"no BENCH_<n>.json under {root}")
    return max(numbered)[1]


def count_regressions(recorded: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Counts in ``measured`` above ``recorded`` (both JSON ``metrics``).

    Keys are ``<workload>.<metric>``; every recorded count must be
    present in the measured run.
    """
    problems = []
    for key in sorted(recorded):
        if key.split(".", 1)[1] not in COUNTS:
            continue
        if key not in measured:
            problems.append(f"{key}: missing from the run")
            continue
        old = recorded[key]["value"]
        new = measured[key]["value"]
        if new > old:
            problems.append(f"{key}: {new} > {old} recorded")
    return problems


def share_regressions(recorded: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Shares in ``measured`` below ``recorded`` (both JSON ``metrics``).

    A workload that runs no iterations reads 0 in both and passes.
    """
    problems = []
    for key in sorted(recorded):
        if key.split(".", 1)[1] not in SHARES:
            continue
        if key not in measured:
            problems.append(f"{key}: missing from the run")
            continue
        old = recorded[key]["value"]
        new = measured[key]["value"]
        if new < old:
            problems.append(f"{key}: {new} < {old} recorded")
    return problems


def iteration_mismatches(measured: Dict[str, Any]) -> List[str]:
    """Workloads whose ``device.iterations`` differ from their
    ``scheduler.iterations`` in ``measured`` (JSON ``metrics``)."""
    problems = []
    for key in sorted(measured):
        workload, _, metric = key.partition(".")
        if metric != "scheduler.iterations":
            continue
        scheduled = measured[key]["value"]
        device = measured.get(f"{workload}.device.iterations",
                              {"value": None})["value"]
        if device != scheduled:
            problems.append(f"{workload}: device.iterations {device} != "
                            f"scheduler.iterations {scheduled}")
    return problems


def run_trace() -> str:
    """Output of the traced ``--workload all`` pass (last line JSON)."""
    done = subprocess.run([sys.executable, *TRACE_COMMAND], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    return done.stdout


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path, default=None,
                        help="BENCH file to compare against "
                             "(default: the newest at the repo root)")
    parser.add_argument("--result", type=Path, default=None,
                        help="saved run output to check instead of "
                             "running the benchmark")
    args = parser.parse_args(argv)

    bench = args.bench or newest_bench()
    recorded = json.loads(bench.read_text())["trace"]["result"]["metrics"]
    output = (args.result.read_text() if args.result is not None
              else run_trace())
    lines = output.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = [] if result.get("correct") else \
        ["the traced run is not correct (digest or invariant failure)"]
    measured = result.get("metrics", {})
    problems += count_regressions(recorded, measured)
    problems += share_regressions(recorded, measured)
    problems += iteration_mismatches(measured)
    for problem in problems:
        print(f"count gate: {problem}", file=sys.stderr)
    metrics = [key.split(".", 1)[1] for key in recorded]
    counts = sum(1 for metric in metrics if metric in COUNTS)
    shares = sum(1 for metric in metrics if metric in SHARES)
    if not problems:
        print(f"count gate: {counts} counts at or below and {shares} "
              f"shares at or above {bench.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
