#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's reported metrics.

Runs ``perfbench/run.py`` once per seed (one process each, one after
another) and prints, per metric, the median over the runs and the
distance between the first and third quartiles as a share of the
median — the steadiness figure each end-to-end metric's ``bound`` in
``BENCHMARK.json`` must exceed.  Run from the repository root::

    python3 perfbench/spread.py --workload sharegpt-poisson --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, timeout=600, check=False)
        last = done.stdout.strip().splitlines()[-1] if done.stdout else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {done.returncode})\n"
                  f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name}: median {median:.6g} "
              f"spread {spread:.4f} over {len(series)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
