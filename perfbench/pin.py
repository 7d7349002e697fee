#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json``, the pinned simulated payloads.

Run from the repository root after a change that is *meant* to alter
simulated results::

    python3 perfbench/pin.py --seeds 20

It pins the tiny canary (seed 0) of every workload, which every
benchmark run replays first, and the full-size digest of seeds
``0 .. N-1``, which a run at one of those seeds checks its reference
pass against.  A change that only speeds the simulator up must leave
this file untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, digest  # noqa: E402


def pinned(workload, seed: int, size: str) -> str:
    stack = workload.prepare(seed, size)
    return digest(workload.payload(workload.execute(stack)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    pins = {
        "canary": {name: {"seed": 0, "digest": pinned(w, 0, "tiny")}
                   for name, w in WORKLOADS.items()},
        "full": {name: {str(seed): pinned(w, seed, "full")
                        for seed in range(args.seeds)}
                 for name, w in WORKLOADS.items()},
    }
    with open(HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
