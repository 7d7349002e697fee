"""The extra-ablation grid: feature-flag crosses beyond Figure 13.

Figure 13 ablates one NeuPIMs technique at a time; this grid crosses the
three technique flags with batch size, which exposes their interactions
(e.g. sub-batch interleaving buys little in blocked mode, greedy bin
packing matters more at large batch).  The grid doubles as the canonical
workload for the sharded execution subsystem: every cell is a pure
function of picklable axis values, so :func:`run_ablation_grid` shards
record-for-record identically across :mod:`repro.exec` backends
(``benchmarks/test_perf_regression.py`` pins the parallel-vs-serial
equality and tracks the worker scaling).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.sweep import SweepAxis, SweepResult, run_sweep
from repro.core.config import NeuPimsConfig
from repro.exec.backends import ParallelSpec


def ablation_axes(batch_sizes=(64, 256),
                  datasets=("sharegpt",)) -> List[SweepAxis]:
    """The default extra-ablation grid axes."""
    return [
        SweepAxis("dual_row_buffer", [False, True]),
        SweepAxis("sub_batch_interleaving", [False, True]),
        SweepAxis("greedy_binpack", [False, True]),
        SweepAxis("batch_size", list(batch_sizes)),
        SweepAxis("dataset", list(datasets)),
    ]


def ablation_scenario(dual_row_buffer: bool,
                      sub_batch_interleaving: bool,
                      greedy_binpack: bool,
                      batch_size: int,
                      dataset: str = "sharegpt",
                      spec_name: str = "gpt3-7b",
                      tp: int = 4,
                      layers_resident: int = 8,
                      num_batches: int = 3,
                      seed: int = 0):
    """The :class:`~repro.api.ScenarioSpec` describing one grid cell."""
    from repro.api import ScenarioSpec, TrafficSpec
    config = NeuPimsConfig.ablation(
        dual_row_buffer=dual_row_buffer,
        sub_batch_interleaving=sub_batch_interleaving,
        greedy_binpack=greedy_binpack,
    )
    # sample_schedule keeps the grid's `sample_batches` seed schedule
    # for any num_batches, so every cell stays bit-identical to the
    # legacy loop.
    return ScenarioSpec(
        model=spec_name, system="neupims", config=config, tp=tp,
        layers_resident=layers_resident, fidelity="analytic",
        traffic=TrafficSpec.warmed(dataset=dataset, batch_size=batch_size,
                                   num_batches=num_batches, seed=seed,
                                   sample_schedule=True))


def evaluate_ablation_cell(dual_row_buffer: bool,
                           sub_batch_interleaving: bool,
                           greedy_binpack: bool,
                           batch_size: int,
                           dataset: str = "sharegpt",
                           spec_name: str = "gpt3-7b",
                           tp: int = 4,
                           layers_resident: int = 8,
                           num_batches: int = 3,
                           seed: int = 0) -> Dict[str, float]:
    """One grid cell: mean iteration throughput under the flag setting.

    Module-level and driven entirely by picklable arguments, so it can be
    dispatched to process-pool workers (including under ``spawn``).  The
    cell is declared as a :func:`ablation_scenario` spec and executed by
    a :class:`~repro.api.Session`; the numbers are identical to the
    legacy hand-wired device loop.
    """
    from repro.api import run_scenario
    result = run_scenario(ablation_scenario(
        dual_row_buffer, sub_batch_interleaving, greedy_binpack, batch_size,
        dataset=dataset, spec_name=spec_name, tp=tp,
        layers_resident=layers_resident, num_batches=num_batches, seed=seed))
    return {
        "tokens_per_second": result.tokens_per_second,
        "iteration_cycles": result.mean_iteration_cycles,
    }


def run_ablation_grid(axes: Optional[List[SweepAxis]] = None,
                      parallel: ParallelSpec = None,
                      num_batches: int = 3,
                      seed: int = 0) -> SweepResult:
    """Sweep the extra-ablation grid, optionally sharded across workers."""
    import functools
    evaluate = functools.partial(evaluate_ablation_cell,
                                 num_batches=num_batches, seed=seed)
    return run_sweep(axes if axes is not None else ablation_axes(),
                     evaluate, parallel=parallel)
