"""The ``python -m repro`` command line over the scenario API.

Seven subcommands share one scenario vocabulary:

* ``run`` — execute a single :class:`~repro.api.ScenarioSpec` (built
  from flags or loaded from a JSON file) and print its summary;
* ``sweep`` — fan axis overrides of a base spec across workers through
  :func:`~repro.analysis.sweep.scenario_sweep` (records identical to a
  serial run for any ``--workers``);
* ``compare`` — run several systems on the same workload side by side;
* ``bench`` — the large-batch grouped-serving benchmark, with optional
  comparison against a committed baseline (the CI regression gate);
* ``chaos`` — seeded fault sweeps through the serving stack with hard
  conservation/determinism invariants (the CI chaos-smoke gate; see
  :mod:`repro.faults.chaos`); ``--fleet`` targets the cluster tier
  instead (seeded node kills against a routed fleet);
* ``refute`` — the cross-fidelity counter refutation harness
  (:mod:`repro.counters.refute`): sweep a scenario grid across both
  fidelity tiers, diff their typed counter vectors against per-counter
  tolerance bounds and print the worst-offending cells (the CI
  ``refute-smoke`` gate); the emitted profile drives
  ``fidelity="auto"``;
* ``components`` — list the :mod:`repro.registry` component table
  (systems, schedulers, traffic models, fault plans, fleet routers),
  including anything user code registered before invoking the CLI
  programmatically.

``--system`` and ``--scheduler`` accept any *registered* name — not
just the built-ins — so a module that ``@register``\\ s a policy and
then calls :func:`main` gets CLI sweeps over it for free.

Every subcommand accepts ``--json PATH`` to dump the uniform
result/record payloads for artifact pipelines (see the CI
examples-smoke and serving-bench jobs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.api.spec import (FIDELITIES, GROUPING_MODES, SYSTEMS,
                            ScenarioSpec, ServingSpec, TrafficSpec)


def _parse_axis_value(text: str) -> Any:
    """Parse one axis value: bool, int, float, or bare string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


def parse_axis(argument: str) -> Dict[str, List[Any]]:
    """Parse one ``--axis name=v1,v2,...`` argument."""
    if "=" not in argument:
        raise argparse.ArgumentTypeError(
            f"axis {argument!r} is not of the form name=v1,v2,...")
    name, _, values = argument.partition("=")
    parsed = [_parse_axis_value(v) for v in values.split(",") if v.strip()]
    if not name.strip() or not parsed:
        raise argparse.ArgumentTypeError(
            f"axis {argument!r} needs a name and at least one value")
    return {name.strip(): parsed}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand that builds a base spec."""
    parser.add_argument("--spec", metavar="FILE", default=None,
                        help="load the base ScenarioSpec from a JSON file "
                             "(flags below override its fields)")
    parser.add_argument("--model", default=None, help="model registry name")
    parser.add_argument("--system", default=None,
                        help="registered system name "
                             f"(built-ins: {', '.join(SYSTEMS)})")
    parser.add_argument("--scheduler", default=None,
                        help="registered scheduler name "
                             "(default: iteration)")
    parser.add_argument("--traffic", default=None,
                        help="registered traffic kind (built-ins: warmed, "
                             "poisson; replay is JSON-spec only)")
    parser.add_argument("--dataset", default=None,
                        help="dataset trace name (sharegpt/alpaca)")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--num-batches", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rate", type=float, default=None,
                        help="poisson arrivals per kilocycle")
    parser.add_argument("--horizon", type=float, default=None,
                        help="poisson horizon in cycles")
    parser.add_argument("--max-requests", type=int, default=None)
    parser.add_argument("--max-batch-size", type=int, default=None,
                        help="serving-loop batch cap")
    parser.add_argument("--grouping", default=None,
                        choices=GROUPING_MODES,
                        help="equivalence-class group-commit engine for "
                             "serving runs (default auto)")
    parser.add_argument("--faults", default=None,
                        help="registered fault-plan component for serving "
                             "runs (built-ins: none, seeded)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        dest="fault_seed",
                        help="seed for the fault plan (implies --faults "
                             "seeded when no component is named)")
    parser.add_argument("--tp", type=int, default=None)
    parser.add_argument("--pp", type=int, default=None)
    parser.add_argument("--layers-resident", type=int, default=None)
    parser.add_argument("--fidelity", default=None, choices=FIDELITIES)
    parser.add_argument("--json", metavar="FILE", default=None,
                        dest="json_path",
                        help="also dump the result payload as JSON")


def build_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Materialize the base ScenarioSpec from CLI flags (and --spec)."""
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
    else:
        spec = ScenarioSpec()
    overrides: Dict[str, Any] = {}
    for flag, field_name in (("model", "model"), ("system", "system"),
                             ("scheduler", "scheduler"),
                             ("tp", "tp"), ("pp", "pp"),
                             ("layers_resident", "layers_resident"),
                             ("fidelity", "fidelity")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    traffic = spec.traffic
    if args.traffic is not None and args.traffic != traffic.kind:
        if args.traffic == "warmed":
            traffic = TrafficSpec.warmed(dataset=traffic.dataset)
        elif args.traffic == "poisson":
            traffic = TrafficSpec.poisson(dataset=traffic.dataset)
        else:
            # Any other registered traffic kind (the spec layer
            # validates the name and lists alternatives on a miss).
            traffic = TrafficSpec(kind=args.traffic,
                                  dataset=traffic.dataset)
    traffic_updates: Dict[str, Any] = {}
    for flag, field_name in (("dataset", "dataset"),
                             ("batch_size", "batch_size"),
                             ("num_batches", "num_batches"),
                             ("seed", "seed"),
                             ("rate", "rate_per_kcycle"),
                             ("horizon", "horizon_cycles"),
                             ("max_requests", "max_requests")):
        value = getattr(args, flag)
        if value is not None:
            traffic_updates[field_name] = value
    if traffic_updates or traffic is not spec.traffic:
        from dataclasses import replace
        overrides["traffic"] = replace(traffic, **traffic_updates)
    serving_updates: Dict[str, Any] = {}
    if args.max_batch_size is not None:
        serving_updates["max_batch_size"] = args.max_batch_size
    if args.grouping is not None:
        serving_updates["grouping"] = args.grouping
    if serving_updates:
        from dataclasses import replace
        overrides["serving"] = replace(spec.serving, **serving_updates)
    if args.faults is not None:
        overrides["faults"] = args.faults
    if args.fault_seed is not None:
        if args.faults is None and spec.faults == "none":
            # A bare --fault-seed means "inject the seeded plan".
            overrides["faults"] = "seeded"
        overrides["faults_options"] = {**spec.options_for("faults"),
                                       "seed": args.fault_seed}
    return spec.override(**overrides) if overrides else spec


def _dump_json(path: Optional[str], payload: Any) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one scenario -> one RunResult summary."""
    from repro.api.session import Session
    spec = build_spec(args)
    result = Session(spec).run()
    print(format_table(["metric", "value"], result.summary_rows(),
                       title=f"{spec.display_name()} "
                             f"[{result.kind}, {result.fidelity}]"))
    _dump_json(args.json_path, {"spec": spec.to_dict(),
                                "result": result.to_dict()})
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: axis overrides fanned across workers."""
    from repro.analysis.sweep import SweepAxis, scenario_sweep
    base = build_spec(args)
    axes_map: Dict[str, List[Any]] = {}
    for axis in args.axis or []:
        axes_map.update(axis)
    if not axes_map:
        axes_map = {"batch_size": [base.traffic.batch_size]}
    axes = [SweepAxis(name, values) for name, values in axes_map.items()]
    sweep = scenario_sweep(
        base, axes, parallel=args.workers if args.workers > 1 else None)
    columns = sweep.axes + [m for m in sweep.records[0]
                            if m not in sweep.axes] if sweep.records else \
        sweep.axes
    print(format_table(columns, sweep.as_rows(columns),
                       title=f"scenario sweep over {base.display_name()} "
                             f"({args.workers} worker(s))"))
    _dump_json(args.json_path, {"spec": base.to_dict(), "axes": sweep.axes,
                                "records": sweep.records})
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: several systems on one workload."""
    from repro.api.session import run_scenarios
    if args.system is not None:
        raise ValueError("compare selects systems via --systems "
                         "(comma-separated); --system does not apply")
    base = build_spec(args)
    if base.fidelity == "auto":
        # "auto" resolves per system (cycle for PIM systems, analytic for
        # the rest); a side-by-side table must measure every system at
        # ONE fidelity, so pin the common denominator.
        base = base.override(fidelity="analytic")
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    specs = [base.override(system=system) for system in systems]
    results = run_scenarios(
        specs, parallel=args.workers if args.workers > 1 else None)
    rows = []
    for system, result in zip(systems, results):
        rows.append((
            system,
            round(result.tokens_per_second),
            round(result.mean_iteration_cycles / 1e3, 1),
            f"{result.utilization.get('npu', 0.0):.1%}",
            f"{result.utilization.get('pim', 0.0):.1%}",
        ))
    print(format_table(
        ["system", "tokens/s", "iteration (us)", "NPU util", "PIM util"],
        rows, title=f"system comparison on {base.resolve_model().name}"))
    _dump_json(args.json_path, {
        "spec": base.to_dict(),
        "results": {system: result.to_dict()
                    for system, result in zip(systems, results)},
    })
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: the large-batch grouped-serving benchmark.

    Prints one BENCH JSON line (the perf-trajectory seed format); with
    ``--baseline`` the run is compared against a committed payload and a
    >``--tolerance`` speedup regression (or any simulated-metric drift)
    fails the command — the CI contract.
    """
    from repro.api.bench import compare_to_baseline, run_serving_bench
    payload = run_serving_bench(num_requests=args.requests,
                                repeats=args.repeats)
    print(f"BENCH {json.dumps(payload, sort_keys=True)}")
    _dump_json(args.json_path, payload)
    if args.baseline is not None:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_to_baseline(payload, baseline,
                                       tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"bench regression: {problem}", file=sys.stderr)
            return 1
        print(f"bench within {args.tolerance:.0%} of baseline "
              f"{args.baseline}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: seeded fault sweeps with hard invariants.

    Runs the chaos harness (:mod:`repro.faults.chaos`): every fault seed
    is swept across grouping ``auto | off`` and ``batch | stream``
    consumption, conservation/monotonicity invariants are checked on
    each cell, the four result payloads must be bit-identical and the
    ``auto`` cells must commit grouped iterations.  Any
    violation prints to stderr and fails the command — the CI
    ``chaos-smoke`` contract.

    With ``--fleet`` the sweep targets the cluster tier instead
    (:func:`~repro.faults.chaos.run_fleet_chaos`): seeded node-kill
    schedules against a routed fleet, asserting no request is lost
    across failovers, payload identity across batch and step-chunked
    stepping, and the single-node ≡ plain-Session anchor.
    """
    if args.fleet:
        from repro.faults.chaos import run_fleet_chaos
        report = run_fleet_chaos(seeds=args.seeds, nodes=args.fleet_nodes,
                                 requests=args.requests,
                                 faults=args.fleet_faults)
        rows = [(cell["fault_seed"], cell["policy"], cell["mode"],
                 cell["requests"], cell["completed"], cell["timed_out"],
                 cell["shed"], cell["aborted"], cell["failed_over"])
                for cell in report["cells"]]
        print(format_table(
            ["seed", "policy", "mode", "requests", "completed",
             "timed_out", "shed", "aborted", "failed_over"],
            rows, title=f"fleet chaos harness ({args.fleet_nodes} nodes, "
                        f"{args.fleet_faults})"))
    else:
        from repro.faults.chaos import run_chaos
        report = run_chaos(seeds=args.seeds, requests=args.requests)
        rows = [(cell["fault_seed"], cell["grouping"], cell["mode"],
                 cell["requests"], cell["completed"], cell["timed_out"],
                 cell["shed"], cell["aborted"], cell["retries"],
                 cell["faults"],
                 f"{cell['grouped_iterations']}/{cell['iterations']}")
                for cell in report["cells"]]
        print(format_table(
            ["seed", "grouping", "mode", "requests", "completed",
             "timed_out", "shed", "aborted", "retries", "faults",
             "grouped"],
            rows, title="chaos harness (seeded fault sweeps)"))
    _dump_json(args.json_path, report)
    if report["violations"]:
        for violation in report["violations"]:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    print(f"chaos: {len(report['cells'])} cells across {args.seeds} "
          f"seed(s); all invariants hold")
    return 0


def cmd_refute(args: argparse.Namespace) -> int:
    """``repro refute``: cross-fidelity counter refutation.

    Sweeps the hardware-region x sequence-length grid through both
    fidelity tiers (:func:`repro.counters.refute.run_refute`), prints
    the per-counter worst-offending cells and every tolerance-bound
    violation; any violation fails the command — the CI
    ``refute-smoke`` contract.  The report (``--json``) embeds the
    :class:`~repro.counters.profile.FidelityProfile` the sweep implies,
    ready to feed ``fidelity="auto"`` via ``fidelity_options``.
    """
    from repro.counters.refute import run_refute
    seq_lens = None
    if args.seq_lens:
        seq_lens = tuple(int(s) for s in args.seq_lens.split(",")
                         if s.strip())
    report = run_refute(model=args.model or "gpt3-7b", seq_lens=seq_lens,
                        audit_fraction=args.audit_fraction,
                        seed=args.seed)
    rows = [(name, f"{entry['drift']:.3f}",
             f"{report['bounds'][name]:.3f}", entry["region"],
             entry["seq_len"], entry["op"])
            for name, entry in report["worst"].items()]
    print(format_table(
        ["counter", "worst drift", "bound", "region", "seq_len", "op"],
        rows, title=f"cross-fidelity refutation ({report['model']}, "
                    f"{len(report['cells'])} cells)"))
    _dump_json(args.json_path, report)
    if report["violations"]:
        for violation in report["violations"]:
            print(f"refuted: {violation['counter']} drift "
                  f"{violation['drift']:.3f} > bound "
                  f"{violation['bound']:.3f} at {violation['region']} "
                  f"seq_len={violation['seq_len']} {violation['op']}",
                  file=sys.stderr)
        return 1
    print(f"refute: {len(report['cells'])} cells within bounds; "
          f"profile default "
          f"{report['profile'].get('default', 'analytic')}")
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    """``repro components``: the registered component table."""
    from repro.registry import describe_components
    components = describe_components(args.kind)  # raises on bad kind
    rows = [(c.kind, c.name,
             ",".join(c.option_names) if c.option_names else "-",
             c.description) for c in components]
    print(format_table(["kind", "name", "options", "description"], rows,
                       title="registered components (repro.registry)"))
    _dump_json(args.json_path, [
        {"kind": c.kind, "name": c.name, "description": c.description,
         "options": list(c.option_names)} for c in components])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative NeuPIMs scenario runner (see repro.api).")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one scenario and print its RunResult summary")
    _add_scenario_flags(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep axis overrides of a base scenario")
    _add_scenario_flags(sweep_parser)
    sweep_parser.add_argument("--axis", action="append", type=parse_axis,
                              metavar="NAME=V1,V2,...",
                              help="sweep axis (repeatable)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="process-pool workers (records are "
                                   "identical to serial for any count)")
    sweep_parser.set_defaults(handler=cmd_sweep)

    compare_parser = subparsers.add_parser(
        "compare", help="compare systems on the same workload")
    _add_scenario_flags(compare_parser)
    compare_parser.add_argument(
        "--systems", default="gpu-only,npu-only,npu-pim,neupims",
        help="comma-separated system list")
    compare_parser.add_argument("--workers", type=int, default=1)
    compare_parser.set_defaults(handler=cmd_compare)

    bench_parser = subparsers.add_parser(
        "bench", help="run the large-batch grouped-serving benchmark")
    bench_parser.add_argument("--requests", type=int, default=1024,
                              help="decode batch size (default 1024)")
    bench_parser.add_argument("--repeats", type=int, default=3,
                              help="interleaved rounds of both modes (the "
                                   "speedup is their median ratio)")
    bench_parser.add_argument("--baseline", metavar="FILE", default=None,
                              help="committed baseline payload to compare "
                                   "against (non-zero exit on regression)")
    bench_parser.add_argument("--tolerance", type=float, default=0.2,
                              help="allowed fractional speedup regression "
                                   "vs the baseline (default 0.2)")
    bench_parser.add_argument("--json", metavar="FILE", default=None,
                              dest="json_path",
                              help="also dump the BENCH payload as JSON")
    bench_parser.set_defaults(handler=cmd_bench)

    chaos_parser = subparsers.add_parser(
        "chaos", help="sweep seeded fault scenarios and check "
                      "conservation invariants")
    chaos_parser.add_argument("--seeds", type=int, default=3,
                              help="fault seeds to sweep (default 3)")
    chaos_parser.add_argument("--requests", type=int, default=16,
                              help="requests per chaos cell (default 16)")
    chaos_parser.add_argument("--fleet", action="store_true",
                              help="sweep the cluster tier instead: "
                                   "seeded node-kill schedules against a "
                                   "routed fleet (repro.cluster)")
    chaos_parser.add_argument("--fleet-nodes", type=int, default=3,
                              dest="fleet_nodes",
                              help="fleet size for --fleet (default 3)")
    chaos_parser.add_argument("--fleet-faults", default="node-kill",
                              dest="fleet_faults",
                              choices=("node-kill", "none"),
                              help="fleet fault mode for --fleet "
                                   "(default node-kill)")
    chaos_parser.add_argument("--json", metavar="FILE", default=None,
                              dest="json_path",
                              help="also dump the invariant report as "
                                   "JSON")
    chaos_parser.set_defaults(handler=cmd_chaos)

    refute_parser = subparsers.add_parser(
        "refute", help="diff the fidelity tiers' typed counters against "
                       "tolerance bounds")
    refute_parser.add_argument("--model", default=None,
                               help="model registry name "
                                    "(default gpt3-7b)")
    refute_parser.add_argument("--seq-lens", default=None,
                               dest="seq_lens",
                               help="comma-separated sequence-length "
                                    "grid (default 128,512,1536)")
    refute_parser.add_argument("--audit-fraction", type=float, default=0.0,
                               dest="audit_fraction",
                               help="fraction of analytic regions the "
                                    "emitted profile re-checks at cycle "
                                    "fidelity (default 0)")
    refute_parser.add_argument("--seed", type=int, default=0,
                               help="seed for the profile's audit draws")
    refute_parser.add_argument("--json", metavar="FILE", default=None,
                               dest="json_path",
                               help="also dump the refutation report "
                                    "(with its FidelityProfile) as JSON")
    refute_parser.set_defaults(handler=cmd_refute)

    components_parser = subparsers.add_parser(
        "components", help="list the registered scenario components")
    components_parser.add_argument("--kind", default=None,
                                   help="restrict to one component kind "
                                        "(system/scheduler/traffic/"
                                        "faults/router)")
    components_parser.add_argument("--json", metavar="FILE", default=None,
                                   dest="json_path",
                                   help="also dump the table as JSON")
    components_parser.set_defaults(handler=cmd_components)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
