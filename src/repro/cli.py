"""Command-line interface.

Subcommands::

    acme-repro generate-trace --cluster kalos --jobs 10000 --out t.csv
    acme-repro analyze t.csv
    acme-repro diagnose runtime.log
    acme-repro evalsched --nodes 4
    acme-repro checkpoint --model 123b --gpus 2048
    acme-repro report --jobs 6000
    acme-repro chaos --scenario smoke --seed 0
    acme-repro serve --scenario storage-storm --horizons 3 --selfcheck
    acme-repro loadtest --smoke
    acme-repro trace storage-storm --seed 0 --out trace.json
    acme-repro lint src --format json

(``python -m repro ...`` works identically.)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from repro.analysis.report import render_key_values, render_table


def _bundled_scenario_names() -> list[str]:
    from repro.chaos import BUNDLED_SCENARIOS

    return list(BUNDLED_SCENARIOS)


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1 (else a usage error)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a finite number above 0 (else a usage error)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}")
    return value


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from repro.workload.generator import TraceGenerator
    from repro.workload.spec import KALOS_SPEC, SEREN_SPEC

    spec = {"seren": SEREN_SPEC, "kalos": KALOS_SPEC}[args.cluster]
    trace = TraceGenerator(spec, seed=args.seed).generate(
        args.jobs, include_cpu_jobs=args.cpu_jobs)
    out = Path(args.out)
    if out.suffix == ".jsonl":
        trace.to_jsonl(out)
    else:
        trace.to_csv(out)
    print(f"wrote {len(trace)} jobs to {out}")
    return 0


def _load_trace(path: str):
    """The trace at ``path`` (JSONL by suffix, else CSV).

    None, after printing ``invalid trace <path>: <reason>``, when the
    file cannot be read or holds no GPU job.
    """
    from repro.workload.trace import Trace

    file_path = Path(path)
    load = Trace.from_jsonl if file_path.suffix == ".jsonl" else Trace.from_csv
    try:
        trace = load(file_path)
    except OSError as error:
        reason = error.strerror or str(error)
    except ValueError as error:
        reason = str(error)
    else:
        if trace.gpu_jobs():
            return trace
        reason = "no GPU jobs"
    print(f"invalid trace {path}: {reason}")
    return None


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    if trace is None:
        return 2
    count = trace.count_share_by_type()
    time_share = trace.gpu_time_share_by_type()
    rows = [{"type": job_type.value,
             "count_share": count.get(job_type, 0.0),
             "gpu_time_share": time_share.get(job_type, 0.0)}
            for job_type in count]
    print(render_table(rows, title=f"workload mix ({trace.cluster}, "
                                   f"{len(trace)} jobs)"))
    durations = trace.durations()
    print(render_key_values({
        "median duration (s)": float(np.median(durations)),
        "mean duration (s)": float(durations.mean()),
        "mean GPUs/job": trace.mean_gpu_demand(),
        "median GPU utilization":
            float(np.median(trace.utilizations())),
    }, title="headline statistics"))
    statuses = trace.status_counts()
    total = sum(statuses.values())
    print(render_key_values(
        {status.value: count / total
         for status, count in statuses.items()},
        title="final statuses (count share)"))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.diagnosis import DiagnosisSystem

    lines = Path(args.logfile).read_text(errors="replace").splitlines()
    system = DiagnosisSystem()
    diagnosis = system.diagnose(lines)
    print(render_key_values({
        "root cause": diagnosis.reason,
        "category": diagnosis.category.value,
        "recoverable by restart": diagnosis.recoverable,
        "diagnosis path": diagnosis.path,
        "confidence": diagnosis.confidence,
        "log compression ratio":
            diagnosis.compression.compression_ratio,
    }, title=f"diagnosis of {args.logfile}"))
    print(f"\nmitigation: {diagnosis.mitigation}")
    return 0 if diagnosis.reason != "Unknown" else 1


def _cmd_evalsched(args: argparse.Namespace) -> int:
    from repro.core.evalsched import CoordinatorConfig, TrialCoordinator
    from repro.evaluation import standard_catalog

    try:
        outcome = TrialCoordinator(CoordinatorConfig(
            n_nodes=args.nodes)).compare(standard_catalog(args.model_scale))
    except (ValueError, OverflowError) as error:
        # a scale that overflows a runtime, or the sum of them
        print(f"invalid override: --model-scale {args.model_scale:g}: "
              f"{error}")
        return 2
    print(render_key_values({
        "datasets": 63,
        "nodes": args.nodes,
        "baseline makespan (min)":
            outcome["baseline"].makespan / 60.0,
        "decoupled makespan (min)":
            outcome["decoupled"].makespan / 60.0,
        "speedup": outcome["speedup"],
    }, title="§6.2 evaluation round"))
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.cluster.storage import SharedStorage
    from repro.core.checkpoint import CheckpointCostModel
    from repro.training import model as models

    catalog = {"7b": models.MODEL_7B, "13b": models.MODEL_13B,
               "30b": models.MODEL_30B, "104b": models.MODEL_104B,
               "123b": models.MODEL_123B}
    config = catalog[args.model]
    storage = SharedStorage(backend_bandwidth=800e9,
                            node_nic_bandwidth=25e9)
    try:
        cost = CheckpointCostModel(storage).cost(config, args.gpus)
    except ValueError as error:
        print(f"invalid override: --gpus {args.gpus}: {error}")
        return 2
    print(render_key_values({
        "model": config.describe(),
        "model state (TB)": config.model_state_bytes / 1e12,
        "sync blocking (s)": cost.sync_blocking,
        "async blocking (s)": cost.async_blocking,
        "blocking reduction": cost.reduction,
        "async overhead @30min": cost.overhead_fraction(1800.0, True),
    }, title="§6.1 checkpoint cost"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.chaos import (BUNDLED_SCENARIOS, InvariantViolation,
                             run_scenario)

    scenario_name = args.scenario
    overrides = {}
    if args.network_faults is not None:
        # Accepts either a fault count ("--network-faults 4") or the
        # name of a network-centric bundled scenario to switch to.
        if args.network_faults in BUNDLED_SCENARIOS:
            scenario_name = args.network_faults
        else:
            try:
                overrides["n_network_faults"] = int(args.network_faults)
            except ValueError:
                print("--network-faults expects an integer or one of: "
                      + ", ".join(sorted(BUNDLED_SCENARIOS)))
                return 2
    scenario = BUNDLED_SCENARIOS[scenario_name]
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration_hours is not None:
        overrides["duration"] = args.duration_hours * 3600.0
    if args.faults is not None:
        overrides["n_faults"] = args.faults
    if args.storage_faults is not None:
        overrides["n_storage_faults"] = args.storage_faults
    if args.straggler_faults is not None:
        overrides["n_straggler_faults"] = args.straggler_faults
    if args.power_faults is not None:
        overrides["n_power_faults"] = args.power_faults
    if args.hot_spares is not None:
        overrides["hot_spares"] = args.hot_spares
    if overrides:
        try:
            scenario = replace(scenario, **overrides)
        except ValueError as error:
            print(f"invalid override: {error}")
            return 2
    try:
        result = run_scenario(scenario)
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        return 2
    if args.log:
        print(result.event_log_text())
        print()
    print(result.summary.render())
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({
            "summary": json.loads(result.summary.to_json()),
            "event_log": result.event_log_lines(),
        }, indent=2, sort_keys=True))
        print(f"\nwrote event log + summary to {args.json_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.chaos import BUNDLED_SCENARIOS, InvariantViolation
    from repro.service import ClusterService
    from repro.workload.streams import (EvalBurstConfig, EvalBurstStream,
                                        PoissonJobStream,
                                        PoissonStreamConfig)

    if args.horizons < 1:
        print(f"invalid override: --horizons must be >= 1, "
              f"got {args.horizons}")
        return 2
    if args.jobs_per_hour < 0 or args.eval_bursts_per_hour < 0:
        print("invalid override: arrival rates must be >= 0")
        return 2
    scenario = BUNDLED_SCENARIOS[args.scenario]
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    streams = []
    if args.jobs_per_hour > 0:
        streams.append(PoissonJobStream(PoissonStreamConfig(
            name="sft", seed=scenario.seed,
            rate_per_hour=args.jobs_per_hour)))
    if args.eval_bursts_per_hour > 0:
        streams.append(EvalBurstStream(EvalBurstConfig(
            name="evals", seed=scenario.seed,
            bursts_per_hour=args.eval_bursts_per_hour,
            batch_size=args.eval_batch)))
    service = ClusterService(scenario, streams=streams)
    horizon = scenario.duration / args.horizons
    rows = []
    try:
        for step in range(1, args.horizons + 1):
            until = (scenario.duration if step == args.horizons
                     else horizon * step)
            gauges = service.advance(until)
            rows.append(gauges.to_dict())
            print(render_key_values(gauges.to_dict(),
                                    title=f"horizon {step}/"
                                          f"{args.horizons}"))
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        return 2
    if args.selfcheck:
        # snapshot, restore, advance both services one extra horizon,
        # and require byte-identical digests — the CI smoke path
        generation = service.checkpoint()
        restored = ClusterService.restore(service.storage)
        extra = scenario.duration + horizon
        ahead = service.advance(extra)
        behind = restored.advance(extra)
        if ahead != behind:
            print("SELFCHECK FAILED: restored service diverged\n"
                  f"  original: {ahead.to_dict()}\n"
                  f"  restored: {behind.to_dict()}")
            return 2
        print(f"selfcheck ok: generation {generation} restored and "
              f"re-advanced to t={extra:.0f}s byte-identically "
              f"(engine digest {ahead.engine_digest})")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(rows, indent=2, sort_keys=True))
        print(f"\nwrote gauge timeline to {args.json_out}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.chaos import InvariantViolation
    from repro.service import POLICY_KINDS, render_report, run_loadtest

    if args.smoke:
        multipliers: list[float] = [1.0, 3.0]
        horizon_s: float | None = 2.0 * 3600.0
    else:
        try:
            multipliers = [float(part)
                           for part in args.multipliers.split(",")
                           if part]
        except ValueError:
            print("--multipliers expects a comma-separated list of "
                  "numbers, e.g. 1,2,3.5")
            return 2
        horizon_s = (args.horizon_hours * 3600.0
                     if args.horizon_hours is not None else None)
        if horizon_s == math.inf:
            print(f"invalid override: --horizon-hours "
                  f"{args.horizon_hours:g}: overflows in seconds")
            return 2
    if not multipliers or min(multipliers) <= 0:
        print("--multipliers expects positive values")
        return 2
    policy_kinds = [part for part in args.policies.split(",") if part]
    unknown = sorted(set(policy_kinds) - set(POLICY_KINDS))
    if unknown:
        print(f"unknown policies: {', '.join(unknown)} "
              f"(known: {', '.join(POLICY_KINDS)})")
        return 2
    try:
        report = run_loadtest(
            scenario_name=args.scenario, multipliers=multipliers,
            policy_kinds=policy_kinds, horizon_s=horizon_s,
            slots=args.slots, seed=args.seed)
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        return 2
    except ValueError as error:
        # the slot count sets the overload watermarks, which the
        # config validates
        if args.slots is None:
            raise
        print(f"invalid override: --slots {args.slots}: {error}")
        return 2
    print(render_report(report))
    if args.smoke:
        saturated = [cell for cell in report.cells
                     if cell.multiplier >= 3.0]
        turned_away = sum(cell.rejected + cell.shed
                          + cell.chains_deferred for cell in saturated)
        if not saturated or turned_away == 0:
            print("\nSMOKE FAILED: no admission pushback at >=3x "
                  "capacity — overload machinery appears inert")
            return 2
        print(f"\nsmoke ok: {turned_away} reject/shed/defer decisions "
              f"across {len(saturated)} saturated cells, reserved "
              f"work untouched (invariants 15-16 held)")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True))
        print(f"\nwrote load-test report to {args.json_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep

    try:
        seeds = [int(part) for part in args.seeds.split(",") if part]
    except ValueError:
        print("--seeds expects a comma-separated list of integers")
        return 2
    try:
        result = run_sweep(args.scenario, seeds, workers=args.workers)
    except ValueError as error:
        print(f"invalid sweep: {error}")
        return 2
    merged = result.merged()
    print(render_key_values({
        "scenario": args.scenario,
        "seeds": ",".join(str(seed) for seed in result.seeds),
        "workers": args.workers,
        "faults injected": merged.get("faults_injected", 0),
        "restarts": merged.get("restarts", 0),
        "pretrain iterations": merged.get("pretrain_iterations", 0),
        "digest": result.digest(),
    }, title=f"seed sweep ({len(result.runs)} runs)"))
    if args.json_out:
        Path(args.json_out).write_text(result.to_json())
        print(f"\nwrote merged sweep to {args.json_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.chaos import (BUNDLED_SCENARIOS, ChaosHarness,
                             InvariantViolation)
    from repro.obs import Tracer, chrome_trace_json, flame_summary

    scenario = BUNDLED_SCENARIOS[args.scenario]
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    tracer = Tracer()
    harness = ChaosHarness(scenario, tracer=tracer)
    try:
        harness.run()
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        return 2
    payload = chrome_trace_json(tracer, end_time=scenario.duration)
    out = Path(args.out)
    out.write_text(payload)
    print(flame_summary(tracer, end_time=scenario.duration))
    print(f"\nwrote Chrome-trace JSON ({len(payload)} bytes, "
          f"{len(tracer.spans)} spans) to {out}")
    print("open it in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import runner

    return runner.main(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workload.validate import calibration_report

    trace = _load_trace(args.trace)
    if trace is None:
        return 2
    report, passed = calibration_report(trace)
    print(report)
    return 0 if passed else 1


def _cmd_export_figures(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all

    written = export_all(args.outdir, n_jobs=args.jobs, seed=args.seed)
    print(f"wrote {len(written)} files to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="acme-repro",
        description="Reproduction of 'Characterization of LLM Development "
                    "in the Datacenter' (NSDI '24)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-trace",
                         help="generate a synthetic Acme job trace")
    gen.add_argument("--cluster", choices=("seren", "kalos"),
                     default="kalos")
    gen.add_argument("--jobs", type=_positive_int, default=10_000,
                     help="number of GPU jobs (at least 1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--cpu-jobs", action="store_true",
                     help="include CPU-only jobs")
    gen.add_argument("--out", default="trace.csv",
                     help=".csv or .jsonl output path")
    gen.set_defaults(func=_cmd_generate_trace)

    analyze = sub.add_parser("analyze",
                             help="characterize a trace file")
    analyze.add_argument("trace")
    analyze.set_defaults(func=_cmd_analyze)

    diagnose = sub.add_parser(
        "diagnose", help="root-cause a job's runtime log (§6.1)")
    diagnose.add_argument("logfile")
    diagnose.set_defaults(func=_cmd_diagnose)

    evalsched = sub.add_parser(
        "evalsched", help="run the §6.2 makespan experiment")
    evalsched.add_argument("--nodes", type=_positive_int, default=4)
    evalsched.add_argument("--model-scale", type=_positive_float,
                           default=1.0)
    evalsched.set_defaults(func=_cmd_evalsched)

    checkpoint = sub.add_parser(
        "checkpoint", help="§6.1 checkpoint blocking-time model")
    checkpoint.add_argument("--model", default="123b",
                            choices=("7b", "13b", "30b", "104b", "123b"))
    checkpoint.add_argument("--gpus", type=int, default=2048)
    checkpoint.set_defaults(func=_cmd_checkpoint)

    chaos = sub.add_parser(
        "chaos", help="run a live fault-injection scenario (§6.1)")
    chaos.add_argument("--scenario", default="smoke",
                       choices=sorted(_bundled_scenario_names()))
    chaos.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    chaos.add_argument("--duration-hours", type=float, default=None,
                       help="override the simulated horizon")
    chaos.add_argument("--faults", type=int, default=None,
                       help="override the number of injected faults")
    chaos.add_argument("--network-faults", default=None,
                       metavar="N|SCENARIO",
                       help="override the network fault count, or name "
                            "a network scenario (e.g. network-storm)")
    chaos.add_argument("--storage-faults", type=int, default=None,
                       help="override the number of storage faults")
    chaos.add_argument("--straggler-faults", type=int, default=None,
                       help="override the number of straggler / "
                            "silent-degrader faults")
    chaos.add_argument("--power-faults", type=int, default=None,
                       help="override the number of power-cap faults")
    chaos.add_argument("--hot-spares", type=int, default=None,
                       help="override the warm standby pool size")
    chaos.add_argument("--log", action="store_true",
                       help="print the full event log")
    chaos.add_argument("--json-out", default=None,
                       help="write event log + summary as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve", help="operate a long-lived cluster under streaming "
                      "load in incremental horizons (docs/SERVICE.md)")
    serve.add_argument("--scenario", default="smoke",
                       choices=sorted(_bundled_scenario_names()))
    serve.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    serve.add_argument("--horizons", type=int, default=3,
                       help="number of incremental advance() horizons")
    serve.add_argument("--jobs-per-hour", type=float, default=30.0,
                       help="Poisson job-arrival rate (0 disables)")
    serve.add_argument("--eval-bursts-per-hour", type=float,
                       default=2.0,
                       help="eval-burst arrival rate (0 disables)")
    serve.add_argument("--eval-batch", type=_positive_int, default=8,
                       help="trials per eval burst")
    serve.add_argument("--selfcheck", action="store_true",
                       help="snapshot, restore, advance again, and "
                            "compare digests (exit 2 on divergence)")
    serve.add_argument("--json-out", default=None,
                       help="write the gauge timeline as JSON")
    serve.set_defaults(func=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest", help="sweep arrival rates past capacity per "
                         "admission policy (docs/SERVICE.md)")
    loadtest.add_argument("--scenario", default="smoke",
                          choices=sorted(_bundled_scenario_names()))
    loadtest.add_argument("--multipliers", default="1,2,3,4",
                          help="comma-separated arrival-rate multiples "
                               "of analytic capacity")
    loadtest.add_argument("--policies",
                          default="accept-all,queue-depth,"
                                  "token-bucket,weighted-quota",
                          help="comma-separated admission policy kinds")
    loadtest.add_argument("--horizon-hours", type=_positive_float,
                          default=None,
                          help="simulated hours per cell (default: "
                               "the scenario's full duration)")
    loadtest.add_argument("--slots", type=int, default=None,
                          help="best-effort slot budget (sets the "
                               "overload watermarks)")
    loadtest.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed")
    loadtest.add_argument("--smoke", action="store_true",
                          help="CI profile: 1x and 3x over 2h; exit 2 "
                               "unless saturation produced pushback")
    loadtest.add_argument("--json-out", default=None,
                          help="write the report as JSON")
    loadtest.set_defaults(func=_cmd_loadtest)

    sweep = sub.add_parser(
        "sweep", help="run a chaos scenario under many seeds in "
                      "parallel; merge deterministically")
    sweep.add_argument("--scenario", default="smoke",
                       choices=sorted(_bundled_scenario_names()))
    sweep.add_argument("--seeds", default="0,1,2,3",
                       help="comma-separated seed list")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = serial)")
    sweep.add_argument("--json-out", default=None,
                       help="write the merged artifact as JSON")
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser(
        "trace", help="run a chaos scenario under the tracer; export "
                      "a Chrome-trace JSON (docs/OBSERVABILITY.md)")
    trace.add_argument("scenario", nargs="?", default="smoke",
                       choices=sorted(_bundled_scenario_names()),
                       help="bundled scenario to trace")
    trace.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace JSON output path")
    trace.set_defaults(func=_cmd_trace)

    lint = sub.add_parser(
        "lint", help="reprolint: determinism & sim-safety static "
                     "analysis (docs/LINT.md)")
    from repro.devtools.lint.runner import add_arguments
    add_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    validate = sub.add_parser(
        "validate", help="check a trace against the paper's anchors")
    validate.add_argument("trace")
    validate.set_defaults(func=_cmd_validate)

    export = sub.add_parser(
        "export-figures", help="render every figure as SVG + CSV")
    export.add_argument("--outdir", default="figures")
    export.add_argument("--jobs", type=_positive_int, default=6000,
                        help="GPU jobs per trace (at least 1)")
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=_cmd_export_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. `... | head`); exit quietly like any
        # well-behaved Unix filter instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
