"""Persistent engine-throughput benchmark (events/sec, jobs/sec).

Measures the simulator's raw speed on three pinned scenarios and
compares it against the committed baseline in ``BENCH_engine.json`` at
the repo root:

* **idle-engine** — bare event loop: self-rescheduling timer chains,
  no simulation logic.  The ceiling every other number sits under.
* **chaos-storm** — the bundled ``storage-storm`` scenario end-to-end
  (scheduler + recovery + invariant checker on every event).
* **scheduler-replay** — a full synthetic-trace scheduler replay;
  reports jobs/sec alongside events/sec.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_engine.py --quick --check
    PYTHONPATH=src python benchmarks/bench_engine.py --update

``--check`` exits non-zero when any scenario's throughput falls more
than ``--tolerance`` (default 20%) below the committed baseline —
the CI bench-smoke job runs exactly that.  ``--update`` re-measures
and rewrites the baseline for the chosen profile, preserving the
other profile's numbers.

Also importable: each ``run_*`` function returns its metrics dict, and
``run_profile`` drives all three (pytest wraps them in
``tests/test_bench_engine_smoke.py``-style smoke checks via --quick).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_engine.json"
SCHEMA_VERSION = 1

#: pinned scenario sizes per profile
PROFILES: dict[str, dict[str, int]] = {
    "quick": {
        "idle_events": 200_000,
        "storm_repeats": 5,
        "replay_jobs": 20_000,
    },
    "full": {
        "idle_events": 2_000_000,
        "storm_repeats": 10,
        "replay_jobs": 100_000,
    },
}


def run_idle_engine(n_events: int) -> dict:
    """Bare event-loop throughput: timer chains, empty callbacks."""
    from repro.sim.engine import Engine

    engine = Engine()
    chains = 8
    per_chain = n_events // chains

    def make_chain(offset: float) -> None:
        remaining = [per_chain]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.call_after(1.0, tick)

        engine.call_at(offset, tick)

    for chain in range(chains):
        make_chain(offset=chain * 0.1)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    events = engine.events_processed
    assert events == per_chain * chains, "timer chains lost events"
    return {"events": events, "seconds": elapsed,
            "events_per_sec": events / elapsed}


def run_chaos_storm(repeats: int) -> dict:
    """The bundled storage-storm scenario, end to end."""
    from repro.chaos import BUNDLED_SCENARIOS, run_scenario
    from repro.chaos.harness import ChaosHarness

    scenario = BUNDLED_SCENARIOS["storage-storm"]
    run_scenario(scenario)  # warm imports and caches out of the timing
    events = 0
    start = time.perf_counter()
    for _ in range(repeats):
        harness = ChaosHarness(scenario)
        harness.run()
        events += harness.engine.events_processed
    elapsed = time.perf_counter() - start
    return {"events": events, "seconds": elapsed,
            "events_per_sec": events / elapsed}


def run_scheduler_replay(n_jobs: int) -> dict:
    """Full synthetic-trace scheduler replay (the Fig. 6 machinery)."""
    from dataclasses import replace

    from repro.scheduler.simulator import (SchedulerConfig,
                                           SchedulerSimulator)
    from repro.workload.generator import TraceGenerator
    from repro.workload.spec import KALOS_SPEC

    spec = replace(KALOS_SPEC,
                   span=KALOS_SPEC.span * n_jobs / KALOS_SPEC.real_gpu_jobs)
    trace = TraceGenerator(spec, seed=0).generate(n_jobs)
    jobs = list(trace.gpu_jobs())
    simulator = SchedulerSimulator(SchedulerConfig(
        total_gpus=spec.total_gpus, reserved_fraction=0.98))
    start = time.perf_counter()
    simulator.simulate(jobs)
    elapsed = time.perf_counter() - start
    events = simulator.engine.events_processed
    assert events >= len(jobs), "replay ended before admitting all jobs"
    return {"events": events, "seconds": elapsed,
            "events_per_sec": events / elapsed,
            "jobs": len(jobs), "jobs_per_sec": len(jobs) / elapsed}


def run_profile(profile: str) -> dict[str, dict]:
    """All three pinned scenarios at the given profile's sizes."""
    sizes = PROFILES[profile]
    return {
        "idle-engine": run_idle_engine(sizes["idle_events"]),
        "chaos-storm": run_chaos_storm(sizes["storm_repeats"]),
        "scheduler-replay": run_scheduler_replay(sizes["replay_jobs"]),
    }


def load_baseline(path: Path) -> dict:
    """The committed baseline, or an empty shell when absent."""
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "profiles": {}}
    return json.loads(path.read_text())


def check_regression(current: dict[str, dict], baseline: dict,
                     profile: str, tolerance: float) -> list[str]:
    """Throughput regressions beyond ``tolerance``, as messages."""
    committed = baseline.get("profiles", {}).get(profile, {})
    problems = []
    for name, metrics in current.items():
        pinned = committed.get(name)
        if pinned is None:
            problems.append(f"{name}: no committed baseline for "
                            f"profile {profile!r}")
            continue
        for key in ("events_per_sec", "jobs_per_sec"):
            if key not in pinned:
                continue
            floor = pinned[key] * (1.0 - tolerance)
            if metrics.get(key, 0.0) < floor:
                problems.append(
                    f"{name}: {key} {metrics.get(key, 0.0):,.0f} < "
                    f"floor {floor:,.0f} "
                    f"(baseline {pinned[key]:,.0f}, "
                    f"tolerance {tolerance:.0%})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="engine events/sec benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (the CI profile)")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the baseline")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline for this profile")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown for --check")
    parser.add_argument("--baseline", default=str(BASELINE_PATH),
                        help="baseline JSON path")
    parser.add_argument("--out", default=None,
                        help="also write this run's numbers as JSON")
    args = parser.parse_args(argv)

    profile = "quick" if args.quick else "full"
    results = run_profile(profile)

    for name, metrics in results.items():
        line = (f"{name:<20} {metrics['events_per_sec']:>12,.0f} /s"
                f"  ({metrics['events']:,} ops in "
                f"{metrics['seconds']:.2f}s)")
        if "jobs_per_sec" in metrics:
            line += f"  [{metrics['jobs_per_sec']:,.0f} jobs/s]"
        print(line)

    baseline_path = Path(args.baseline)
    payload = {"schema": SCHEMA_VERSION, "profile": profile,
               "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2,
                                             sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    status = 0
    if args.check:
        problems = check_regression(results, load_baseline(baseline_path),
                                    profile, args.tolerance)
        for problem in problems:
            print(f"REGRESSION: {problem}")
        if problems:
            status = 1
        else:
            print(f"ok: all scenarios within {args.tolerance:.0%} of "
                  f"the committed baseline")

    if args.update:
        baseline = load_baseline(baseline_path)
        baseline["schema"] = SCHEMA_VERSION
        baseline.setdefault("profiles", {})[profile] = results
        baseline_path.write_text(json.dumps(baseline, indent=2,
                                            sort_keys=True) + "\n")
        print(f"updated {baseline_path} [{profile}]")

    return status


if __name__ == "__main__":
    sys.exit(main())
