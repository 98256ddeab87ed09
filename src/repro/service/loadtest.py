"""Saturation load-test harness for the streaming service.

Drives :class:`~repro.service.cluster.ClusterService` with arrival
rates swept *past* cluster capacity — 1× to several× the analytic
best-effort capacity — once per admission policy, and reports how each
policy degrades: goodput (jobs completed per hour), reject and shed
rates, chain deferrals, peak queue depth, and queue-age percentiles.

This is the "actually load-test at scale" half of the ROADMAP's
simulation-as-a-service item: the interesting regime is the one where
the offered load cannot possibly be served, and the contract under
test is the paper's §2.2 graceful degradation — reserved pretraining
work keeps running (chaos invariant 15 checks every decision live),
best-effort work queues up to a bound (invariant 16), and the rest is
turned away or shed, not buffered without end.

Run it via ``python -m repro loadtest`` (``--smoke`` is the CI
profile) or import :func:`run_loadtest` directly; the overload
benchmark profile in ``benchmarks/bench_service.py`` wraps one
saturated cell for the committed-baseline perf gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from repro.chaos.scenario import BUNDLED_SCENARIOS
from repro.obs.tracer import TracerLike
from repro.scheduler.job import FinalStatus
from repro.service.admission import (POLICY_KINDS, AcceptAllPolicy,
                                     AdmissionPolicy, OverloadConfig,
                                     QueueDepthCapPolicy,
                                     TokenBucketPolicy,
                                     WeightedQuotaPolicy)
from repro.service.cluster import ClusterService
from repro.workload.streams import (EvalBurstConfig, EvalBurstStream,
                                    PoissonJobStream,
                                    PoissonStreamConfig)

#: incremental horizons each cell is advanced in (exercises the same
#: advance() path production uses, not one monolithic run)
_HORIZONS_PER_CELL = 8


def capacity_jobs_per_hour(config: PoissonStreamConfig,
                           gpus: int) -> float:
    """Analytic arrival rate that saturates ``gpus``.

    Little's-law style: jobs/hour the pool can *complete* given the
    stream's mean GPU demand and mean duration.  The duration is
    lognormal base-2 around the median, so its mean carries the
    ``exp((sigma * ln 2)^2 / 2)`` stretch.
    """
    if gpus <= 0:
        raise ValueError("gpus must be positive")
    mean_gpus = sum(config.gpu_choices) / len(config.gpu_choices)
    sigma_ln = config.duration_sigma * math.log(2.0)
    mean_duration = (config.duration_median_s
                     * math.exp(sigma_ln * sigma_ln / 2.0))
    return gpus * 3600.0 / (mean_gpus * mean_duration)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


@dataclass(frozen=True)
class LoadTestCell:
    """One (policy, arrival-rate multiplier) run's outcome."""

    policy: str
    multiplier: float
    offered: int
    rejected: int
    shed: int
    completed: int
    goodput_per_hour: float
    chains_deferred: int
    queue_depth_peak: int
    queue_age_p50_s: float
    queue_age_p95_s: float
    final_state: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "multiplier": self.multiplier,
            "offered": self.offered,
            "rejected": self.rejected,
            "shed": self.shed,
            "completed": self.completed,
            "goodput_per_hour": self.goodput_per_hour,
            "chains_deferred": self.chains_deferred,
            "queue_depth_peak": self.queue_depth_peak,
            "queue_age_p50_s": self.queue_age_p50_s,
            "queue_age_p95_s": self.queue_age_p95_s,
            "final_state": self.final_state,
        }


@dataclass(frozen=True)
class LoadTestReport:
    """A full sweep: every policy at every multiplier."""

    scenario: str
    capacity_per_hour: float
    horizon_s: float
    slots: int
    cells: tuple[LoadTestCell, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "capacity_per_hour": self.capacity_per_hour,
            "horizon_s": self.horizon_s,
            "slots": self.slots,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _policy_builders(seed: int, capacity: float, slots: int
                     ) -> dict[str, Callable[[], AdmissionPolicy]]:
    """Fresh-instance builders (policies are stateful) per kind."""
    return {
        AcceptAllPolicy.kind: AcceptAllPolicy,
        QueueDepthCapPolicy.kind:
            lambda: QueueDepthCapPolicy(max_depth=slots),
        TokenBucketPolicy.kind:
            lambda: TokenBucketPolicy(rate_per_hour=capacity * 1.25,
                                      burst=float(slots), seed=seed),
        WeightedQuotaPolicy.kind:
            lambda: WeightedQuotaPolicy(
                slots=slots,
                weights={"lt-jobs": 3.0, "lt-evals": 1.0}),
    }


def _queue_ages(service: ClusterService) -> list[float]:
    """Queueing delays of started jobs + ages of jobs still queued."""
    now = service.engine.now
    started = {job.job_id: job for job in service.scheduler.started}
    ages = [job.queueing_delay for job in started.values()]
    ages.extend(now - job.submit_time
                for job in service.scheduler.queue)
    return ages


def run_loadtest(scenario_name: str = "smoke",
                 multipliers: Iterable[float] = (1.0, 2.0, 3.0, 4.0),
                 policy_kinds: Iterable[str] = POLICY_KINDS,
                 horizon_s: float | None = None,
                 slots: int | None = None,
                 seed: int | None = None,
                 tracer: TracerLike | None = None) -> LoadTestReport:
    """Sweep arrival-rate multipliers past capacity, per policy.

    Every cell runs the scenario's full chaos schedule underneath the
    synthetic overload, with the invariant checker armed — a reserved
    job rejected or shed, or a declared queue bound exceeded, aborts
    the sweep with an :class:`InvariantViolation` rather than
    producing a polluted report.
    """
    scenario = BUNDLED_SCENARIOS[scenario_name]
    if seed is not None:
        scenario = scenario.with_seed(seed)
    # only None means the scenario's duration: a zero horizon is an
    # error, not a default
    if horizon_s is None:
        horizon_s = scenario.duration
    elif not 0 < horizon_s < math.inf:
        raise ValueError(
            f"horizon_s must be finite and positive, got {horizon_s}")
    horizon = float(min(horizon_s, scenario.duration))
    # the harness runs the scheduler at reserved_fraction 0.5; the
    # best-effort stream is sized against the shared half
    shared_gpus = scenario.scheduler_gpus // 2
    base_config = PoissonStreamConfig(
        name="lt-jobs", seed=scenario.seed, rate_per_hour=1.0,
        job_type="debug", gpu_choices=(1, 2, 4),
        duration_median_s=600.0, duration_sigma=1.0)
    capacity = capacity_jobs_per_hour(base_config, shared_gpus)
    slot_count = slots if slots is not None else max(8, 2 * shared_gpus)
    overload = OverloadConfig(
        healthy_depth=max(1, slot_count // 4),
        pressured_depth=max(2, slot_count // 2),
        saturated_depth=slot_count,
        shedding_depth=slot_count + max(1, slot_count // 2),
        defer_seconds=180.0, shed_max_age_s=1200.0,
        sweep_interval_s=300.0)
    builders = _policy_builders(scenario.seed, capacity, slot_count)

    cells: list[LoadTestCell] = []
    for kind in policy_kinds:
        if kind not in builders:
            known = ", ".join(sorted(builders))
            raise ValueError(f"unknown policy kind {kind!r} "
                             f"(known: {known})")
        for multiplier in multipliers:
            job_config = replace(base_config,
                                 rate_per_hour=capacity * multiplier)
            streams = [
                PoissonJobStream(job_config),
                EvalBurstStream(EvalBurstConfig(
                    name="lt-evals", seed=scenario.seed,
                    bursts_per_hour=max(1.0, 2.0 * multiplier),
                    batch_size=6)),
            ]
            service = ClusterService(
                scenario, streams=streams, tracer=tracer,
                admission=builders[kind](), overload=overload)
            for step in range(1, _HORIZONS_PER_CELL + 1):
                gauges = service.advance(
                    horizon * step / _HORIZONS_PER_CELL)
            completed = sum(
                1 for job in service.scheduler.finished
                if job.final_status is FinalStatus.COMPLETED)
            ages = _queue_ages(service)
            cells.append(LoadTestCell(
                policy=kind, multiplier=float(multiplier),
                offered=(gauges.jobs_submitted
                         + gauges.jobs_rejected),
                rejected=gauges.jobs_rejected,
                shed=gauges.jobs_shed,
                completed=completed,
                goodput_per_hour=completed / (horizon / 3600.0),
                chains_deferred=gauges.chains_deferred,
                queue_depth_peak=gauges.queue_depth_peak,
                queue_age_p50_s=_percentile(ages, 0.50),
                queue_age_p95_s=_percentile(ages, 0.95),
                final_state=gauges.overload_state))
    return LoadTestReport(
        scenario=scenario.name, capacity_per_hour=capacity,
        horizon_s=horizon, slots=slot_count, cells=tuple(cells))


def render_report(report: LoadTestReport) -> str:
    """The sweep as an aligned text table."""
    lines = [
        f"scenario {report.scenario}  "
        f"capacity {report.capacity_per_hour:.1f} jobs/h  "
        f"horizon {report.horizon_s / 3600.0:.1f}h  "
        f"slots {report.slots}",
        f"{'policy':<16} {'mult':>5} {'offered':>8} {'rej':>6} "
        f"{'shed':>5} {'done':>5} {'goodput/h':>10} {'defer':>6} "
        f"{'peakQ':>6} {'p50 age':>8} {'p95 age':>8}  state",
    ]
    for cell in report.cells:
        lines.append(
            f"{cell.policy:<16} {cell.multiplier:>4.1f}x "
            f"{cell.offered:>8} {cell.rejected:>6} {cell.shed:>5} "
            f"{cell.completed:>5} {cell.goodput_per_hour:>10.1f} "
            f"{cell.chains_deferred:>6} {cell.queue_depth_peak:>6} "
            f"{cell.queue_age_p50_s:>7.0f}s {cell.queue_age_p95_s:>7.0f}s"
            f"  {cell.final_state}")
    return "\n".join(lines)
