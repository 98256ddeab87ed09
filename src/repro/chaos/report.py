"""Chaos-run summaries: MTTF / MTTR / wasted GPU-time / recovery rate.

The numbers mirror what §6.1.2 reports for the production system — how
fast failures are detected and recovered, how much GPU time they waste,
and what fraction of incidents resolve without a human — so a chaos run
can be compared side by side with the paper's recovery claims.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.analysis.report import render_key_values
from repro.failures.taxonomy import (NETWORK_FAULT_KINDS,
                                     POD_FAULT_KINDS,
                                     PARTITION_FAULT_KINDS,
                                     POWER_FAULT_KINDS,
                                     STORAGE_FAULT_KINDS,
                                     STRAGGLER_FAULT_KINDS,
                                     FailureCategory)
from repro.scheduler.job import FinalStatus


@dataclass
class ChaosSummary:
    """Headline numbers of one chaos run (all derived, no randomness)."""

    scenario: str
    seed: int
    duration_hours: float
    # -- faults --
    faults_injected: int
    faults_absorbed: int
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    faults_by_category: dict[str, int] = field(default_factory=dict)
    # -- recovery --
    recovery_plans: int = 0
    restarts: int = 0
    recovery_success_rate: float = 0.0
    automation_rate: float = 0.0
    mttf_hours: float = 0.0
    mttr_minutes: float = 0.0
    # -- pretraining --
    pretrain_iterations: int = 0
    pretrain_lost_iterations: int = 0
    pretrain_restarts: int = 0
    pretrain_downtime_hours: float = 0.0
    pretrain_goodput: float = 0.0
    # -- waste --
    wasted_gpu_hours: float = 0.0
    # -- scheduler pool --
    jobs_started: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_preempted: int = 0
    # -- fleet --
    nodes_cordoned: int = 0
    nodes_escalated: int = 0
    # -- storage & checkpointing --
    storage_faults: int = 0
    checkpoints_persisted: int = 0
    checkpoints_degraded: int = 0
    checkpoints_failed: int = 0
    ckpt_quarantined: int = 0
    restore_fallbacks: int = 0
    fallback_lost_iterations: int = 0
    restores_deferred: int = 0
    storage_stall_hours: float = 0.0
    persist_health: str = "healthy"
    # -- network fabric --
    network_faults: int = 0
    segment_convictions: int = 0
    segments_cordoned_end: int = 0
    gang_migrations: int = 0
    network_slowdown_hours: float = 0.0
    # -- failure domains (pod / partition / straggler / power) --
    pod_faults: int = 0
    partition_faults: int = 0
    straggler_faults: int = 0
    stragglers_detected: int = 0
    silent_waste_gpu_hours: float = 0.0
    power_cap_faults: int = 0
    power_capped_hours: float = 0.0
    spare_swaps: int = 0
    spares_available_end: int = 0
    #: per-fault-kind recovery stage decomposition: kind -> {count,
    #: mttd_s, mttl_s, mttr_s} (mean detection / localization /
    #: recovery stage durations in seconds)
    recovery_stages: dict[str, dict[str, float]] = field(
        default_factory=dict)
    # -- validation --
    invariant_checks: int = 0

    def to_json(self) -> str:
        """Stable JSON (sorted keys) for golden-trace comparison."""
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def render(self) -> str:
        """Human-readable report, aligned like the paper tables."""
        sections = [
            render_key_values({
                "scenario": self.scenario,
                "seed": self.seed,
                "duration (h)": self.duration_hours,
                "faults injected": self.faults_injected,
                "faults absorbed": self.faults_absorbed,
            }, title="chaos run"),
            render_key_values({
                "recovery plans": self.recovery_plans,
                "restarts": self.restarts,
                "recovery success rate": self.recovery_success_rate,
                "automation rate": self.automation_rate,
                "MTTF (h)": self.mttf_hours,
                "MTTR (min)": self.mttr_minutes,
            }, title="recovery (compare §6.1.2)"),
            render_key_values({
                "iterations retained": self.pretrain_iterations,
                "iterations lost": self.pretrain_lost_iterations,
                "restarts": self.pretrain_restarts,
                "downtime (h)": self.pretrain_downtime_hours,
                "goodput": self.pretrain_goodput,
                "wasted GPU-hours": self.wasted_gpu_hours,
            }, title="pretraining"),
            render_key_values({
                "started": self.jobs_started,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "preempted": self.jobs_preempted,
            }, title="best-effort pool"),
            render_key_values({
                "storage faults": self.storage_faults,
                "persisted": self.checkpoints_persisted,
                "degraded": self.checkpoints_degraded,
                "failed": self.checkpoints_failed,
                "quarantined": self.ckpt_quarantined,
                "fallback restores": self.restore_fallbacks,
                "fallback lost iters": self.fallback_lost_iterations,
                "restores deferred": self.restores_deferred,
                "storage stall (h)": self.storage_stall_hours,
                "persist health": self.persist_health,
            }, title="storage & checkpointing"),
            render_key_values({
                "network faults": self.network_faults,
                "segment convictions": self.segment_convictions,
                "segments cordoned (end)": self.segments_cordoned_end,
                "gang migrations": self.gang_migrations,
                "slowdown (h)": self.network_slowdown_hours,
            }, title="network fabric"),
            render_key_values({
                "pod faults": self.pod_faults,
                "partial partitions": self.partition_faults,
                "stragglers injected": self.straggler_faults,
                "stragglers detected": self.stragglers_detected,
                "silent waste (GPU-h)": self.silent_waste_gpu_hours,
                "power caps": self.power_cap_faults,
                "power capped (h)": self.power_capped_hours,
                "spare swaps": self.spare_swaps,
                "spares available (end)": self.spares_available_end,
            }, title="failure domains"),
            render_key_values({
                "cordoned": self.nodes_cordoned,
                "escalated (faulty)": self.nodes_escalated,
                "invariant checks": self.invariant_checks,
            }, title="fleet & validation"),
        ]
        if self.recovery_stages:
            sections.append(self._render_stage_table())
        return "\n\n".join(sections)

    def _render_stage_table(self) -> str:
        """MTTD/MTTL/MTTR per fault kind, one row per kind.

        MTTD is injection → detection (zero for crash-style faults
        that announce themselves); MTTL is detection → localization
        (zero when localization runs inline with detection); MTTR is
        localization → resume.
        """
        header = (f"{'kind':<18} {'n':>3} {'MTTD (s)':>10} "
                  f"{'MTTL (s)':>10} {'MTTR (s)':>10}")
        lines = ["recovery stage decomposition (MTTD / MTTL / MTTR)",
                 "-" * len(header), header]
        for kind in sorted(self.recovery_stages):
            row = self.recovery_stages[kind]
            lines.append(f"{kind:<18} {int(row['count']):>3} "
                         f"{row['mttd_s']:>10.1f} "
                         f"{row['mttl_s']:>10.1f} "
                         f"{row['mttr_s']:>10.1f}")
        return "\n".join(lines)


def summarize(harness) -> ChaosSummary:
    """Distill a finished :class:`ChaosHarness` into a summary."""
    scenario = harness.scenario
    faults = harness.faults
    by_kind: dict[str, int] = {}
    by_category: dict[str, int] = {}
    for fault in faults:
        by_kind[fault.kind] = by_kind.get(fault.kind, 0) + 1
        if fault.category is not None:
            key = fault.category.value
            by_category[key] = by_category.get(key, 0) + 1

    recoveries = harness.recoveries
    recoverable = [r for r in recoveries
                   if r.plan is not None and (
                       r.plan.diagnosis is None
                       or r.plan.diagnosis.category
                       is not FailureCategory.SCRIPT)]
    recovered = [r for r in recoverable if r.resume_time is not None]
    mttr = (sum(r.resume_time - r.fault_time for r in recovered)
            / len(recovered) if recovered else 0.0)
    times = [fault.time for fault in faults]
    gaps = [b - a for a, b in zip(times, times[1:])]
    mttf = (sum(gaps) / len(gaps)) if gaps else scenario.duration

    pretrain = harness.pretrain
    elapsed = pretrain.done_at or harness.engine.now
    goodput = (pretrain.iteration * pretrain.step_time / elapsed
               if elapsed > 0 else 0.0)
    # Slowdown is waste too: the gang held its GPUs while every step
    # ran stretched on a degraded fabric (§5.2's "slow" failure mode).
    wasted_gpu_seconds = (
        pretrain.lost_iterations * pretrain.step_time
        * scenario.pretrain_gpus
        + harness.pretrain_downtime * scenario.pretrain_gpus
        + pretrain.slowdown_seconds * scenario.pretrain_gpus
        + harness.scheduler_lost_gpu_seconds)

    # recovery stage decomposition: group episodes by fault kind and
    # average each stage (injection → detection → localization → resume)
    stages: dict[str, dict[str, float]] = {}
    by_stage_kind: dict[str, list] = {}
    for recovery in recoveries:
        if recovery.kind:
            by_stage_kind.setdefault(recovery.kind, []).append(recovery)
    for kind, episodes in sorted(by_stage_kind.items()):
        detect = [r.detect_time - r.injected_time for r in episodes]
        localize = [r.localize_time - r.detect_time for r in episodes]
        resolve = [r.resume_time - r.localize_time for r in episodes
                   if r.resume_time is not None]
        stages[kind] = {
            "count": float(len(episodes)),
            "mttd_s": sum(detect) / len(detect) if detect else 0.0,
            "mttl_s": sum(localize) / len(localize) if localize else 0.0,
            "mttr_s": sum(resolve) / len(resolve) if resolve else 0.0,
        }

    spare_swaps = sum(len(plan.spare_swaps)
                      for plan in harness.controller.incidents)
    spares_end = (len(harness.spare_pool.available)
                  if harness.spare_pool is not None else 0)

    finished = harness.scheduler.finished
    return ChaosSummary(
        scenario=scenario.name,
        seed=scenario.seed,
        duration_hours=scenario.duration / 3600.0,
        faults_injected=len(faults),
        faults_absorbed=harness.absorbed_faults,
        faults_by_kind=dict(sorted(by_kind.items())),
        faults_by_category=dict(sorted(by_category.items())),
        recovery_plans=len(harness.controller.incidents),
        restarts=len(recovered),
        recovery_success_rate=(len(recovered) / len(recoverable)
                               if recoverable else 1.0),
        automation_rate=harness.controller.automation_rate(),
        mttf_hours=mttf / 3600.0,
        mttr_minutes=mttr / 60.0,
        pretrain_iterations=pretrain.iteration,
        pretrain_lost_iterations=pretrain.lost_iterations,
        pretrain_restarts=pretrain.restarts,
        pretrain_downtime_hours=harness.pretrain_downtime / 3600.0,
        pretrain_goodput=goodput,
        wasted_gpu_hours=wasted_gpu_seconds / 3600.0,
        jobs_started=len(harness.scheduler.started),
        jobs_completed=sum(1 for job in finished
                           if job.final_status
                           is FinalStatus.COMPLETED),
        jobs_failed=sum(1 for job in finished
                        if job.final_status is FinalStatus.FAILED),
        jobs_preempted=harness.scheduler.preemptions,
        nodes_cordoned=sum(1 for node in harness.nodes
                           if not node.schedulable),
        nodes_escalated=sum(1 for node in harness.nodes
                            if node.health.value == "faulty"),
        storage_faults=sum(count for kind, count in by_kind.items()
                           if kind in STORAGE_FAULT_KINDS),
        checkpoints_persisted=harness.storage.checkpoints_persisted,
        checkpoints_degraded=harness.storage.checkpoints_degraded,
        checkpoints_failed=harness.storage.checkpoints_failed,
        ckpt_quarantined=len(harness.catalog.quarantined),
        restore_fallbacks=harness.storage.restore_fallbacks,
        fallback_lost_iterations=harness.storage.fallback_lost_iterations,
        restores_deferred=harness.restores_deferred,
        storage_stall_hours=harness.storage.storage_stall_seconds / 3600.0,
        persist_health=harness.storage.checkpointer.health.value,
        network_faults=sum(count for kind, count in by_kind.items()
                           if kind in NETWORK_FAULT_KINDS),
        segment_convictions=sum(
            harness.controller.segment_convictions.values()),
        segments_cordoned_end=len(harness.fabric.cordoned_segments),
        gang_migrations=harness.gang_migrations,
        network_slowdown_hours=pretrain.slowdown_seconds / 3600.0,
        pod_faults=sum(count for kind, count in by_kind.items()
                       if kind in POD_FAULT_KINDS),
        partition_faults=sum(count for kind, count in by_kind.items()
                             if kind in PARTITION_FAULT_KINDS),
        straggler_faults=sum(count for kind, count in by_kind.items()
                             if kind in STRAGGLER_FAULT_KINDS),
        stragglers_detected=harness.slowdown.stragglers_detected,
        silent_waste_gpu_hours=(harness.slowdown.silent_waste_gpu_seconds
                                / 3600.0),
        power_cap_faults=sum(count for kind, count in by_kind.items()
                             if kind in POWER_FAULT_KINDS),
        power_capped_hours=harness.slowdown.power_capped_seconds / 3600.0,
        spare_swaps=spare_swaps,
        spares_available_end=spares_end,
        recovery_stages=stages,
        invariant_checks=harness.checker.checks_run,
    )
