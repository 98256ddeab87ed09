"""The recovery orchestrator: diagnosis -> detection -> restart (§6.1).

Given a failed (or anomalous) pretraining job, the controller decides and
executes the recovery plan:

* infrastructure failure -> run the two-round NCCL test over the job's
  nodes, cordon convicted nodes, restart from the latest checkpoint on
  the surviving pool;
* framework failure -> restart from the latest checkpoint (configs often
  salvageable), flagging for human follow-up;
* script failure -> do **not** restart (it would fail identically);
  notify the owner with the diagnosis and mitigation;
* loss spike -> roll back to an *earlier* healthy checkpoint and skip the
  offending data batches;
* hang -> treat as a suspected infrastructure failure (silent stalls are
  usually hardware, Appendix A.1).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.cluster.machine import Node
from repro.core.diagnosis.agents import Diagnosis, DiagnosisSystem
from repro.core.recovery.detector import AnomalyEvent
from repro.core.recovery.nccl_test import (CollectiveTester,
                                           FabricCollectiveTester,
                                           localize_network_faults,
                                           two_round_nccl_test)
from repro.failures.taxonomy import FailureCategory

#: DCGM-scan conviction bar: a node measured below this step
#: contribution is convicted as a straggler
STRAGGLER_CONVICTION_FACTOR = 0.95


@dataclass(frozen=True)
class RecoveryAction:
    """One concrete action the controller took."""

    kind: str      # "nccl_test", "cordon", "restart", "rollback", "notify"
    detail: str


@dataclass
class RecoveryPlan:
    """The controller's decision for one incident."""

    diagnosis: Diagnosis | None
    restart: bool
    restart_checkpoint_step: int | None
    cordoned_nodes: set[str] = field(default_factory=set)
    #: fabric path segments (leaf uplinks) cordoned by localization —
    #: placement must not span them until they are repaired
    cordoned_segments: set[str] = field(default_factory=set)
    skip_batches: bool = False
    actions: list[RecoveryAction] = field(default_factory=list)
    #: victim node -> hot spare swapped in for it (empty without a pool)
    spare_swaps: dict[str, str] = field(default_factory=dict)
    #: how the gang comes back: "spare_swap" (preemptive migration onto
    #: warm standbys) or "gang_reschedule" (full re-placement)
    recovery_policy: str = "gang_reschedule"


class HotSparePool:
    """Warm standby nodes for preemptive migration (ByteDance-style).

    Instead of tearing the gang down and re-placing it after every
    conviction, a fleet keeps a small pool of powered, imaged spares:
    a convicted node swaps against a spare in ``swap_delay`` seconds
    (NCCL re-init on a warm host) rather than the full
    ``reschedule_delay`` gang restart.  The pool rotates — a repaired
    victim re-enters as the new spare — so capacity is conserved.
    Invariant 13 guards the accounting: a spare is never allocated to
    two victims at once.
    """

    def __init__(self, spares: Iterable[str], swap_delay: float = 120.0,
                 reschedule_delay: float = 300.0,
                 gang_gpus: int = 0) -> None:
        if swap_delay < 0 or reschedule_delay < 0:
            raise ValueError("delays must be non-negative")
        self._available: list[str] = sorted(spares)
        if len(set(self._available)) != len(self._available):
            raise ValueError("duplicate spare names")
        #: spare name -> victim it currently covers
        self.allocated: dict[str, str] = {}
        self.swap_delay = swap_delay
        self.reschedule_delay = reschedule_delay
        self.gang_gpus = gang_gpus

    @property
    def available(self) -> tuple[str, ...]:
        """Spares currently free, in name order."""
        return tuple(self._available)

    @property
    def dry(self) -> bool:
        return not self._available

    def swap_cost_gpu_hours(self) -> float:
        """GPU-hours the gang loses to one warm spare swap."""
        return self.swap_delay * self.gang_gpus / 3600.0

    def reschedule_cost_gpu_hours(self) -> float:
        """GPU-hours a full gang reschedule would cost instead."""
        return self.reschedule_delay * self.gang_gpus / 3600.0

    def acquire(self, victim: str,
                eligible: Callable[[str], bool] | None = None
                ) -> str | None:
        """Allocate the first eligible spare to ``victim`` (None = dry)."""
        for index, spare in enumerate(self._available):
            if eligible is None or eligible(spare):
                del self._available[index]
                self.allocated[spare] = victim
                return spare
        return None

    def reclaim(self, victim: str) -> str | None:
        """A repaired victim rotates in as the new spare.

        The spare that covered it stays in service (the gang already
        migrated onto it); the victim becomes available standby
        capacity.  Returns the covering spare's name, or None if the
        victim was never swapped.
        """
        for spare, covered in sorted(self.allocated.items()):
            if covered == victim:
                del self.allocated[spare]
                insort(self._available, victim)
                return spare
        return None


class CheckpointCatalog:
    """Minimal view of available checkpoints the controller restarts from."""

    def __init__(self, steps: list[int] | None = None) -> None:
        self._steps = sorted(steps or [])
        #: steps quarantined after failing restore (checksum mismatch);
        #: they never come back into the restart path
        self.quarantined: list[int] = []

    def add(self, step: int) -> None:
        """Record a newly persisted checkpoint step."""
        self._steps.append(step)
        self._steps.sort()

    def mark_bad(self, step: int) -> None:
        """Quarantine a generation that failed restore; ``latest`` and
        ``earlier_healthy`` will skip it from now on."""
        if step in self._steps:
            self._steps.remove(step)
        if step not in self.quarantined:
            self.quarantined.append(step)

    def latest(self) -> int | None:
        """Newest checkpoint step, or None."""
        return self._steps[-1] if self._steps else None

    def earlier_healthy(self, before_step: int, back: int = 2
                        ) -> int | None:
        """A checkpoint ``back`` saves earlier than the last one before
        ``before_step`` — the loss-spike rollback target."""
        eligible = [step for step in self._steps if step <= before_step]
        if not eligible:
            return None
        index = max(len(eligible) - 1 - back, 0)
        return eligible[index]

    def __len__(self) -> int:
        return len(self._steps)


class RecoveryController:
    """Drives automatic recovery for one pretraining job."""

    #: convictions before a node escalates from cordoned to faulty
    ESCALATION_THRESHOLD = 2

    def __init__(self, diagnosis_system: DiagnosisSystem,
                 checkpoints: CheckpointCatalog,
                 nodes: list[Node],
                 leaf_of: dict[str, int] | None = None,
                 pod_of_leaf: dict[int, int] | None = None,
                 spare_pool: HotSparePool | None = None) -> None:
        self.diagnosis_system = diagnosis_system
        self.checkpoints = checkpoints
        self.nodes = {node.name: node for node in nodes}
        #: node name -> leaf switch index; required by the network
        #: fault path (localization needs to know the topology)
        self.leaf_of = dict(leaf_of or {})
        #: leaf index -> pod index; enables core-tier localization
        self.pod_of_leaf = dict(pod_of_leaf) if pod_of_leaf else None
        #: warm standby pool; None = always gang-reschedule
        self.spare_pool = spare_pool
        self.incidents: list[RecoveryPlan] = []
        #: NCCL-test convictions per node, across incidents.  A node
        #: convicted repeatedly is not flaky software — it is broken
        #: hardware, and escalates to ``NodeHealth.FAULTY`` (replacement)
        #: instead of bouncing through cordon/uncordon cycles.
        self.conviction_counts: dict[str, int] = {}
        #: (step, detail) alerts raised by a sick persist pipeline —
        #: failed or degraded checkpoint saves.  These are storage-side
        #: incidents the automatic system absorbs (retry/fallback), so
        #: they do not count against :meth:`automation_rate`.
        self.storage_alerts: list[tuple[int, str]] = []
        #: localization convictions per fabric segment, across
        #: incidents — the fabric-side analogue of conviction_counts.
        self.segment_convictions: dict[str, int] = {}

    def record_storage_alert(self, step: int, detail: str) -> None:
        """Note a degraded/failed checkpoint persist at ``step``."""
        self.storage_alerts.append((step, detail))

    # -- failure path ---------------------------------------------------------

    def handle_failure(self, log_lines: list[str],
                       tester: CollectiveTester | None = None
                       ) -> RecoveryPlan:
        """Diagnose a failed job's log and execute the recovery plan."""
        diagnosis = self.diagnosis_system.diagnose(log_lines)
        plan = RecoveryPlan(diagnosis=diagnosis, restart=False,
                            restart_checkpoint_step=None)
        if diagnosis.category is FailureCategory.SCRIPT:
            plan.actions.append(RecoveryAction(
                "notify",
                f"script error {diagnosis.reason}: {diagnosis.mitigation}"))
        elif diagnosis.category is FailureCategory.INFRASTRUCTURE:
            self._isolate_faulty_nodes(plan, tester)
            self._restart_from_latest(plan)
        else:  # framework
            self._restart_from_latest(plan)
            plan.actions.append(RecoveryAction(
                "notify",
                f"framework error {diagnosis.reason}; flagged for review"))
        self.incidents.append(plan)
        return plan

    # -- anomaly path ---------------------------------------------------------

    def handle_anomaly(self, event: AnomalyEvent,
                       tester: CollectiveTester | None = None
                       ) -> RecoveryPlan:
        """React to a loss spike or hang with the matching plan."""
        plan = RecoveryPlan(diagnosis=None, restart=False,
                            restart_checkpoint_step=None)
        if event.kind == "loss_spike":
            target = self.checkpoints.earlier_healthy(event.step)
            if target is not None:
                plan.restart = True
                plan.restart_checkpoint_step = target
                plan.skip_batches = True
                plan.actions.append(RecoveryAction(
                    "rollback",
                    f"loss spike at step {event.step}: restart from "
                    f"{target} and skip offending batches"))
            else:
                plan.actions.append(RecoveryAction(
                    "notify", "loss spike but no checkpoint to roll "
                              "back to"))
        elif event.kind == "hang":
            self._isolate_faulty_nodes(plan, tester)
            self._restart_from_latest(plan)
        else:
            raise ValueError(f"unknown anomaly kind {event.kind!r}")
        self.incidents.append(plan)
        return plan

    # -- network fault path ---------------------------------------------------

    def handle_network_fault(self, detail: str,
                             tester: FabricCollectiveTester,
                             restart: bool = True) -> RecoveryPlan:
        """Localize a fabric fault and cordon what the test convicts.

        Runs the topology-aware localization over the schedulable pool:
        convicted *segments* are cordoned (placement must route around
        them until repair), convicted *nodes* go through the usual
        cordon/escalation path, and ambiguous segments are flagged for
        the fabric team rather than cordoned — localization must never
        convict a healthy segment.  ``restart=False`` is the degraded
        path: the job migrates but resumes in place (no iteration
        loss), so no checkpoint restart is planned.
        """
        if not self.leaf_of:
            raise ValueError("controller has no topology map; pass "
                             "leaf_of to handle network faults")
        plan = RecoveryPlan(diagnosis=None, restart=False,
                            restart_checkpoint_step=None)
        schedulable = [name for name, node in self.nodes.items()
                       if node.schedulable]
        result = localize_network_faults(schedulable, tester,
                                         self.leaf_of,
                                         pod_of_leaf=self.pod_of_leaf)
        plan.actions.append(RecoveryAction(
            "localize",
            f"{detail}: {result.tests_run} collectives, "
            f"{len(result.faulty_nodes)} node(s) and "
            f"{len(result.faulty_segments)} segment(s) convicted"))
        for segment in sorted(result.faulty_segments):
            self.segment_convictions[segment] = (
                self.segment_convictions.get(segment, 0) + 1)
            plan.cordoned_segments.add(segment)
            plan.actions.append(RecoveryAction("cordon_segment", segment))
        for segment in sorted(result.ambiguous_segments):
            plan.actions.append(RecoveryAction(
                "notify",
                f"segment {segment} implicated but not convicted; "
                "flagged for fabric team"))
        for name in sorted(result.unresolved):
            plan.actions.append(RecoveryAction(
                "notify",
                f"{name} unresolved (no trustworthy probe path)"))
        for name in sorted(result.faulty_nodes):
            self._convict_node(plan, name)
        if restart:
            self._restart_from_latest(plan)
        self.incidents.append(plan)
        return plan

    # -- straggler path -------------------------------------------------------

    def handle_straggler(self, detail: str,
                         node_factors: Mapping[str, float],
                         min_factor: float = STRAGGLER_CONVICTION_FACTOR
                         ) -> RecoveryPlan:
        """Convict measurably slow nodes after a timeseries deviation.

        Detection came from the training timeseries drifting (the
        deviation detector), never from the injector; localization is
        a targeted DCGM sweep over the gang: every node whose measured
        step contribution sits below ``min_factor`` is convicted —
        including co-resident silent degraders the aggregate
        timeseries could not attribute on its own.  Convicted nodes
        cordon/escalate like NCCL convictions and swap against the
        hot-spare pool when one is configured.  No checkpoint rollback
        is planned: nothing diverged, the gang was just slow.
        """
        plan = RecoveryPlan(diagnosis=None, restart=False,
                            restart_checkpoint_step=None)
        slow = sorted(name for name, factor in node_factors.items()
                      if factor < min_factor)
        plan.actions.append(RecoveryAction(
            "dcgm_scan",
            f"{detail}: {len(node_factors)} node(s) scanned, "
            f"{len(slow)} below {min_factor:.2f}"))
        for name in slow:
            self._convict_node(plan, name)
        self.incidents.append(plan)
        return plan

    # -- helpers --------------------------------------------------------------

    def _isolate_faulty_nodes(self, plan: RecoveryPlan,
                              tester: CollectiveTester | None) -> None:
        if tester is None:
            return
        schedulable = [name for name, node in self.nodes.items()
                       if node.schedulable]
        result = two_round_nccl_test(schedulable, tester)
        plan.actions.append(RecoveryAction(
            "nccl_test",
            f"{result.tests_run} collectives, "
            f"{len(result.faulty)} faulty"))
        for name in sorted(result.faulty):
            self._convict_node(plan, name)

    def _convict_node(self, plan: RecoveryPlan, name: str) -> None:
        self.conviction_counts[name] = (
            self.conviction_counts.get(name, 0) + 1)
        plan.cordoned_nodes.add(name)
        if self.conviction_counts[name] >= self.ESCALATION_THRESHOLD:
            self.nodes[name].mark_faulty()
            plan.actions.append(RecoveryAction(
                "escalate",
                f"{name}: {self.conviction_counts[name]} convictions; "
                "marked faulty for hardware replacement"))
        else:
            self.nodes[name].cordon()
            plan.actions.append(RecoveryAction("cordon", name))
        if self.spare_pool is not None:
            self._swap_against_pool(plan, name)

    def _swap_against_pool(self, plan: RecoveryPlan, victim: str) -> None:
        """Cover a fresh conviction with a warm spare if one is free."""
        pool = self.spare_pool
        assert pool is not None
        spare = pool.acquire(
            victim,
            eligible=lambda name: (name in self.nodes
                                   and self.nodes[name].schedulable
                                   and name not in plan.cordoned_nodes))
        if spare is not None:
            plan.spare_swaps[victim] = spare
            plan.recovery_policy = "spare_swap"
            plan.actions.append(RecoveryAction(
                "spare_swap",
                f"{victim} -> {spare} (preemptive migration, "
                f"~{pool.swap_cost_gpu_hours():.2f} GPU-h vs "
                f"~{pool.reschedule_cost_gpu_hours():.2f} GPU-h gang "
                "reschedule)"))
        else:
            plan.recovery_policy = "gang_reschedule"
            plan.actions.append(RecoveryAction(
                "notify",
                f"hot-spare pool dry for {victim}; falling back to "
                "gang reschedule"))

    def _restart_from_latest(self, plan: RecoveryPlan) -> None:
        latest = self.checkpoints.latest()
        if latest is None:
            plan.actions.append(RecoveryAction(
                "notify", "no checkpoint available; restart from scratch"))
            plan.restart = True
            plan.restart_checkpoint_step = 0
            return
        plan.restart = True
        plan.restart_checkpoint_step = latest
        plan.actions.append(RecoveryAction(
            "restart", f"restart from checkpoint step {latest}"))

    # -- reporting ------------------------------------------------------------

    def manual_interventions(self) -> int:
        """Incidents that still need a human (script errors / unknowns)."""
        count = 0
        for plan in self.incidents:
            if plan.diagnosis is None:
                continue
            if (plan.diagnosis.category is FailureCategory.SCRIPT
                    or plan.diagnosis.reason == "Unknown"):
                count += 1
        return count

    def automation_rate(self) -> float:
        """Fraction of incidents recovered without a human in the loop."""
        if not self.incidents:
            return 0.0
        return 1.0 - self.manual_interventions() / len(self.incidents)
