"""The live fault-injection harness: sim → scheduler → recovery.

``ChaosHarness`` assembles one cluster on a single deterministic
:class:`~repro.sim.engine.Engine`:

* a pretraining gang stepping through a
  :class:`~repro.training.pretrain.PretrainProcess`, checkpointing into a
  :class:`~repro.core.recovery.CheckpointCatalog`;
* a best-effort pool replayed through
  :class:`~repro.scheduler.simulator.SchedulerSimulator`;
* the §6.1 :class:`~repro.core.recovery.RecoveryController` (diagnosis →
  two-round NCCL test → cordon → rollback → restart) reacting to every
  fault the scenario injects;
* an :class:`~repro.chaos.invariants.InvariantChecker` registered as an
  engine listener, so cross-layer invariants are validated after *every*
  simulation event.

The harness itself draws no randomness — all of it lives in
:meth:`ChaosScenario.build_faults` / ``build_background_jobs`` — so a
seeded run is byte-for-byte reproducible: same event log, same summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import ChaosSummary, summarize
from repro.chaos.scenario import (GPUS_PER_NODE, ChaosScenario,
                                  InjectedFault)
from repro.cluster.fattree import FatTree, FatTreeConfig
from repro.cluster.linkhealth import (LinkHealth, leaf_link, nic_link,
                                      pod_link)
from repro.cluster.machine import Node, NodeHealth, seren_node_spec
from repro.cluster.storage import (CorruptingStorage, FlakyStorage,
                                   SlowStorage, StorageError)
from repro.core.checkpoint import (CheckpointError, InMemoryStorage,
                                   RetryPolicy, SyncCheckpointer,
                                   _checkpoint_key)
from repro.core.diagnosis import DiagnosisSystem
from repro.core.recovery import (AnomalyEvent, CheckpointCatalog,
                                 CollectiveTester,
                                 FabricCollectiveTester,
                                 RecoveryController)
from repro.core.recovery.controller import HotSparePool, RecoveryPlan
from repro.core.recovery.detector import StepTimeDeviationDetector
from repro.failures.logs import LogGenerator
from repro.failures.taxonomy import (FABRIC_FAULT_KINDS,
                                     POWER_FAULT_KINDS,
                                     STORAGE_FAULT_KINDS,
                                     STRAGGLER_FAULT_KINDS,
                                     FailureCategory)
from repro.obs.span import Span
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.scheduler.job import FinalStatus, Job
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator
from repro.sim.engine import Engine, SimulationError

PRETRAIN_JOB_ID = "pretrain-main"

#: fabric fault kinds that degrade bandwidth without severing it; the
#: gang keeps stepping (stretched) until monitoring detects and reacts
_SOFT_FABRIC_KINDS = ("link_degraded", "pod_link_degraded",
                      "partial_partition")


class _EngineClock:
    """Clock view of the engine for the checkpoint pipeline.

    ``now`` is the engine time plus a virtual *stall offset*; ``sleep``
    (retry backoff, injected slowdown delays) only grows the offset, so
    fault windows and retry deadlines see time advance while the
    single-threaded simulation never blocks.  The harness resets the
    offset around each persist/restore and charges it to the run's
    storage-stall accounting.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.offset = 0.0

    def now(self) -> float:
        return self.engine.now + self.offset

    def sleep(self, seconds: float) -> None:
        self.offset += seconds


def event_log_line(entry: tuple[float, str, str]) -> str:
    """One event-log entry as a stable, diff-friendly text line."""
    time, kind, detail = entry
    return f"{time:12.3f}  {kind:<18} {detail}"


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    scenario: ChaosScenario
    event_log: list[tuple[float, str, str]]
    summary: ChaosSummary
    checker: InvariantChecker

    def event_log_lines(self) -> list[str]:
        """The event log as stable, diff-friendly text lines."""
        return list(map(event_log_line, self.event_log))

    def event_log_text(self) -> str:
        return "\n".join(self.event_log_lines())


@dataclass
class _Recovery:
    """Bookkeeping for one fault → recovery episode."""

    fault_time: float
    resume_time: float | None = None
    plan: RecoveryPlan | None = None
    #: True while the restore is parked waiting out a storage outage
    deferred: bool = False
    #: open observability span covering fault → resume
    span: Span | None = None
    #: fault kind driving the episode (MTTD/MTTL/MTTR grouping key)
    kind: str = ""
    #: stage timestamps: injection → detection → localization → resume
    injected_time: float = 0.0
    detect_time: float = 0.0
    localize_time: float = 0.0


@dataclass
class _StragglerState:
    """Live state of one injected straggler / silent degrader.

    There is deliberately no failure log line attached: nothing
    crashes — the node just gets slower every ramp interval until
    step-time deviation detection (or nobody) notices.
    """

    index: int
    fault: InjectedFault
    node: str
    #: per-ramp multiplicative step-contribution decay
    decay: float
    #: decay saturates here (silent degraders stay near 1.0)
    floor: float
    factor: float = 1.0
    detected_at: float | None = None
    #: sim time waste was last accrued up to
    last_accrual: float = 0.0
    #: GPU-seconds of capacity quietly lost while undetected
    waste_gpu_seconds: float = 0.0


class ChaosHarness:
    """Wires one :class:`ChaosScenario` into a running simulation."""

    def __init__(self, scenario: ChaosScenario,
                 tracer: TracerLike | None = None) -> None:
        self.scenario = scenario
        self.engine = Engine()
        # the tracer observes through the listener seam; with the
        # default NULL_TRACER every instrumentation point is a no-op
        # and the run's artifacts are byte-identical to an untraced one
        self.tracer = tracer or NULL_TRACER
        self.tracer.attach(self.engine)
        self.nodes = [Node(name=f"node-{i:03d}", spec=seren_node_spec())
                      for i in range(scenario.n_nodes)]
        self._by_name = {node.name: node for node in self.nodes}
        # fixed roles: gang | scheduler pool | hot spares
        gang = scenario.gang_nodes
        pool = scenario.pool_nodes
        self.pool_node_names = [node.name
                                for node in self.nodes[gang:gang + pool]]
        self.spare_node_names = [node.name
                                 for node in self.nodes[gang + pool:]]
        #: live gang placements: node name -> job id
        self.placements: dict[str, str] = {
            node.name: PRETRAIN_JOB_ID for node in self.nodes[:gang]}

        self.scheduler = SchedulerSimulator(
            SchedulerConfig(total_gpus=scenario.scheduler_gpus,
                            reserved_fraction=0.5),
            engine=self.engine, tracer=self.tracer)
        self.scheduler.hooks.append(self._on_scheduler_event)

        self.faults = scenario.build_faults()
        storage_faults = [fault for fault in self.faults
                          if fault.kind in STORAGE_FAULT_KINDS]
        fabric_faults = [fault for fault in self.faults
                         if fault.kind in FABRIC_FAULT_KINDS]
        straggler_faults = [fault for fault in self.faults
                            if fault.kind in STRAGGLER_FAULT_KINDS]
        power_faults = [fault for fault in self.faults
                        if fault.kind in POWER_FAULT_KINDS]

        # -- fabric health overlay (armed up front from the schedule,
        # like the storage fault windows; strict no-op when empty) --
        self.fabric_config = FatTreeConfig(
            nodes=scenario.n_nodes,
            nodes_per_leaf=scenario.nodes_per_leaf,
            leaves_per_pod=scenario.leaves_per_pod)
        self.link_health = LinkHealth()
        self.node_index = {node.name: index
                           for index, node in enumerate(self.nodes)}
        self._leaf_by_name = {
            node.name: index // scenario.nodes_per_leaf
            for index, node in enumerate(self.nodes)}
        #: leaf -> pod map, armed only when the fabric actually spans
        #: pods; single-pod fabrics pass None so localization keeps the
        #: exact legacy probe order (byte-identical goldens)
        self._pod_of_leaf = (
            {leaf: leaf // scenario.leaves_per_pod
             for leaf in range(self.fabric_config.leaf_count)}
            if self.fabric_config.pod_count > 1 else None)
        for fault in fabric_faults:
            end = fault.time + fault.duration
            if fault.link is None:
                raise ValueError(
                    f"network fault {fault.kind} has no link target")
            if fault.kind == "link_degraded":
                self.link_health.link_degraded(
                    fault.link, fault.time, end,
                    scenario.link_degraded_factor)
            elif fault.kind == "pod_link_degraded":
                self.link_health.link_degraded(
                    fault.link, fault.time, end,
                    scenario.pod_link_degraded_factor)
            elif fault.kind == "partial_partition":
                # asymmetric degradation: each NIC in the partition set
                # gets its own factor, some above the health threshold
                # (those pairs still pass probes) and some below
                for link, factor in zip(fault.links, fault.link_factors):
                    self.link_health.link_degraded(
                        link, fault.time, end, factor)
            elif fault.kind == "switch_down":
                leaf = int(fault.link.split(":", 1)[1])
                self.link_health.switch_down(self.fabric_config, leaf,
                                             fault.time, end)
            else:  # link_down / pod_link_down
                self.link_health.link_down(fault.link, fault.time, end)
        self.fabric = FatTree(self.fabric_config,
                              health=self.link_health)
        #: gate for the topology-aware placement path: scenarios
        #: without fabric faults take the exact legacy name-order
        #: path, keeping their goldens byte-identical
        self._network_aware = bool(fabric_faults)
        #: gate for the step-factor recomposition path — fabric,
        #: straggler, and power faults all stretch the gang's steps
        self._factor_aware = (self._network_aware
                              or bool(straggler_faults)
                              or bool(power_faults))
        #: fabric segments currently cordoned by localization
        self.cordoned_segments: set[str] = set()
        self.gang_migrations = 0

        # -- hot-spare pool: the scenario's tail nodes become warm
        # standbys reserved for preemptive migration --
        self.spare_pool: HotSparePool | None = None
        if scenario.hot_spares > 0:
            self.spare_pool = HotSparePool(
                self.spare_node_names[-scenario.hot_spares:],
                swap_delay=scenario.spare_swap_delay,
                reschedule_delay=scenario.restart_delay,
                gang_gpus=scenario.pretrain_gpus)

        # -- straggler / power-cap state --
        self._straggler_states: list[_StragglerState] = []
        self._has_straggler_faults = bool(straggler_faults)
        self._deviation = StepTimeDeviationDetector(
            threshold=scenario.straggler_detect_threshold,
            patience=scenario.straggler_detect_patience)
        self._probe_baseline: tuple[float, int] | None = None
        self.stragglers_detected = 0
        self.silent_waste_gpu_seconds = 0.0
        #: open power-cap windows: fault index -> (factor, opened_at)
        self._active_power_caps: dict[int, tuple[float, float]] = {}
        self._power_factor = 1.0
        self.power_capped_seconds = 0.0

        def _windows(kind: str) -> list[tuple[float, float]]:
            return [(fault.time, fault.time + fault.duration)
                    for fault in storage_faults if fault.kind == kind]

        self.outage_windows = _windows("storage_outage")
        # checkpoints traverse the full fault stack: corruption closest
        # to the store (it poisons what lands on disk), slowdown and
        # outage layered above, all on the engine-backed clock
        self._clock = _EngineClock(self.engine)
        self._corrupting = CorruptingStorage(
            InMemoryStorage(), windows=_windows("ckpt_corruption") or (),
            clock=self._clock)
        faulty = SlowStorage(
            self._corrupting, delay=scenario.storage_slowdown_delay,
            windows=_windows("storage_slowdown") or (), clock=self._clock)
        faulty = FlakyStorage(faulty, windows=self.outage_windows or (),
                              clock=self._clock)
        self.storage = faulty
        self.checkpointer = SyncCheckpointer(
            faulty,
            retry=RetryPolicy(max_attempts=5, base_delay=5.0,
                              backoff=2.0, max_delay=120.0,
                              deadline=scenario.storage_persist_deadline,
                              jitter=0.0),
            clock=self._clock, tracer=self.tracer)

        self.catalog = CheckpointCatalog()
        self.controller = RecoveryController(
            DiagnosisSystem(tracer=self.tracer), self.catalog,
            self.nodes, leaf_of=self._leaf_by_name,
            pod_of_leaf=self._pod_of_leaf, spare_pool=self.spare_pool)
        self.pretrain = PretrainProcessFactory.build(
            self.engine, scenario, self._on_checkpoint, self._on_done,
            tracer=self.tracer)

        self.checker = InvariantChecker(
            scheduler=self.scheduler, nodes=self._by_name,
            placements=self.placements, pretrain=self.pretrain)
        self.checker.set_storage_context(
            self.outage_windows, horizon=scenario.duration,
            wedge_slack=(scenario.storage_retry_delay
                         + scenario.restart_delay))
        self.checker.set_network_context(
            self.link_health, scenario.network_min_factor,
            self.cordoned_segments)
        if self._factor_aware:
            self.checker.set_residual_stretch(
                self._expected_residual_stretch)
        if self._has_straggler_faults:
            self.checker.set_straggler_context(
                scenario.straggler_detect_bound)
        if self.spare_pool is not None:
            self.checker.set_spare_context(self.spare_pool)
        self.engine.add_listener(self.checker.check)

        self.event_log: list[tuple[float, str, str]] = []
        self.recoveries: list[_Recovery] = []
        self.absorbed_faults = 0
        self.resubmissions = 0
        self._pretrain_stopped_at: float | None = None
        self.pretrain_downtime = 0.0
        self.scheduler_lost_gpu_seconds = 0.0
        # -- storage & checkpoint-path accounting --
        self.checkpoints_persisted = 0
        self.checkpoints_degraded = 0
        self.checkpoints_failed = 0
        self.restore_fallbacks = 0
        self.fallback_lost_iterations = 0
        self.restores_deferred = 0
        self.storage_stall_seconds = 0.0
        self._quarantine_seen = 0
        # -- incremental-run lifecycle (start / advance / finish) --
        self._started = False
        self._detached = False
        self._finished = False

    # -- logging ------------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.event_log.append((self.engine.now, kind, detail))

    # -- component callbacks ------------------------------------------------

    def _collect_stall(self) -> float:
        """Charge the clock's virtual stall to the run and reset it."""
        stall = self._clock.offset
        self._clock.offset = 0.0
        self.storage_stall_seconds += stall
        return stall

    def _on_checkpoint(self, step: int) -> None:
        self._clock.offset = 0.0
        state = {"iteration": np.array([step], dtype=np.int64)}
        try:
            self.checkpointer.save(step, state)
        except CheckpointError:
            self._collect_stall()
            self.checkpoints_failed += 1
            self.checker.record_persist(self.engine.now, step, False)
            self.controller.record_storage_alert(
                step, f"persist failed "
                      f"(health={self.checkpointer.health.value})")
            self._log("checkpoint_failed",
                      f"step={step} "
                      f"health={self.checkpointer.health.value}")
            return
        stall = self._collect_stall()
        self.checkpoints_persisted += 1
        self.catalog.add(step)
        self.checker.record_persist(self.engine.now, step, True)
        if _checkpoint_key(step) in self._corrupting.corrupted_keys:
            # silent bit rot: the write "succeeded" but the generation
            # is poisoned; only a future restore's checksum can tell
            self.checker.record_corrupt_write(step)
        result = self.checkpointer.last_result
        attempts = result.attempts if result is not None else 1
        if attempts > 1 or stall > 0.0:
            self.checkpoints_degraded += 1
            self.controller.record_storage_alert(
                step, f"persist degraded (attempts={attempts}, "
                      f"stall={stall:.1f}s)")
            self._log("checkpoint_degraded",
                      f"step={step} attempts={attempts} "
                      f"stall={stall:.1f}")
        else:
            self._log("checkpoint", f"step={step}")

    def _on_done(self, step: int) -> None:
        self._log("pretrain_done", f"step={step}")

    def _on_scheduler_event(self, kind: str, job: Job) -> None:
        self._log(f"job_{kind}",
                  f"{job.job_id} type={job.job_type.value} "
                  f"gpus={job.gpu_demand}")

    # -- run ----------------------------------------------------------------

    def run(self) -> ChaosResult:
        """Execute the scenario; returns the log, summary, and checker.

        Equivalent to ``start(); advance(duration); finish()`` — the
        incremental lifecycle used by ``repro.service`` — with the
        detach guaranteed even when the run raises mid-horizon.
        """
        self.start()
        try:
            self.advance(self.scenario.duration)
        finally:
            self._detach()
        return self.finish()

    def start(self) -> None:
        """Arm the scenario on the engine without running it.

        Schedules the pretraining gang, background jobs, the fault
        schedule, and the straggler probe; after this the engine can be
        driven in incremental horizons via :meth:`advance`.
        """
        if self._started:
            raise SimulationError("harness already started")
        self._started = True
        scenario = self.scenario
        self._log("scenario_start",
                  f"{scenario.name} seed={scenario.seed} "
                  f"nodes={scenario.n_nodes} faults={len(self.faults)}")
        self.pretrain.start()
        self._log("pretrain_start",
                  f"gpus={scenario.pretrain_gpus} "
                  f"nodes={','.join(sorted(self.placements))}")
        for job in scenario.build_background_jobs():
            self.scheduler.submit(job)
        for index, fault in enumerate(self.faults):
            self.engine.call_at(fault.time,
                                lambda i=index, f=fault:
                                self._inject(i, f))
        if self._has_straggler_faults:
            # periodic step-time probe: stragglers emit no failure log
            # line, so detection must come from timeseries deviation
            self.engine.call_after(scenario.straggler_probe_interval,
                                   self._straggler_probe)

    def advance(self, until: float) -> float:
        """Run the armed scenario up to simulated time ``until``.

        Horizons are cumulative and monotone; partitioning a run into
        any sequence of ``advance`` calls is event-for-event identical
        to one batch run to the final horizon (the engine's ``until``
        never consumes sequence numbers).  Returns the engine clock.
        """
        self.check_horizon(until)
        return self.engine.run(until=until)

    def check_horizon(self, until: float) -> None:
        """Raise :class:`SimulationError` unless ``advance(until)`` may
        run: the harness is started, not finished, and ``until`` is not
        behind the clock."""
        if not self._started:
            raise SimulationError("advance() before start()")
        if self._finished:
            raise SimulationError("advance() after finish()")
        if until < self.engine.now:
            raise SimulationError(
                f"cannot advance backwards: {until} < {self.engine.now}")

    def _detach(self) -> None:
        """Unhook the invariant checker and tracer (idempotent).

        A reused engine (or a second harness in one process) must never
        fire a stale checker, and the tracer's event-count listener
        goes with it.
        """
        if self._detached:
            return
        self._detached = True
        self.engine.remove_listener(self.checker.check)
        self.tracer.detach(self.engine)

    def finish(self) -> ChaosResult:
        """Tear down and summarize an armed run (listeners detached)."""
        if not self._started:
            raise SimulationError("finish() before start()")
        if self._finished:
            raise SimulationError("finish() called twice")
        self._finished = True
        self._detach()
        for recovery in self.recoveries:
            # a recovery still open at the horizon (stalled gang,
            # deferred restore) shows up in the trace as unresolved
            if recovery.span is not None and recovery.span.end is None:
                self.tracer.end(recovery.span, outcome="unresolved")
        if self._pretrain_stopped_at is not None:
            self.pretrain_downtime += (self.engine.now
                                       - self._pretrain_stopped_at)
            self._pretrain_stopped_at = None
        if self.pretrain.running:
            self.pretrain.interrupt("scenario deadline")
        self._finalize_failure_domains()
        self.checker.final_check(
            fallback_lost_iterations=self.fallback_lost_iterations)
        self._log("scenario_end",
                  f"iteration={self.pretrain.iteration} "
                  f"restarts={self.pretrain.restarts}")
        summary = summarize(self)
        return ChaosResult(scenario=self.scenario,
                           event_log=self.event_log,
                           summary=summary, checker=self.checker)

    # -- fault injection ----------------------------------------------------

    def _inject(self, index: int, fault: InjectedFault) -> None:
        self._log("fault_injected",
                  f"#{index} kind={fault.kind} "
                  f"reason={fault.reason or '-'} target={fault.target}")
        self.tracer.instant(f"fault:{fault.kind}", "chaos",
                            index=index, target=fault.target,
                            reason=fault.reason)
        self.tracer.count("chaos.faults_injected")
        if fault.kind == "failure":
            if fault.target == "pretrain":
                self._fail_pretrain(index, fault)
            else:
                self._fail_scheduler_job(index, fault)
        elif fault.kind in ("loss_spike", "hang"):
            self._anomaly(index, fault)
        elif fault.kind in STORAGE_FAULT_KINDS:
            self._storage_fault(index, fault)
        elif fault.kind in FABRIC_FAULT_KINDS:
            self._network_fault(index, fault)
        elif fault.kind in STRAGGLER_FAULT_KINDS:
            self._straggler_fault(index, fault)
        elif fault.kind in POWER_FAULT_KINDS:
            self._power_fault(index, fault)
        else:
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    def _fail_pretrain(self, index: int, fault: InjectedFault) -> None:
        if not self.pretrain.running:
            self.absorbed_faults += 1
            self._log("fault_absorbed", f"#{index} pretrain not running")
            if fault.category is FailureCategory.INFRASTRUCTURE:
                # still diagnose-and-cordon: broken hardware does not heal
                # because the gang happened to be down
                plan = self._diagnose(fault, self._pretrain_victim(fault))
                self.checker.record_infra_plan(index, plan)
                self._apply_cordons(plan)
            return
        victim = self._pretrain_victim(fault)
        step_at_failure = self.pretrain.interrupt(fault.reason or "")
        self._pretrain_stopped_at = self.engine.now
        self._log("pretrain_interrupt",
                  f"step={step_at_failure} reason={fault.reason} "
                  f"victim={victim}")
        plan = self._diagnose(fault, victim)
        if fault.category is FailureCategory.INFRASTRUCTURE:
            self.checker.record_infra_plan(index, plan)
        self._apply_cordons(plan)
        recovery = self._track_recovery(index, fault, plan)
        if plan.restart:
            step = min(plan.restart_checkpoint_step or 0, step_at_failure)
            self._restart_pretrain(step, step_at_failure, recovery)
        else:
            reason = plan.diagnosis.reason if plan.diagnosis else "anomaly"
            self._log("pretrain_stalled", f"no restart planned ({reason})")

    def _fail_scheduler_job(self, index: int, fault: InjectedFault
                            ) -> None:
        running = self.scheduler.running_jobs()
        if not running:
            self.absorbed_faults += 1
            self._log("fault_absorbed", f"#{index} no running job")
            if fault.category is FailureCategory.INFRASTRUCTURE:
                plan = self._diagnose(fault, self._pool_victim(fault))
                self.checker.record_infra_plan(index, plan)
                self._apply_cordons(plan)
            return
        victim_job = running[fault.node_index % len(running)]
        elapsed = self.engine.now - (victim_job.start_time or 0.0)
        self.scheduler_lost_gpu_seconds += (elapsed
                                            * victim_job.gpu_demand)
        self.scheduler.fail_job(victim_job.job_id, fault.reason)
        victim_node = self._pool_victim(fault)
        plan = self._diagnose(fault, victim_node)
        if fault.category is FailureCategory.INFRASTRUCTURE:
            self.checker.record_infra_plan(index, plan)
        self._apply_cordons(plan)
        recovery = self._track_recovery(index, fault, plan)
        if plan.restart:
            self._resubmit(victim_job, recovery)
        else:
            self._log("job_not_restarted",
                      f"{victim_job.job_id} ({fault.reason}: script "
                      "errors fail identically)")

    def _anomaly(self, index: int, fault: InjectedFault) -> None:
        if not self.pretrain.running:
            self.absorbed_faults += 1
            self._log("fault_absorbed", f"#{index} pretrain not running")
            return
        step_at_failure = self.pretrain.interrupt(fault.kind)
        self._pretrain_stopped_at = self.engine.now
        self._log("pretrain_interrupt",
                  f"step={step_at_failure} reason={fault.kind}")
        event = AnomalyEvent(kind=fault.kind, step=step_at_failure,
                             detail=f"injected by chaos fault #{index}")
        tester = (CollectiveTester({self._pretrain_victim(fault)})
                  if fault.kind == "hang" else None)
        plan = self.controller.handle_anomaly(event, tester)
        self._log_plan(plan)
        self._apply_cordons(plan)
        recovery = self._track_recovery(index, fault, plan)
        if plan.restart:
            step = min(plan.restart_checkpoint_step or 0, step_at_failure)
            self._restart_pretrain(step, step_at_failure, recovery)
        else:
            # a loss spike with no checkpoint: nothing to roll back to;
            # resume in place rather than abandoning the campaign
            self._log("pretrain_resume_in_place",
                      f"step={step_at_failure} (no rollback target)")
            self._restart_pretrain(step_at_failure, step_at_failure,
                                   recovery, restore=False)

    def _storage_fault(self, index: int, fault: InjectedFault) -> None:
        """Mark a storage fault window opening (and schedule its close).

        The window itself is already armed inside the fault decorators
        (built at init from the same schedule); this only narrates it,
        so checkpoint traffic hitting the window shows up in context.
        """
        end = fault.time + fault.duration
        self._log("storage_fault_begin",
                  f"#{index} kind={fault.kind} until={end:.3f}")
        self.tracer.complete(f"window:{fault.kind}", fault.time, end,
                             "chaos.storage", index=index)
        self.engine.call_at(end, lambda: self._log(
            "storage_fault_end", f"#{index} kind={fault.kind}"))

    def _network_fault(self, index: int, fault: InjectedFault) -> None:
        """A fabric link/switch fault window opens.

        Like storage windows, the degradation itself is already armed
        inside the :class:`LinkHealth` overlay built at init; this
        reacts to it — slowing or interrupting the gang, localizing the
        sick link, and cordoning what the test convicts.
        """
        end = fault.time + fault.duration
        self._log("network_fault_begin",
                  f"#{index} kind={fault.kind} link={fault.link} "
                  f"until={end:.3f}")
        self.tracer.complete(f"window:{fault.kind}", fault.time, end,
                             "chaos.network", index=index,
                             link=fault.link)
        self.engine.call_at(end, lambda i=index, f=fault:
                            self._network_fault_end(i, f))
        if fault.kind in _SOFT_FABRIC_KINDS:
            # a slow link (or a partially-partitioned link set) does
            # not kill the job — it stretches every step until
            # monitoring notices and reacts
            self._refresh_gang_factor()
            self.engine.call_after(
                self.scenario.degraded_detect_delay,
                lambda i=index, f=fault: self._detect_degradation(i, f))
            return
        self._hard_network_fault(index, fault)

    def _hard_network_fault(self, index: int,
                            fault: InjectedFault) -> None:
        """A link or switch died outright: collectives on it fail now."""
        gang_hosts = sorted(self.placements)
        down_crossed: list[str] = []
        if len(gang_hosts) > 1:
            group = [self.node_index[name] for name in gang_hosts]
            down_crossed = self.fabric.down_links_crossed(
                group, self.engine.now)
        if down_crossed and self.pretrain.running:
            step_at_failure = self.pretrain.interrupt(fault.kind)
            self._pretrain_stopped_at = self.engine.now
            self._log("pretrain_interrupt",
                      f"step={step_at_failure} reason={fault.reason} "
                      f"links={','.join(down_crossed)}")
            plan = self._localize(fault, restart=True)
            self.checker.record_infra_plan(index, plan)
            self._apply_cordons(plan)
            self._apply_segment_cordons(plan)
            recovery = self._track_recovery(index, fault, plan)
            step = min(plan.restart_checkpoint_step or 0,
                       step_at_failure)
            self._restart_pretrain(step, step_at_failure, recovery)
            return
        # The fault missed the gang's collective path (or the gang is
        # already down): still localize and cordon, so placement routes
        # around the sick fabric — broken links do not heal because
        # nobody was using them.  No restart is planned.
        plan = self._localize(fault, restart=False)
        self._apply_cordons(plan)
        self._apply_segment_cordons(plan)
        self._refresh_gang_factor()

    def _detect_degradation(self, index: int,
                            fault: InjectedFault) -> None:
        """Monitoring noticed a slow link; migrate if the gang suffers."""
        end = fault.time + fault.duration
        if self.engine.now >= end:
            return  # the window closed before detection fired
        if not self.pretrain.running:
            return  # gang already down; recovery will re-place it
        gang_hosts = sorted(self.placements)
        if len(gang_hosts) <= 1:
            return
        group = [self.node_index[name] for name in gang_hosts]
        factor = self.fabric.group_health_factor(group, self.engine.now)
        if factor >= self.scenario.network_min_factor:
            self._log("degradation_tolerated",
                      f"#{index} gang factor {factor:.3f} at or above "
                      f"threshold {self.scenario.network_min_factor}")
            return
        # The gang is communication-bound on a sick path: pause (the
        # iteration in flight is kept — this is a migration, not a
        # failure), localize, and resume on healthy fabric.
        step = self.pretrain.interrupt(fault.kind)
        self._pretrain_stopped_at = self.engine.now
        self._log("pretrain_interrupt",
                  f"step={step} reason=degraded_link "
                  f"factor={factor:.3f}")
        plan = self._localize(fault, restart=False)
        if plan.cordoned_nodes or plan.cordoned_segments:
            self.checker.record_infra_plan(index, plan)
        self._apply_cordons(plan)
        self._apply_segment_cordons(plan)
        # detection genuinely lagged injection here: the window opened
        # at fault.time, monitoring fired degraded_detect_delay later
        recovery = self._track_recovery(index, fault, plan,
                                        injected=fault.time)
        self._restart_pretrain(step, step, recovery, restore=False)

    def _network_fault_end(self, index: int,
                           fault: InjectedFault) -> None:
        """A fault window closed: repair healed segments, restore speed."""
        self._log("network_fault_end",
                  f"#{index} kind={fault.kind} link={fault.link}")
        now = self.engine.now
        healed = [segment for segment in sorted(self.cordoned_segments)
                  if (self.link_health.factor(segment, now)
                      >= self.scenario.network_min_factor)]
        for segment in healed:
            self.cordoned_segments.discard(segment)
            self._log("segment_repaired", segment)
        self._refresh_gang_factor()

    def _localize(self, fault: InjectedFault,
                  restart: bool) -> RecoveryPlan:
        """Run topology-aware localization against the live fabric."""
        tester = self._build_fabric_tester()
        plan = self.controller.handle_network_fault(
            f"{fault.kind} on {fault.link}", tester, restart=restart)
        self._log_plan(plan)
        now = self.engine.now
        for name in sorted(plan.cordoned_nodes):
            # invariant 14: a convicted node's fabric path must really
            # be sick — partial partitions never convict a healthy side
            index = self.node_index[name]
            leaf = self._leaf_by_name[name]
            path = min(self.link_health.factor(nic_link(index), now),
                       self.link_health.factor(leaf_link(leaf), now))
            if self._pod_of_leaf is not None:
                path = min(path, self.link_health.factor(
                    pod_link(self._pod_of_leaf[leaf]), now))
            self.checker.record_node_conviction(now, name, path)
        return plan

    def _build_fabric_tester(self) -> FabricCollectiveTester:
        """Snapshot live link health into a pass/fail probe oracle."""
        now = self.engine.now
        node_factors = {
            name: self.link_health.factor(nic_link(index), now)
            for name, index in sorted(self.node_index.items())}
        segment_factors = {
            leaf_link(leaf): self.link_health.factor(
                leaf_link(leaf), now)
            for leaf in range(self.fabric_config.leaf_count)}
        if self._pod_of_leaf is not None:
            for pod in range(self.fabric_config.pod_count):
                segment_factors[pod_link(pod)] = self.link_health.factor(
                    pod_link(pod), now)
        return FabricCollectiveTester(
            self._leaf_by_name, node_factors=node_factors,
            segment_factors=segment_factors,
            min_factor=self.scenario.network_min_factor,
            pod_of_leaf=self._pod_of_leaf)

    def _apply_segment_cordons(self, plan: RecoveryPlan) -> None:
        for segment in sorted(plan.cordoned_segments):
            if segment in self.cordoned_segments:
                continue
            self.cordoned_segments.add(segment)
            self.checker.record_segment_conviction(self.engine.now,
                                                   segment)
            self.tracer.count("network.segments_cordoned")
            self._log("segment_cordon", segment)

    def _refresh_gang_factor(self) -> None:
        """Re-derive the gang's step factor from live failure domains.

        Composes fabric bandwidth, the slowest undetected straggler
        still hosting the gang, and the fleet-wide power cap.  With no
        straggler or power pressure the composition multiplies by 1.0
        exactly, so fabric-only scenarios keep byte-identical logs.
        """
        gang_hosts = sorted(self.placements)
        factor = 1.0
        if len(gang_hosts) > 1:
            group = [self.node_index[name] for name in gang_hosts]
            factor = self.fabric.group_health_factor(group,
                                                     self.engine.now)
        if factor <= 0.0:
            # a downed link is an interruption, not a slowdown; the
            # hard-fault path owns it
            return
        slow = self._gang_slow_factor()
        stretch = ((1.0 / factor) * (1.0 / slow)
                   * (1.0 / self._power_factor))
        if stretch != self.pretrain.step_factor:
            self.pretrain.set_step_factor(stretch)
            self.tracer.set_gauge("network.gang_bandwidth_factor",
                                  factor)
            self._log("gang_step_factor",
                      f"bandwidth_factor={factor:.3f} "
                      f"step_stretch={stretch:.3f}")

    # -- stragglers & power caps --------------------------------------------

    def _gang_slow_factor(self) -> float:
        """Slowest undetected straggler currently hosting the gang."""
        slow = 1.0
        for state in self._straggler_states:
            if state.detected_at is None and state.node in self.placements:
                slow = min(slow, state.factor)
        return slow

    def _expected_residual_stretch(self) -> float:
        """What :meth:`_refresh_gang_factor` composes beyond the fabric.

        The invariant checker compares the gang's step factor against
        this once all fabric windows close: undetected stragglers and
        open power caps legitimately keep the gang stretched.
        """
        return ((1.0 / self._gang_slow_factor())
                * (1.0 / self._power_factor))

    def _straggler_fault(self, index: int, fault: InjectedFault) -> None:
        """A node starts quietly under-delivering.  No failure line is
        logged on its behalf — detection must come from step-time
        deviation, not log parsing."""
        hosts = sorted(self.placements)
        if not hosts:
            self.absorbed_faults += 1
            self._log("fault_absorbed",
                      f"#{index} gang unplaced; no host to degrade")
            return
        node = hosts[fault.node_index % len(hosts)]
        if fault.kind == "silent_degrader":
            decay = self.scenario.silent_decay
            floor = self.scenario.silent_floor
        else:
            decay = self.scenario.straggler_decay
            floor = self.scenario.straggler_floor
        state = _StragglerState(index=index, fault=fault, node=node,
                                decay=decay, floor=floor,
                                last_accrual=self.engine.now)
        self._straggler_states.append(state)
        self.checker.record_straggler(index, self.engine.now,
                                      fault.kind, node)
        self.engine.call_after(self.scenario.straggler_ramp_interval,
                               lambda s=state: self._straggler_ramp(s))

    def _straggler_ramp(self, state: _StragglerState) -> None:
        """One decay tick: the node's step contribution slips further."""
        if state.detected_at is not None:
            return
        self._accrue_straggler(state)
        new_factor = max(state.factor * state.decay, state.floor)
        if new_factor != state.factor:
            state.factor = new_factor
            self._refresh_gang_factor()
        self.engine.call_after(self.scenario.straggler_ramp_interval,
                               lambda s=state: self._straggler_ramp(s))

    def _accrue_straggler(self, state: _StragglerState) -> None:
        """Charge the capacity quietly lost since the last accrual."""
        now = self.engine.now
        if state.node in self.placements:
            state.waste_gpu_seconds += ((1.0 - state.factor)
                                        * (now - state.last_accrual)
                                        * GPUS_PER_NODE)
        state.last_accrual = now

    def _known_stretch(self) -> float:
        """Step stretch explained by *known* causes (fabric, power).

        The deviation probe divides this out, so only unexplained
        slowdown — a straggler — trips the detector.
        """
        factor = 1.0
        gang_hosts = sorted(self.placements)
        if len(gang_hosts) > 1:
            group = [self.node_index[name] for name in gang_hosts]
            factor = self.fabric.group_health_factor(group,
                                                     self.engine.now)
        if factor <= 0.0:
            factor = 1.0
        return (1.0 / factor) * (1.0 / self._power_factor)

    def _straggler_probe(self) -> None:
        """Periodic step-time sample feeding the deviation detector."""
        self.engine.call_after(self.scenario.straggler_probe_interval,
                               self._straggler_probe)
        if not self.pretrain.running:
            self._probe_baseline = None
            return
        now = self.engine.now
        baseline = self._probe_baseline
        self._probe_baseline = (now, self.pretrain.iteration)
        if baseline is None:
            return
        steps = self.pretrain.iteration - baseline[1]
        if steps <= 0:
            return
        observed = (now - baseline[0]) / steps
        expected = self._known_stretch() * self.scenario.step_time
        ratio = observed / expected
        event = self._deviation.observe(self.pretrain.iteration, ratio)
        if event is None:
            return
        self._log("deviation_detected",
                  f"step={event.step} observed/expected={ratio:.2f}x "
                  f"({event.detail})")
        self.tracer.count("chaos.deviations_detected")
        self._convict_stragglers()

    def _convict_stragglers(self) -> None:
        """DCGM scan after a deviation fired: convict the slow nodes."""
        now = self.engine.now
        node_factors = {name: 1.0 for name in sorted(self.placements)}
        for state in self._straggler_states:
            if state.detected_at is None and state.node in node_factors:
                node_factors[state.node] = min(
                    node_factors[state.node], state.factor)
        threshold = self.scenario.straggler_conviction_factor
        slow = sorted(name for name, factor in node_factors.items()
                      if factor < threshold)
        if not slow:
            # deviation without a culprit below the conviction bar —
            # a silent degrader hiding inside the noise floor
            self._log("deviation_unattributed",
                      f"dcgm scan found no node below {threshold:.2f}; "
                      "no action")
            return
        step = self.pretrain.interrupt("straggler")
        self._pretrain_stopped_at = now
        self._log("pretrain_interrupt",
                  f"step={step} reason=straggler "
                  f"nodes={','.join(slow)}")
        plan = self.controller.handle_straggler(
            f"step-time deviation at step {step}", node_factors,
            min_factor=threshold)
        self._log_plan(plan)
        convicted: list[_StragglerState] = []
        for state in self._straggler_states:
            if (state.detected_at is None
                    and state.node in plan.cordoned_nodes):
                self._accrue_straggler(state)
                state.detected_at = now
                convicted.append(state)
                self.stragglers_detected += 1
                self.checker.record_straggler_detected(state.index, now)
                self.checker.record_infra_plan(state.index, plan)
        self._apply_cordons(plan)
        primary = convicted[0] if convicted else None
        injected = (min(state.fault.time for state in convicted)
                    if convicted else now)
        index = primary.index if primary is not None else -1
        fault = (primary.fault if primary is not None
                 else InjectedFault(time=now, kind="straggler",
                                    reason=None, node_index=0,
                                    log_seed=0, target="pretrain"))
        recovery = self._track_recovery(index, fault, plan,
                                        injected=injected,
                                        detected=now, localized=now)
        self._restart_pretrain(step, step, recovery, restore=False)

    def _power_fault(self, index: int, fault: InjectedFault) -> None:
        """A facility power cap opens: the whole fleet steps slower."""
        end = fault.time + fault.duration
        factor = fault.factor if fault.factor is not None else 1.0
        self._log("power_cap_begin",
                  f"#{index} step_factor={factor:.3f} until={end:.3f}")
        self.tracer.complete(f"window:{fault.kind}", fault.time, end,
                             "chaos.power", index=index, factor=factor)
        self._active_power_caps[index] = (factor, self.engine.now)
        self._power_factor = min(
            f for f, _ in self._active_power_caps.values())
        self._refresh_gang_factor()
        self.engine.call_at(end,
                            lambda i=index: self._power_fault_end(i))

    def _power_fault_end(self, index: int) -> None:
        factor, start = self._active_power_caps.pop(index)
        self.power_capped_seconds += self.engine.now - start
        if self._active_power_caps:
            self._power_factor = min(
                f for f, _ in self._active_power_caps.values())
        else:
            self._power_factor = 1.0
        self._log("power_cap_end", f"#{index} step_factor restored")
        self._refresh_gang_factor()

    def _finalize_failure_domains(self) -> None:
        """Horizon bookkeeping for stragglers and still-open power caps."""
        if self._factor_aware:
            # make the gang's step factor consistent with live state
            # before the checker's residual-stretch comparison
            self._refresh_gang_factor()
        for _, (_, start) in sorted(self._active_power_caps.items()):
            self.power_capped_seconds += self.engine.now - start
        for state in self._straggler_states:
            if state.detected_at is not None:
                continue
            self._accrue_straggler(state)
            self.silent_waste_gpu_seconds += state.waste_gpu_seconds
            self.checker.record_silent_waste(
                state.index, state.waste_gpu_seconds / 3600.0)
            self._log("silent_straggler",
                      f"#{state.index} {state.node} "
                      f"kind={state.fault.kind} "
                      f"factor={state.factor:.3f} "
                      f"waste={state.waste_gpu_seconds / 3600.0:.2f} "
                      "GPU-h (never detected)")

    # -- recovery mechanics -------------------------------------------------

    def _track_recovery(self, index: int, fault: InjectedFault,
                        plan: RecoveryPlan, *,
                        injected: float | None = None,
                        detected: float | None = None,
                        localized: float | None = None) -> _Recovery:
        """Open one fault → resume episode (and its trace span).

        ``injected`` / ``detected`` / ``localized`` pin the stage
        timestamps for the MTTD/MTTL/MTTR decomposition.  They default
        to *now*, which is exact for crash-style faults — the failure
        announces itself and localization runs inline — and are
        overridden on the degradation and straggler paths, where
        detection genuinely lags injection.
        """
        now = self.engine.now
        recovery = _Recovery(
            fault_time=now, plan=plan, kind=fault.kind,
            injected_time=now if injected is None else injected,
            detect_time=now if detected is None else detected,
            localize_time=now if localized is None else localized)
        recovery.span = self.tracer.begin(
            f"recovery:{fault.kind}", "chaos.recovery", index=index,
            target=fault.target, reason=fault.reason)
        self.recoveries.append(recovery)
        return recovery

    def _diagnose(self, fault: InjectedFault, victim: str) -> RecoveryPlan:
        log = LogGenerator(seed=fault.log_seed).failed_log(
            fault.reason, n_steps=30)
        tester = (CollectiveTester({victim})
                  if fault.category is FailureCategory.INFRASTRUCTURE
                  else None)
        plan = self.controller.handle_failure(log.lines, tester)
        self._log_plan(plan)
        return plan

    def _log_plan(self, plan: RecoveryPlan) -> None:
        for action in plan.actions:
            self._log(f"recovery_{action.kind}", action.detail)
        for victim, spare in sorted(plan.spare_swaps.items()):
            self.tracer.count("chaos.spare_swaps")
            self.checker.record_spare_swap(self.engine.now, victim,
                                           spare)

    def _apply_cordons(self, plan: RecoveryPlan) -> None:
        for name in sorted(plan.cordoned_nodes):
            self.placements.pop(name, None)
            if name in self.pool_node_names:
                self.scheduler.cordon_gpus(GPUS_PER_NODE)
                self._log("pool_cordon",
                          f"{name}: -{GPUS_PER_NODE} GPUs from pool")
            node = self._by_name[name]
            if node.health is NodeHealth.CORDONED:
                self.engine.call_after(
                    self.scenario.repair_delay,
                    lambda n=name: self._repair(n))

    def _repair(self, name: str) -> None:
        node = self._by_name[name]
        if node.health is not NodeHealth.CORDONED:
            return  # escalated to FAULTY meanwhile; stays out
        node.uncordon()
        self._log("node_repaired", name)
        if self.spare_pool is not None:
            spare = self.spare_pool.reclaim(name)
            if spare is not None:
                self._log("spare_reclaimed",
                          f"{name} rotates in as warm standby "
                          f"(covered by {spare})")
        if name in self.pool_node_names:
            self.scheduler.uncordon_gpus(GPUS_PER_NODE)

    def _pretrain_victim(self, fault: InjectedFault) -> str:
        hosts = sorted(self.placements)
        if self.scenario.pin_node is not None:
            pinned = self.nodes[self.scenario.pin_node].name
            if pinned in self.placements or not hosts:
                return pinned
        if not hosts:  # gang currently unplaced; blame the pinned/first
            return self.nodes[fault.node_index % len(self.nodes)].name
        return hosts[fault.node_index % len(hosts)]

    def _pool_victim(self, fault: InjectedFault) -> str:
        schedulable = [name for name in self.pool_node_names
                       if self._by_name[name].schedulable]
        pool = schedulable or self.pool_node_names
        return pool[fault.node_index % len(pool)]

    def _restart_pretrain(self, step: int, step_at_failure: int,
                          recovery: _Recovery,
                          restore: bool = True) -> None:
        actual = step
        if restore and step > 0:
            loaded = self._attempt_restore(step)
            if loaded is None:  # backend unreachable: park and retry
                self._defer_restore(step, step_at_failure, recovery)
                return
            actual = loaded
        if recovery.deferred:
            recovery.deferred = False
            self.checker.record_restore_resolved()
        hosts, via_swap = self._swap_or_place(recovery.plan)
        if hosts is None:
            self._log("pretrain_stalled",
                      "not enough healthy nodes to re-place the gang")
            return
        previous_hosts = set(self.placements)
        self.placements.clear()
        self.placements.update({name: PRETRAIN_JOB_ID for name in hosts})
        if self._network_aware:
            down_crossed: list[str] = []
            if len(hosts) > 1:
                group = [self.node_index[name] for name in hosts]
                down_crossed = self.fabric.down_links_crossed(
                    group, self.engine.now)
            self.checker.record_gang_placement(self.engine.now,
                                               down_crossed)
            if previous_hosts and set(hosts) != previous_hosts:
                self.gang_migrations += 1
                self.tracer.count("network.gang_migrations")
                self._log("gang_migrated",
                          f"{','.join(sorted(previous_hosts))} -> "
                          f"{','.join(sorted(hosts))}")
        elif (via_swap and previous_hosts
                and set(hosts) != previous_hosts):
            self.gang_migrations += 1
            self.tracer.count("network.gang_migrations")
            self._log("gang_migrated",
                      f"{','.join(sorted(previous_hosts))} -> "
                      f"{','.join(sorted(hosts))}")
        if self._factor_aware:
            self._refresh_gang_factor()
        delay = (self.spare_pool.swap_delay
                 if via_swap and self.spare_pool is not None
                 else self.scenario.restart_delay)
        resume_at = self.engine.now + delay
        recovery.resume_time = resume_at
        if recovery.span is not None:
            self.tracer.end(recovery.span, at=resume_at,
                            outcome="restarted", step=actual,
                            lost=step_at_failure - actual)
        if self._pretrain_stopped_at is not None:
            self.pretrain_downtime += resume_at - self._pretrain_stopped_at
            self._pretrain_stopped_at = None
        self.checker.record_restart(self.engine.now, step_at_failure,
                                    actual)
        self.pretrain.restart_from(actual, delay)
        self._probe_baseline = None
        self._log("pretrain_restart",
                  f"step={actual} lost={step_at_failure - actual} "
                  f"resume_at={resume_at:.3f} "
                  f"nodes={','.join(sorted(hosts))}")

    def _swap_or_place(self, plan: RecoveryPlan | None
                       ) -> tuple[list[str] | None, bool]:
        """Preemptive migration when the plan swapped in hot spares.

        Victims leave the gang during :meth:`_apply_cordons`; spares
        from the plan fill their slots directly, skipping the full
        gang reschedule (the point of keeping warm standbys).  Falls
        back to :meth:`_place_gang` when the composed group does not
        add up to a schedulable gang.
        """
        if (self.spare_pool is not None and plan is not None
                and plan.spare_swaps):
            candidate = sorted(set(self.placements)
                               | set(plan.spare_swaps.values()))
            if (len(candidate) == self.scenario.gang_nodes
                    and all(self._by_name[name].schedulable
                            for name in candidate)):
                return candidate, True
        return self._place_gang(), False

    def _attempt_restore(self, step: int) -> int | None:
        """Load the restart generation through the faulty backend.

        Returns the step actually restored (0 = from scratch; may be
        older than ``step`` after falling back past corrupt
        generations), or None when the backend is unreachable and the
        restore must be deferred.
        """
        self._clock.offset = 0.0
        try:
            loaded = self.checkpointer.load_at_or_before(step)
        except StorageError:
            self._collect_stall()
            self._drain_quarantine()
            return None
        self._collect_stall()
        self._drain_quarantine()
        if loaded is None:
            self._log("restore_scratch",
                      f"planned={step} (no readable generation)")
            self.checker.record_restore(self.engine.now, step, 0)
            return 0
        actual = loaded[0]
        if actual < step:
            self.restore_fallbacks += 1
            self.fallback_lost_iterations += step - actual
            self._log("restore_fallback",
                      f"planned={step} actual={actual} "
                      f"extra_lost={step - actual}")
        self.checker.record_restore(self.engine.now, step, actual)
        return actual

    def _drain_quarantine(self) -> None:
        """Propagate fresh quarantines into the catalog and checker."""
        fresh = self.checkpointer.quarantined[self._quarantine_seen:]
        self._quarantine_seen = len(self.checkpointer.quarantined)
        for qstep, reason in fresh:
            self.catalog.mark_bad(qstep)
            self.checker.record_quarantine(qstep)
            self.tracer.count("checkpoint.quarantined")
            self._log("ckpt_quarantined",
                      f"step={qstep} reason={reason}")

    def _defer_restore(self, step: int, step_at_failure: int,
                       recovery: _Recovery) -> None:
        """Park a restore the backend cannot serve; retry after a delay.

        The gang stays down (downtime keeps accruing) until a retry
        lands after the outage window closes.
        """
        self.restores_deferred += 1
        self.tracer.count("chaos.restores_deferred")
        if not recovery.deferred:
            recovery.deferred = True
            self.checker.record_restore_deferred()
        retry_at = self.engine.now + self.scenario.storage_retry_delay
        self._log("restore_deferred",
                  f"step={step} retry_at={retry_at:.3f} "
                  "(storage unreachable)")
        self.engine.call_after(
            self.scenario.storage_retry_delay,
            lambda: self._restart_pretrain(step, step_at_failure,
                                           recovery))

    def _place_gang(self) -> list[str] | None:
        """Pick gang nodes: healthy non-pool nodes, name order.

        Repaired nodes re-enter this pool, so a flaky node that keeps
        passing repair can rejoin the gang — and be convicted again,
        which is what drives cordon escalation.

        Scenarios with network faults take the topology-aware path
        instead: nodes behind sick NICs are skipped, a single leaf with
        enough capacity is preferred (full bandwidth, no uplink
        exposure), and cross-leaf groups only assemble over uplinks
        that are neither cordoned nor running below the health
        threshold.  With a pod-spanning fabric, single-pod groups are
        preferred (no core-tier exposure) and cross-pod groups only
        span pods with healthy uplinks.
        """
        candidates = sorted(node.name for node in self.nodes
                            if node.name not in self.pool_node_names)
        if self.spare_pool is not None:
            # warm standbys are reserved for swaps, not open placement
            reserved = set(self.spare_pool.available)
            candidates = [name for name in candidates
                          if name not in reserved]
        need = self.scenario.gang_nodes
        if not self._network_aware:
            healthy = [name for name in candidates
                       if self._by_name[name].schedulable]
            if len(healthy) < need:
                return None
            return healthy[:need]
        now = self.engine.now
        threshold = self.scenario.network_min_factor
        healthy = [name for name in candidates
                   if self._by_name[name].schedulable
                   and (self.link_health.factor(
                       nic_link(self.node_index[name]), now)
                       >= threshold)]
        if len(healthy) < need:
            return None
        if need == 1:
            return healthy[:1]
        by_leaf: dict[int, list[str]] = {}
        for name in healthy:
            by_leaf.setdefault(self._leaf_by_name[name],
                               []).append(name)
        for leaf in sorted(by_leaf):
            if len(by_leaf[leaf]) >= need:
                return by_leaf[leaf][:need]

        def leaf_ok(leaf: int) -> bool:
            segment = leaf_link(leaf)
            return (segment not in self.cordoned_segments
                    and self.link_health.factor(segment, now)
                    >= threshold)

        if self._pod_of_leaf is None:
            assembled: list[str] = []
            for leaf in sorted(by_leaf):
                if not leaf_ok(leaf):
                    continue
                assembled.extend(by_leaf[leaf])
                if len(assembled) >= need:
                    return assembled[:need]
            return None

        def pod_ok(pod: int) -> bool:
            segment = pod_link(pod)
            return (segment not in self.cordoned_segments
                    and self.link_health.factor(segment, now)
                    >= threshold)

        by_pod: dict[int, list[int]] = {}
        for leaf in sorted(by_leaf):
            by_pod.setdefault(self._pod_of_leaf[leaf], []).append(leaf)
        for pod in sorted(by_pod):
            assembled = []
            for leaf in by_pod[pod]:
                if not leaf_ok(leaf):
                    continue
                assembled.extend(by_leaf[leaf])
                if len(assembled) >= need:
                    return assembled[:need]
        assembled = []
        for pod in sorted(by_pod):
            if not pod_ok(pod):
                continue
            for leaf in by_pod[pod]:
                if not leaf_ok(leaf):
                    continue
                assembled.extend(by_leaf[leaf])
                if len(assembled) >= need:
                    return assembled[:need]
        return None

    def _resubmit(self, job: Job, recovery: _Recovery) -> None:
        self.resubmissions += 1
        clone = Job(
            job_id=f"{job.job_id}.r{self.resubmissions}",
            cluster=job.cluster,
            job_type=job.job_type,
            submit_time=self.engine.now + self.scenario.restart_delay,
            duration=job.duration,
            gpu_demand=job.gpu_demand,
            final_status=FinalStatus.COMPLETED,
        )
        recovery.resume_time = clone.submit_time
        if recovery.span is not None:
            self.tracer.end(recovery.span, at=clone.submit_time,
                            outcome="resubmitted",
                            clone=clone.job_id)
        self.scheduler.submit(clone)
        self._log("job_resubmitted",
                  f"{job.job_id} -> {clone.job_id} "
                  f"at={clone.submit_time:.3f}")


class PretrainProcessFactory:
    """Builds the gang's step loop (split out for test substitution)."""

    @staticmethod
    def build(engine: Engine, scenario: ChaosScenario, on_checkpoint,
              on_done, tracer: TracerLike | None = None):
        from repro.training.pretrain import PretrainProcess

        return PretrainProcess(
            engine=engine,
            name=PRETRAIN_JOB_ID,
            step_time=scenario.step_time,
            total_iterations=scenario.total_iterations,
            steps_per_checkpoint=scenario.steps_per_checkpoint,
            on_checkpoint=on_checkpoint,
            on_done=on_done,
            tracer=tracer)


def run_scenario(scenario: ChaosScenario,
                 tracer: TracerLike | None = None) -> ChaosResult:
    """Convenience one-shot: build a harness and run it."""
    return ChaosHarness(scenario, tracer=tracer).run()
