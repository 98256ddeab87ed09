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

The harness owns the gang and every action on it; each fault domain's
state lives in its own module: :mod:`repro.chaos.storage`,
:mod:`repro.chaos.fabric` and :mod:`repro.chaos.slowdown`.

The harness itself draws no randomness — all of it lives in
:meth:`ChaosScenario.build_faults` / ``build_background_jobs`` — so a
seeded run is byte-for-byte reproducible: same event log, same summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.chaos.fabric import MIN_FACTOR, FabricDomain
from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import ChaosSummary, summarize
from repro.chaos.scenario import (GPUS_PER_NODE, ChaosScenario,
                                  InjectedFault)
from repro.chaos.slowdown import SlowdownDomain, StragglerState
from repro.chaos.storage import StorageDomain
from repro.cluster.machine import Node, NodeHealth, seren_node_spec
from repro.core.diagnosis import DiagnosisSystem
from repro.core.recovery import (AnomalyEvent, CheckpointCatalog,
                                 CollectiveTester, RecoveryController)
from repro.core.recovery.controller import (STRAGGLER_CONVICTION_FACTOR,
                                            HotSparePool, RecoveryPlan)
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
from repro.training.pretrain import PretrainProcess

PRETRAIN_JOB_ID = "pretrain-main"

#: the gang's nominal seconds per iteration, its iteration budget and
#: its checkpoint cadence in steps
STEP_TIME = 15.0
TOTAL_ITERATIONS = 1_000_000
STEPS_PER_CHECKPOINT = 120
#: detection + two-round NCCL test + reschedule, seconds (§6.1: the
#: automatic system restarts within minutes)
RESTART_DELAY = 300.0
#: time until a cordoned (not escalated) node is repaired and returns
#: to service; faulty nodes never return
REPAIR_DELAY = 2.0 * 3600.0
#: how long a deferred restore waits before retrying the backend
STORAGE_RETRY_DELAY = 600.0
#: how long monitoring takes to notice a slow (not dead) gang link
DEGRADED_DETECT_DELAY = 900.0
#: seconds between decay steps of a straggling node's contribution
STRAGGLER_RAMP_INTERVAL = 600.0
#: seconds between monitoring probes of the observed step time
STRAGGLER_PROBE_INTERVAL = 300.0
#: invariant 12's bound: a loud straggler must be detected within this
#: window of injection (or the run fails its invariants)
STRAGGLER_DETECT_BOUND = 2.5 * 3600.0

#: fabric fault kinds that degrade bandwidth without severing it; the
#: gang keeps stepping (stretched) until monitoring detects and reacts
_SOFT_FABRIC_KINDS = ("link_degraded", "pod_link_degraded",
                      "partial_partition")


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
        #: live gang placements: node name -> job id
        self.placements: dict[str, str] = {
            node.name: PRETRAIN_JOB_ID for node in self.nodes[:gang]}

        self.scheduler = SchedulerSimulator(
            SchedulerConfig(total_gpus=scenario.scheduler_gpus,
                            reserved_fraction=0.5),
            engine=self.engine, tracer=self.tracer)
        self.scheduler.hooks.append(self._on_scheduler_event)
        self.faults = scenario.build_faults()
        self.event_log: list[tuple[float, str, str]] = []

        # -- hot-spare pool: the scenario's tail nodes become warm
        # standbys reserved for preemptive migration --
        self.spare_pool: HotSparePool | None = None
        if scenario.hot_spares > 0:
            self.spare_pool = HotSparePool(
                [node.name for node in self.nodes[-scenario.hot_spares:]],
                reschedule_delay=RESTART_DELAY,
                gang_gpus=scenario.pretrain_gpus)
        self.pretrain = PretrainProcess(
            engine=self.engine, name=PRETRAIN_JOB_ID,
            step_time=STEP_TIME, total_iterations=TOTAL_ITERATIONS,
            steps_per_checkpoint=STEPS_PER_CHECKPOINT,
            on_checkpoint=self._on_checkpoint, on_done=self._on_done,
            tracer=self.tracer)

        # -- fault domains, each armed up front from the schedule --
        self.fabric = FabricDomain(scenario, self.faults,
                                   [node.name for node in self.nodes])
        self.slowdown = SlowdownDomain(
            scenario, self.faults, self.engine, self.event_log,
            self.placements, self.pretrain, self.fabric,
            tracer=self.tracer)
        self.catalog = CheckpointCatalog()
        self.controller = RecoveryController(
            DiagnosisSystem(tracer=self.tracer), self.catalog,
            self.nodes, leaf_of=self.fabric.leaf_of,
            pod_of_leaf=self.fabric.pod_of_leaf,
            spare_pool=self.spare_pool)
        self.storage = StorageDomain(
            scenario, self.faults, self.engine, self.event_log,
            self.catalog, self.controller, tracer=self.tracer)

        self.checker = InvariantChecker(
            scheduler=self.scheduler, nodes=self._by_name,
            placements=self.placements, pretrain=self.pretrain,
            outage_windows=self.storage.outage_windows,
            horizon=scenario.duration,
            wedge_slack=STORAGE_RETRY_DELAY + RESTART_DELAY,
            network_health=self.fabric.link_health,
            cordoned_segments=self.fabric.cordoned_segments,
            straggler_detect_bound=STRAGGLER_DETECT_BOUND,
            residual_stretch=self.slowdown.stretch,
            spare_pool=self.spare_pool)
        self.engine.add_listener(self.checker.check)

        self.recoveries: list[_Recovery] = []
        self.absorbed_faults = 0
        self.resubmissions = 0
        self.gang_migrations = 0
        self.restores_deferred = 0
        self._pretrain_stopped_at: float | None = None
        self.pretrain_downtime = 0.0
        self.scheduler_lost_gpu_seconds = 0.0
        # -- incremental-run lifecycle (start / advance / finish) --
        self._started = False
        self._detached = False
        self._finished = False

    # -- logging ------------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.event_log.append((self.engine.now, kind, detail))

    # -- component callbacks ------------------------------------------------

    def _on_checkpoint(self, step: int) -> None:
        self.storage.persist(step, self.checker)

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
        if self.slowdown.has_stragglers:
            self.engine.call_after(STRAGGLER_PROBE_INTERVAL,
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
        run: the harness is started, not finished, and ``until`` is
        finite and not behind the clock (the streams chain arrivals
        forever, so an infinite or NaN horizon never returns)."""
        if not self._started:
            raise SimulationError("advance() before start()")
        if self._finished:
            raise SimulationError("advance() after finish()")
        if not math.isfinite(until):
            raise SimulationError(f"cannot advance to {until}")
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
        # make the gang's step factor consistent with live state before
        # the checker's residual-stretch comparison
        self._refresh_gang_factor()
        self.slowdown.finalize(self.checker)
        self.checker.final_check(
            fallback_lost_iterations=self.storage.fallback_lost_iterations)
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
            self.storage.open_window(index, fault)
        elif fault.kind in FABRIC_FAULT_KINDS:
            self._network_fault(index, fault)
        elif fault.kind in STRAGGLER_FAULT_KINDS:
            self._straggler_fault(index, fault)
        elif fault.kind in POWER_FAULT_KINDS:
            self._power_fault(index, fault)
        else:
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    def _absorb(self, index: int, fault: InjectedFault, why: str,
                victim: str | None = None) -> None:
        """The fault found nothing running to hit.  An infrastructure
        failure on ``victim`` is still diagnosed and cordoned: broken
        hardware does not heal because the gang happened to be down."""
        self.absorbed_faults += 1
        self._log("fault_absorbed", f"#{index} {why}")
        if (victim is not None
                and fault.category is FailureCategory.INFRASTRUCTURE):
            self._apply_cordons(self._diagnose(index, fault, victim))

    def _interrupt(self, reason: str, detail: str) -> int:
        """Stop the gang now; returns the iteration it reached."""
        step = self.pretrain.interrupt(reason)
        self._pretrain_stopped_at = self.engine.now
        self._log("pretrain_interrupt", f"step={step} {detail}")
        return step

    def _fail_pretrain(self, index: int, fault: InjectedFault) -> None:
        victim = self._pretrain_victim(fault)
        if not self.pretrain.running:
            self._absorb(index, fault, "pretrain not running", victim)
            return
        step_at_failure = self._interrupt(
            fault.reason or "", f"reason={fault.reason} victim={victim}")
        plan = self._diagnose(index, fault, victim)
        self._recover_gang(index, fault, plan, step_at_failure)

    def _fail_scheduler_job(self, index: int, fault: InjectedFault
                            ) -> None:
        running = self.scheduler.running_jobs()
        if not running:
            self._absorb(index, fault, "no running job",
                         self._pool_victim(fault))
            return
        victim_job = running[fault.node_index % len(running)]
        elapsed = self.engine.now - (victim_job.start_time or 0.0)
        self.scheduler_lost_gpu_seconds += (elapsed
                                            * victim_job.gpu_demand)
        self.scheduler.fail_job(victim_job.job_id, fault.reason)
        plan = self._diagnose(index, fault, self._pool_victim(fault))
        recovery = self._open_recovery(index, fault, plan)
        if plan.restart:
            self._resubmit(victim_job, recovery)
        else:
            self._log("job_not_restarted",
                      f"{victim_job.job_id} ({fault.reason}: script "
                      "errors fail identically)")

    def _anomaly(self, index: int, fault: InjectedFault) -> None:
        if not self.pretrain.running:
            self._absorb(index, fault, "pretrain not running")
            return
        step_at_failure = self._interrupt(fault.kind,
                                          f"reason={fault.kind}")
        event = AnomalyEvent(kind=fault.kind, step=step_at_failure,
                             detail=f"injected by chaos fault #{index}")
        tester = (CollectiveTester({self._pretrain_victim(fault)})
                  if fault.kind == "hang" else None)
        plan = self.controller.handle_anomaly(event, tester)
        self._log_plan(plan)
        self._recover_gang(index, fault, plan, step_at_failure)

    def _recover_gang(self, index: int, fault: InjectedFault,
                      plan: RecoveryPlan, step_at_failure: int) -> None:
        """Cordon, open the episode, and roll the interrupted gang back
        to the plan's checkpoint."""
        recovery = self._open_recovery(index, fault, plan)
        if plan.restart:
            step = min(plan.restart_checkpoint_step or 0, step_at_failure)
            self._restart_pretrain(step, step_at_failure, recovery)
        elif fault.kind == "failure":
            reason = plan.diagnosis.reason if plan.diagnosis else "anomaly"
            self._log("pretrain_stalled", f"no restart planned ({reason})")
        else:
            # a loss spike with no checkpoint: nothing to roll back to;
            # resume in place rather than abandoning the campaign
            self._log("pretrain_resume_in_place",
                      f"step={step_at_failure} (no rollback target)")
            self._restart_pretrain(step_at_failure, step_at_failure,
                                   recovery, restore=False)

    def _network_fault(self, index: int, fault: InjectedFault) -> None:
        """A fabric link/switch fault window opens.

        The degradation itself is already armed inside the fabric
        domain's overlay; this reacts to it — slowing or interrupting
        the gang, localizing the sick link, and cordoning what the test
        convicts.
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
                DEGRADED_DETECT_DELAY,
                lambda i=index, f=fault: self._detect_degradation(i, f))
            return
        self._hard_network_fault(index, fault)

    def _hard_network_fault(self, index: int,
                            fault: InjectedFault) -> None:
        """A link or switch died outright: collectives on it fail now."""
        down_crossed = self.fabric.down_links(self.placements,
                                              self.engine.now)
        if down_crossed and self.pretrain.running:
            step_at_failure = self._interrupt(
                fault.kind, f"reason={fault.reason} "
                            f"links={','.join(down_crossed)}")
            plan = self._localize(fault, restart=True)
            self.checker.record_infra_plan(index, plan)
            self._recover_gang(index, fault, plan, step_at_failure)
            return
        # The fault missed the gang's collective path (or the gang is
        # already down): still localize and cordon, so placement routes
        # around the sick fabric — broken links do not heal because
        # nobody was using them.  No restart is planned.
        self._apply_cordons(self._localize(fault, restart=False))
        self._refresh_gang_factor()

    def _detect_degradation(self, index: int,
                            fault: InjectedFault) -> None:
        """Monitoring noticed a slow link; migrate if the gang suffers."""
        if self.engine.now >= fault.time + fault.duration:
            return  # the window closed before detection fired
        if not self.pretrain.running:
            return  # gang already down; recovery will re-place it
        if len(self.placements) <= 1:
            return
        factor = self.fabric.factor(self.placements, self.engine.now)
        if factor >= MIN_FACTOR:
            self._log("degradation_tolerated",
                      f"#{index} gang factor {factor:.3f} at or above "
                      f"threshold {MIN_FACTOR}")
            return
        # The gang is communication-bound on a sick path: pause (the
        # iteration in flight is kept — this is a migration, not a
        # failure), localize, and resume on healthy fabric.
        step = self._interrupt(
            fault.kind, f"reason=degraded_link factor={factor:.3f}")
        plan = self._localize(fault, restart=False)
        if plan.cordoned_nodes or plan.cordoned_segments:
            self.checker.record_infra_plan(index, plan)
        # detection genuinely lagged injection here: the window opened
        # at fault.time, monitoring fired DEGRADED_DETECT_DELAY later
        recovery = self._open_recovery(index, fault, plan,
                                       injected=fault.time)
        self._restart_pretrain(step, step, recovery, restore=False)

    def _network_fault_end(self, index: int,
                           fault: InjectedFault) -> None:
        """A fault window closed: repair healed segments, restore speed."""
        self._log("network_fault_end",
                  f"#{index} kind={fault.kind} link={fault.link}")
        for segment in self.fabric.heal(self.engine.now):
            self._log("segment_repaired", segment)
        self._refresh_gang_factor()

    def _localize(self, fault: InjectedFault,
                  restart: bool) -> RecoveryPlan:
        """Run topology-aware localization against the live fabric."""
        now = self.engine.now
        plan = self.controller.handle_network_fault(
            f"{fault.kind} on {fault.link}", self.fabric.tester(now),
            restart=restart)
        self._log_plan(plan)
        for name in sorted(plan.cordoned_nodes):
            # invariant 14: a convicted node's fabric path must really
            # be sick — partial partitions never convict a healthy side
            self.checker.record_node_conviction(
                now, name, self.fabric.path_factor(name, now))
        return plan

    def _refresh_gang_factor(self) -> None:
        """Re-derive the gang's step factor from live failure domains.

        Composes fabric bandwidth, the slowest undetected straggler
        still hosting the gang, and the fleet-wide power cap.  With
        nothing degraded the composition is exactly 1.0 and the gang is
        left alone.
        """
        factor = self.fabric.factor(self.placements, self.engine.now)
        if factor <= 0.0:
            # a downed link is an interruption, not a slowdown; the
            # hard-fault path owns it
            return
        stretch = self.slowdown.stretch(factor)
        if stretch != self.pretrain.step_factor:
            self.pretrain.set_step_factor(stretch)
            self.tracer.set_gauge("network.gang_bandwidth_factor",
                                  factor)
            self._log("gang_step_factor",
                      f"bandwidth_factor={factor:.3f} "
                      f"step_stretch={stretch:.3f}")

    # -- stragglers & power caps --------------------------------------------

    def _straggler_fault(self, index: int, fault: InjectedFault) -> None:
        hosts = sorted(self.placements)
        if not hosts:
            self._absorb(index, fault, "gang unplaced; no host to degrade")
            return
        state = self.slowdown.add_straggler(
            index, fault, hosts[fault.node_index % len(hosts)],
            self.checker)
        self.engine.call_after(STRAGGLER_RAMP_INTERVAL,
                               lambda s=state: self._straggler_ramp(s))

    def _straggler_ramp(self, state: StragglerState) -> None:
        """One decay tick: the node's step contribution slips further."""
        if state.detected_at is not None:
            return
        if self.slowdown.ramp(state):
            self._refresh_gang_factor()
        self.engine.call_after(STRAGGLER_RAMP_INTERVAL,
                               lambda s=state: self._straggler_ramp(s))

    def _straggler_probe(self) -> None:
        """Periodic step-time sample feeding the deviation detector."""
        self.engine.call_after(STRAGGLER_PROBE_INTERVAL,
                               self._straggler_probe)
        if self.slowdown.probe():
            self._convict_stragglers()

    def _convict_stragglers(self) -> None:
        """DCGM scan after a deviation fired: convict the slow nodes."""
        now = self.engine.now
        node_factors = self.slowdown.suspects()
        threshold = STRAGGLER_CONVICTION_FACTOR
        slow = sorted(name for name, factor in node_factors.items()
                      if factor < threshold)
        if not slow:
            # deviation without a culprit below the conviction bar —
            # a silent degrader hiding inside the noise floor
            self._log("deviation_unattributed",
                      f"dcgm scan found no node below {threshold:.2f}; "
                      "no action")
            return
        step = self._interrupt(
            "straggler", f"reason=straggler nodes={','.join(slow)}")
        plan = self.controller.handle_straggler(
            f"step-time deviation at step {step}", node_factors)
        self._log_plan(plan)
        convicted = self.slowdown.convict(plan, self.checker)
        if convicted:
            index, fault = convicted[0].index, convicted[0].fault
            injected = min(state.fault.time for state in convicted)
        else:
            index, injected = -1, now
            fault = InjectedFault(time=now, kind="straggler",
                                  reason=None, node_index=0,
                                  log_seed=0, target="pretrain")
        recovery = self._open_recovery(index, fault, plan,
                                       injected=injected, detected=now,
                                       localized=now)
        self._restart_pretrain(step, step, recovery, restore=False)

    def _power_fault(self, index: int, fault: InjectedFault) -> None:
        self.slowdown.open_power_cap(index, fault)
        self._refresh_gang_factor()
        self.engine.call_at(fault.time + fault.duration,
                            lambda i=index: self._power_fault_end(i))

    def _power_fault_end(self, index: int) -> None:
        self.slowdown.close_power_cap(index)
        self._refresh_gang_factor()

    # -- recovery mechanics -------------------------------------------------

    def _open_recovery(self, index: int, fault: InjectedFault,
                       plan: RecoveryPlan, *,
                       injected: float | None = None,
                       detected: float | None = None,
                       localized: float | None = None) -> _Recovery:
        """Apply the plan's cordons and open one fault → resume episode
        (and its trace span).

        ``injected`` / ``detected`` / ``localized`` pin the stage
        timestamps for the MTTD/MTTL/MTTR decomposition.  They default
        to *now*, which is exact for crash-style faults — the failure
        announces itself and localization runs inline — and are
        overridden on the degradation and straggler paths, where
        detection genuinely lags injection.
        """
        self._apply_cordons(plan)
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

    def _diagnose(self, index: int, fault: InjectedFault,
                  victim: str) -> RecoveryPlan:
        log = LogGenerator(seed=fault.log_seed).failed_log(
            fault.reason, n_steps=30)
        infrastructure = fault.category is FailureCategory.INFRASTRUCTURE
        tester = CollectiveTester({victim}) if infrastructure else None
        plan = self.controller.handle_failure(log.lines, tester)
        self._log_plan(plan)
        if infrastructure:
            self.checker.record_infra_plan(index, plan)
        return plan

    def _log_plan(self, plan: RecoveryPlan) -> None:
        for action in plan.actions:
            self._log(f"recovery_{action.kind}", action.detail)
        for victim, spare in sorted(plan.spare_swaps.items()):
            self.tracer.count("chaos.spare_swaps")
            self.checker.record_spare_swap(self.engine.now, victim,
                                           spare)

    def _apply_cordons(self, plan: RecoveryPlan) -> None:
        """Take the plan's convicted nodes and fabric segments out."""
        for name in sorted(plan.cordoned_nodes):
            self.placements.pop(name, None)
            if name in self.pool_node_names:
                self.scheduler.cordon_gpus(GPUS_PER_NODE)
                self._log("pool_cordon",
                          f"{name}: -{GPUS_PER_NODE} GPUs from pool")
            node = self._by_name[name]
            if node.health is NodeHealth.CORDONED:
                self.engine.call_after(
                    REPAIR_DELAY, lambda n=name: self._repair(n))
        cordoned = self.fabric.cordoned_segments
        for segment in sorted(plan.cordoned_segments - cordoned):
            cordoned.add(segment)
            self.checker.record_segment_conviction(self.engine.now,
                                                   segment)
            self.tracer.count("network.segments_cordoned")
            self._log("segment_cordon", segment)

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
            loaded = self.storage.restore(step, self.checker)
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
        now = self.engine.now
        previous_hosts = set(self.placements)
        self.placements.clear()
        self.placements.update({name: PRETRAIN_JOB_ID for name in hosts})
        if self.fabric.armed:
            self.checker.record_gang_placement(
                now, self.fabric.down_links(hosts, now))
        if ((self.fabric.armed or via_swap) and previous_hosts
                and set(hosts) != previous_hosts):
            self.gang_migrations += 1
            self.tracer.count("network.gang_migrations")
            self._log("gang_migrated",
                      f"{','.join(sorted(previous_hosts))} -> "
                      f"{','.join(sorted(hosts))}")
        self._refresh_gang_factor()
        delay = (self.spare_pool.swap_delay
                 if via_swap and self.spare_pool is not None
                 else RESTART_DELAY)
        resume_at = now + delay
        recovery.resume_time = resume_at
        if recovery.span is not None:
            self.tracer.end(recovery.span, at=resume_at,
                            outcome="restarted", step=actual,
                            lost=step_at_failure - actual)
        if self._pretrain_stopped_at is not None:
            self.pretrain_downtime += resume_at - self._pretrain_stopped_at
            self._pretrain_stopped_at = None
        self.checker.record_restart(now, step_at_failure, actual)
        self.pretrain.restart_from(actual, delay)
        # the next probe sample measures from the restarted gang
        self.slowdown.baseline = None
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
        retry_at = self.engine.now + STORAGE_RETRY_DELAY
        self._log("restore_deferred",
                  f"step={step} retry_at={retry_at:.3f} "
                  "(storage unreachable)")
        self.engine.call_after(
            STORAGE_RETRY_DELAY,
            lambda: self._restart_pretrain(step, step_at_failure,
                                           recovery))

    def _place_gang(self) -> list[str] | None:
        """Pick gang nodes: healthy non-pool nodes, name order.

        Repaired nodes re-enter this pool, so a flaky node that keeps
        passing repair can rejoin the gang — and be convicted again,
        which is what drives cordon escalation.  With network faults
        :meth:`FabricDomain.place` chooses among them instead.
        """
        reserved = (set(self.spare_pool.available)
                    if self.spare_pool is not None else set())
        # warm standbys are reserved for swaps, not open placement
        healthy = [name for name in sorted(node.name for node in self.nodes)
                   if name not in self.pool_node_names
                   and name not in reserved
                   and self._by_name[name].schedulable]
        need = self.scenario.gang_nodes
        if self.fabric.armed:
            return self.fabric.place(healthy, need, self.engine.now)
        return healthy[:need] if len(healthy) >= need else None

    def _resubmit(self, job: Job, recovery: _Recovery) -> None:
        self.resubmissions += 1
        clone = Job(
            job_id=f"{job.job_id}.r{self.resubmissions}",
            cluster=job.cluster,
            job_type=job.job_type,
            submit_time=self.engine.now + RESTART_DELAY,
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


def run_scenario(scenario: ChaosScenario,
                 tracer: TracerLike | None = None) -> ChaosResult:
    """Convenience one-shot: build a harness and run it."""
    return ChaosHarness(scenario, tracer=tracer).run()
