"""Cross-layer invariants validated after every simulation event.

The checker hangs off :meth:`repro.sim.engine.Engine.add_listener`, so it
runs after *every* executed callback — not just after the chaos harness's
own events.  A violation raises immediately, aborting the run at the
first inconsistent state instead of letting it smear into the summary.

Invariants (the ISSUE's list, plus accounting identities that make the
first two checkable):

1. **Counters** — no GPU counter in the scheduler is ever negative,
   free + allocated + cordoned always equals the configured total, and
   a pending cordon never exceeds the allocated GPUs left to drain it.
2. **Gang all-or-nothing** — every live allocation holds exactly the
   job's full demand, and the job is in the RUNNING state.
3. **Cordon isolation** — no placement (gang node or scheduler capacity)
   remains on a node that is not schedulable.
4. **Rollback monotonicity** — a recovery never restores a checkpoint
   *ahead* of the failure point.
5. **Liveness** (checked at the end of the run) — every injected
   infrastructure failure that hit a running target produced a recovery
   plan that restarts, cordons, or both.

Storage-fault invariants:

6. **No corrupt restore** — a restore never resumes from a generation
   that was corrupted on write or quarantined, and never from a step
   that was not durably persisted at all.
7. **Bounded outages never wedge** — a restore deferred during a
   storage outage must be resolved once the outage ends (plus retry /
   restart slack) before the scenario horizon.
8. **Waste accounting includes fallback loss** — the extra iterations
   lost by falling back past corrupt generations must equal the sum of
   (planned - actual) over all fallback restores.

Network-fault invariants:

9.  **No placement across a downed link** — gang placement never lands
    on a node set whose collective path crosses a link that is down at
    placement time.
10. **Degraded windows end → bandwidth restored** (checked at the end
    of the run) — once every network fault window has closed, the
    gang's step factor must be back to the residual stretch explained
    by undetected stragglers and open power caps (1.0 when there are
    none), and no fabric segment may still be cordoned.
11. **Localization never convicts a healthy segment** — a segment
    conviction must coincide with that segment actually running below
    the NCCL-test pass threshold.

Failure-domain invariants (this PR's additions):

12. **Stragglers are detected or flagged** — a loud straggler whose
    detection bound fits inside the horizon must be detected within
    that bound; any straggler still undetected at the end of the run
    must be flagged as silent waste (quantified in GPU-hours), never
    dropped from the accounting.
13. **Spares are never double-booked** — a hot spare is never listed
    as available twice, never simultaneously available and allocated,
    never allocated to itself, and an available spare never hosts the
    gang.
14. **Partial partitions convict only the sick side** — a node
    convicted by fabric localization must have at least one segment of
    its path (NIC, leaf uplink, pod uplink) actually running below the
    pass threshold at conviction time.

Overload / admission invariants (armed by ``repro.service`` when
admission control is enabled):

15. **Reserved work is untouchable** — admission control never
    rejects, defers, or sheds a reserved-class job (pretrain / SFT /
    MLLM): shedding and rejection may only ever hit best-effort and
    eval work, even while best-effort borrowers occupy the reserved
    quota.
16. **Bounded queues are actually bounded** — when the active
    admission policy declares a best-effort depth bound, the tracked
    best-effort queue depth never exceeds it after *any* engine
    event, under any bundled scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.chaos.fabric import MIN_FACTOR
from repro.cluster.linkhealth import LinkHealth
from repro.cluster.machine import Node, NodeHealth
from repro.core.recovery.controller import HotSparePool, RecoveryPlan
from repro.scheduler.job import JobState
from repro.scheduler.simulator import SchedulerSimulator
from repro.training.pretrain import PretrainProcess


class InvariantViolation(AssertionError):
    """A cross-layer invariant failed during a chaos run."""


@dataclass(frozen=True)
class RestartRecord:
    """One recovery restart: where the job was, where it resumed."""

    time: float
    step_at_failure: int
    restored_step: int


@dataclass
class StragglerRecord:
    """One injected straggler and what detection made of it."""

    index: int
    time: float
    kind: str
    node: str
    detected_at: float | None = None
    #: set when the run ends with the straggler undetected; the waste
    #: must be flagged, not silently dropped (invariant 12)
    silent_waste_gpu_hours: float | None = None


@dataclass
class InvariantChecker:
    """Validates the chaos harness's cross-layer state."""

    scheduler: SchedulerSimulator
    nodes: dict[str, Node]
    #: live placements: node name -> job id (gang placements)
    placements: dict[str, str]
    pretrain: PretrainProcess | None = None
    checks_run: int = 0
    restart_records: list[RestartRecord] = field(default_factory=list)
    #: how many ``restart_records`` have passed invariant 4
    _rollbacks_checked: int = field(default=0, init=False, repr=False)
    #: (fault index, plan) for injected infrastructure failures
    infra_plans: list[tuple[int, RecoveryPlan | None]] = field(
        default_factory=list)
    # -- storage-fault context and state --
    #: [start, end) outage windows on the checkpoint backend
    outage_windows: list[tuple[float, float]] = field(default_factory=list)
    #: scenario horizon in simulated seconds
    horizon: float = 0.0
    #: slack after the last outage before an unresolved deferral is a wedge
    wedge_slack: float = 0.0
    #: steps durably persisted (write reported ok)
    good_steps: set[int] = field(default_factory=set)
    #: steps known bad: corrupted on write or quarantined at restore
    bad_steps: set[int] = field(default_factory=set)
    #: restores currently parked waiting for the backend to return
    deferred_unresolved: int = 0
    #: sum of (planned - actual) over fallback restores, per invariant 8
    fallback_lost: int = 0
    # -- network-fault context and state --
    #: the fabric health overlay the scenario armed (None = no faults)
    network_health: LinkHealth | None = None
    #: NCCL-test pass threshold segment convictions are checked against
    network_min_factor: float = MIN_FACTOR
    #: live cordoned fabric segments (shared with the fabric domain)
    cordoned_segments: set[str] = field(default_factory=set)
    # -- failure-domain state (stragglers / spares / convictions) --
    #: fault index -> straggler lifecycle record, per invariant 12
    straggler_records: dict[int, StragglerRecord] = field(
        default_factory=dict)
    #: max seconds a loud straggler may run undetected (0 = unchecked)
    straggler_detect_bound: float = 0.0
    #: residual step stretch legitimately left once fabric heals
    #: (undetected stragglers, open power caps); None = expect 1.0
    residual_stretch: Callable[[], float] | None = None
    #: live hot-spare pool (shared reference), per invariant 13
    spare_pool: HotSparePool | None = None
    # -- overload/admission context (armed by ``repro.service``) --
    #: job types admission control must never touch, per invariant 15
    admission_reserved_types: frozenset = frozenset()
    #: live best-effort queue depth oracle (the service's tracker)
    admission_depth_fn: Callable[[], int] | None = None
    #: the active policy's declared depth bound, per invariant 16
    admission_depth_bound: int | None = None

    # -- per-event check ----------------------------------------------------

    def check(self, time: float) -> None:
        """Engine listener: validate everything after one event.

        Every invariant is checked on every call, reading only what it
        needs: the allocated total is the scheduler's running count,
        and each rollback record is checked once, by the first call
        after it is appended (records are frozen).  The gang, cordon
        and spare scans run unsorted and build nothing while the state
        is sound; only a scan that finds a violation runs the sorted
        ``_check_*`` scan, which names the first offender in sorted
        order.
        """
        self.checks_run += 1
        sched = self.scheduler
        free_reserved = sched.free_reserved
        free_shared = sched.free_shared
        cordoned = sched.cordoned_gpus
        allocated = sched.gpus_allocated
        if (free_reserved < 0 or free_shared < 0 or cordoned < 0
                or free_reserved + free_shared + cordoned + allocated
                != sched.config.total_gpus
                or sched._pending_cordon > allocated):
            self._check_counters(time)
        running = JobState.RUNNING
        for allocation in sched._allocations.values():
            job = allocation.job
            if (job is None or job.state is not running
                    or allocation.from_reserved + allocation.from_shared
                    != job.gpu_demand):
                self._check_gangs(time)
        nodes, healthy = self.nodes, NodeHealth.HEALTHY
        for name in self.placements:
            if nodes[name].health is not healthy:
                self._check_cordon_isolation(time)
        records = self.restart_records
        if self._rollbacks_checked < len(records):
            for record in records[self._rollbacks_checked:]:
                if record.restored_step > record.step_at_failure:
                    raise InvariantViolation(
                        f"t={record.time:.3f}: rollback moved forward — "
                        f"restored step {record.restored_step} is past "
                        f"the failure at step {record.step_at_failure}")
            self._rollbacks_checked = len(records)
        pool = self.spare_pool
        if pool is not None:
            available = pool._available
            for spare in available:
                if (spare in pool.allocated or spare in self.placements
                        or available.count(spare) > 1):
                    self._check_spares(time)
        if self.admission_depth_bound is not None:
            self._check_queue_bound(time)

    def _fail(self, time: float, message: str) -> None:
        raise InvariantViolation(f"t={time:.3f}: {message}")

    # The counter, gang, cordon and spare scans below run only once
    # ``check`` has found a violation; each raises naming the first
    # offender in sorted order.

    def _check_counters(self, time: float) -> None:
        sched = self.scheduler
        for counter in ("free_reserved", "free_shared", "cordoned_gpus"):
            value = getattr(sched, counter)
            if value < 0:
                self._fail(time, f"scheduler.{counter} is negative "
                                 f"({value})")
        # A pending cordon is capacity still physically held by running
        # jobs — those GPUs are already counted under ``allocated`` and
        # move to ``cordoned`` only as allocations drain, so pending is
        # bounded by allocated rather than added to the identity.
        booked = (sched.free_reserved + sched.free_shared
                  + sched.cordoned_gpus + sched.gpus_allocated)
        if booked != sched.config.total_gpus:
            self._fail(time, "GPU accounting broken: free "
                             f"{sched.free_reserved}+{sched.free_shared} "
                             f"+ cordoned {sched.cordoned_gpus} "
                             f"+ allocated {sched.gpus_allocated} "
                             f"!= total {sched.config.total_gpus}")
        if sched._pending_cordon > sched.gpus_allocated:
            self._fail(time, "pending cordon "
                             f"{sched._pending_cordon} exceeds allocated "
                             f"{sched.gpus_allocated}: nothing left to "
                             "drain it from")

    def _check_gangs(self, time: float) -> None:
        for job_id, allocation in sorted(
                self.scheduler._allocations.items()):
            held = allocation.from_reserved + allocation.from_shared
            job = allocation.job
            if job is None or held != job.gpu_demand:
                self._fail(time, f"gang violation: job {job_id} holds "
                                 f"{held} GPUs, demands "
                                 f"{job.gpu_demand if job else '?'}")
            if job.state.value != "running":
                self._fail(time, f"job {job_id} holds GPUs but is "
                                 f"{job.state.value}")

    def _check_cordon_isolation(self, time: float) -> None:
        for node_name, job_id in sorted(self.placements.items()):
            node = self.nodes[node_name]
            if not node.schedulable:
                self._fail(time, f"cordoned node {node_name} still hosts "
                                 f"{job_id}")

    def _check_spares(self, time: float) -> None:
        """Invariant 13: the hot-spare pool never double-books a node."""
        pool = self.spare_pool
        if pool is None:
            return
        available = pool.available
        if len(set(available)) != len(available):
            self._fail(time, "spare pool lists a standby twice: "
                             f"{sorted(available)}")
        double = set(available) & set(pool.allocated)
        if double:
            self._fail(time, "spare(s) both available and allocated: "
                             f"{sorted(double)}")
        placed = set(available) & set(self.placements)
        if placed:
            self._fail(time, "reserved spare(s) hosting the gang: "
                             f"{sorted(placed)}")

    def _check_queue_bound(self, time: float) -> None:
        """Invariant 16: a declared best-effort depth bound holds."""
        if (self.admission_depth_bound is None
                or self.admission_depth_fn is None):
            return
        depth = self.admission_depth_fn()
        if depth > self.admission_depth_bound:
            self._fail(time, f"best-effort queue depth {depth} exceeds "
                             f"the admission policy's declared bound "
                             f"{self.admission_depth_bound}")

    # -- end-of-run check ---------------------------------------------------

    def final_check(self, fallback_lost_iterations: int | None = None
                    ) -> None:
        """Liveness + the end-of-run storage invariants."""
        for index, plan in self.infra_plans:
            if plan is None:
                raise InvariantViolation(
                    f"infrastructure fault #{index} never produced a "
                    "recovery plan")
            if (not plan.restart and not plan.cordoned_nodes
                    and not plan.cordoned_segments):
                raise InvariantViolation(
                    f"infrastructure fault #{index} produced a plan with "
                    "neither a restart nor a cordon")
        if self.deferred_unresolved > 0:
            # invariant 7: a bounded outage must not wedge recovery
            if not self.outage_windows:
                raise InvariantViolation(
                    f"{self.deferred_unresolved} restore(s) deferred "
                    "with no storage outage to blame")
            last_end = max(end for _, end in self.outage_windows)
            if last_end + self.wedge_slack < self.horizon:
                raise InvariantViolation(
                    f"{self.deferred_unresolved} restore(s) still "
                    f"deferred although the last outage ended at "
                    f"{last_end:.1f}s (horizon {self.horizon:.1f}s): "
                    "recovery is wedged")
        if (fallback_lost_iterations is not None
                and fallback_lost_iterations != self.fallback_lost):
            # invariant 8: fallback loss must be accounted, not dropped
            raise InvariantViolation(
                f"fallback-generation loss mismatch: harness reports "
                f"{fallback_lost_iterations} iterations, restore "
                f"records sum to {self.fallback_lost}")
        self._check_network_healed()
        self._check_stragglers_accounted()

    def _check_network_healed(self) -> None:
        """Invariant 10: windows over → bandwidth and cordons restored."""
        if self.network_health is None or self.network_health.empty:
            return
        if self.horizon <= self.network_health.last_end():
            return  # the scenario ended inside a fault window
        expected = (self.residual_stretch()
                    if self.residual_stretch is not None else 1.0)
        if (self.pretrain is not None
                and self.pretrain.step_factor != expected):
            raise InvariantViolation(
                "all network fault windows closed but the gang runs at "
                f"step factor {self.pretrain.step_factor:.3f} (expected "
                f"{expected:.3f} — the residual from undetected "
                "stragglers / open power caps)")
        if self.cordoned_segments:
            raise InvariantViolation(
                "all network fault windows closed but segments are "
                f"still cordoned: {sorted(self.cordoned_segments)}")

    def _check_stragglers_accounted(self) -> None:
        """Invariant 12: every straggler is detected or flagged.

        The detection bound only binds while the straggler can show up
        in the gang's timeseries: if recovery migrated the gang off the
        slow node, the deviation signal disappears with it, and the
        flagged-silent-waste path is the correct outcome.
        """
        for index, record in sorted(self.straggler_records.items()):
            if record.detected_at is not None:
                continue
            if (record.kind == "straggler"
                    and self.straggler_detect_bound > 0.0
                    and record.time + self.straggler_detect_bound
                    <= self.horizon
                    and record.node in self.placements):
                raise InvariantViolation(
                    f"straggler #{index} on {record.node} still hosts "
                    f"the gang but was never detected although the "
                    f"{self.straggler_detect_bound:.0f}s bound since "
                    f"injection at {record.time:.1f}s fit inside the "
                    "horizon")
            if record.silent_waste_gpu_hours is None:
                raise InvariantViolation(
                    f"undetected {record.kind} #{index} on "
                    f"{record.node} was not flagged as silent waste")

    # -- bookkeeping for the harness ---------------------------------------

    def record_restart(self, time: float, step_at_failure: int,
                       restored_step: int) -> None:
        """Log a recovery restart for rollback-monotonicity checking."""
        self.restart_records.append(
            RestartRecord(time, step_at_failure, restored_step))

    def record_infra_plan(self, fault_index: int,
                          plan: RecoveryPlan | None) -> None:
        """Log the plan (or lack of one) for an infrastructure fault."""
        self.infra_plans.append((fault_index, plan))

    # -- storage-fault bookkeeping -----------------------------------------

    def record_persist(self, time: float, step: int, ok: bool) -> None:
        """Log one checkpoint persist outcome."""
        if ok:
            self.good_steps.add(step)

    def record_corrupt_write(self, step: int) -> None:
        """Mark a generation the fault layer corrupted on its way down."""
        self.bad_steps.add(step)

    def record_quarantine(self, step: int) -> None:
        """Mark a generation quarantined after failing restore."""
        self.bad_steps.add(step)

    def record_restore(self, time: float, planned: int,
                       actual: int) -> None:
        """Validate one completed restore (invariants 6 and 8)."""
        if actual > planned:
            raise InvariantViolation(
                f"t={time:.3f}: restore moved forward — loaded step "
                f"{actual}, planned {planned}")
        if actual in self.bad_steps:
            raise InvariantViolation(
                f"t={time:.3f}: restore loaded step {actual}, which is "
                "a corrupt/quarantined generation")
        if actual > 0 and actual not in self.good_steps:
            raise InvariantViolation(
                f"t={time:.3f}: restore loaded step {actual}, which was "
                "never durably persisted")
        if actual < planned:
            self.fallback_lost += planned - actual

    def record_restore_deferred(self) -> None:
        """A restore is parked waiting for the backend."""
        self.deferred_unresolved += 1

    def record_restore_resolved(self) -> None:
        """A previously deferred restore completed."""
        self.deferred_unresolved -= 1

    # -- network-fault bookkeeping -----------------------------------------

    def record_gang_placement(self, time: float,
                              down_crossed: list[str]) -> None:
        """Invariant 9: a gang placement must not cross a downed link."""
        if down_crossed:
            raise InvariantViolation(
                f"t={time:.3f}: gang placed across downed link(s) "
                f"{sorted(down_crossed)}")

    def record_segment_conviction(self, time: float,
                                  segment: str) -> None:
        """Invariant 11: only actually-sick segments get convicted."""
        if self.network_health is None:
            raise InvariantViolation(
                f"t={time:.3f}: segment {segment} convicted with no "
                "network fault context armed")
        factor = self.network_health.factor(segment, time)
        if factor >= self.network_min_factor:
            raise InvariantViolation(
                f"t={time:.3f}: localization convicted segment "
                f"{segment} running at factor {factor:.3f} — at or "
                f"above the {self.network_min_factor:.3f} threshold")

    def record_node_conviction(self, time: float, name: str,
                               path_factor: float) -> None:
        """Invariant 14: convicted nodes must have a sick fabric path."""
        if path_factor >= self.network_min_factor:
            raise InvariantViolation(
                f"t={time:.3f}: localization convicted node {name} "
                f"whose fabric path runs at factor {path_factor:.3f} — "
                f"at or above the {self.network_min_factor:.3f} "
                "threshold (a partial partition must convict only the "
                "sick side)")

    # -- failure-domain bookkeeping -----------------------------------------

    def record_straggler(self, index: int, time: float, kind: str,
                         node: str) -> None:
        """A straggler fault armed on ``node`` (no failure log line)."""
        self.straggler_records[index] = StragglerRecord(
            index=index, time=time, kind=kind, node=node)

    def record_straggler_detected(self, index: int,
                                  time: float) -> None:
        """Deviation detection convicted straggler ``index``."""
        record = self.straggler_records[index]
        record.detected_at = time
        if (record.kind == "straggler"
                and self.straggler_detect_bound > 0.0
                and time - record.time > self.straggler_detect_bound):
            raise InvariantViolation(
                f"straggler #{index} on {record.node} detected "
                f"{time - record.time:.0f}s after injection — past the "
                f"{self.straggler_detect_bound:.0f}s bound")

    def record_silent_waste(self, index: int,
                            gpu_hours: float) -> None:
        """An undetected straggler's waste was flagged at the horizon."""
        self.straggler_records[index].silent_waste_gpu_hours = gpu_hours

    # -- overload/admission bookkeeping ------------------------------------

    def record_admission(self, time: float, job,
                         admitted: bool) -> None:
        """Invariant 15: reserved-class work is never rejected."""
        if (not admitted
                and job.job_type in self.admission_reserved_types):
            raise InvariantViolation(
                f"t={time:.3f}: admission rejected reserved-class job "
                f"{job.job_id} ({job.job_type.value}) — reserved work "
                "must always be admitted")

    def record_shed(self, time: float, job) -> None:
        """Invariant 15: reserved-class work is never shed."""
        if job.job_type in self.admission_reserved_types:
            raise InvariantViolation(
                f"t={time:.3f}: load shedding hit reserved-class job "
                f"{job.job_id} ({job.job_type.value}) — shedding may "
                "only touch best-effort and eval work")

    def record_spare_swap(self, time: float, victim: str,
                          spare: str) -> None:
        """Invariant 13: one preemptive swap must be coherent."""
        if spare == victim:
            raise InvariantViolation(
                f"t={time:.3f}: spare swap allocated {spare} to cover "
                "itself")
        pool = self.spare_pool
        if pool is not None and pool.allocated.get(spare) != victim:
            raise InvariantViolation(
                f"t={time:.3f}: swap says {spare} covers {victim} but "
                "the pool's allocation table disagrees "
                f"({pool.allocated.get(spare)!r})")
