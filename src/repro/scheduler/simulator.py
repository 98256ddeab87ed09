"""Discrete-event cluster scheduling simulation.

Replays a list of jobs (arrival time, demand, duration) through a
two-pool scheduler — a reserved pretraining quota plus a best-effort shared
pool — and records start/end times, from which queueing delays (Fig. 6)
are derived.

The policy is Acme's (§2.2): a reserved-class job draws from its quota
first and spills into the shared pool when the quota alone cannot fit
it; a best-effort job may borrow idle reserved GPUs, and a reserved job
that cannot fit evicts such borrowers from its quota.

The simulator allocates from GPU *counters* rather than individual devices:
Acme's clusters are homogeneous and gang-scheduled, so placement detail does
not affect queueing behaviour.  Placement onto concrete nodes is exercised
separately by the evaluation coordinator (``repro.core.evalsched``).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from repro.obs.span import Span
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.scheduler.job import FinalStatus, Job
from repro.scheduler.policy import ReservationPolicy, SchedulingPolicy
from repro.scheduler.queue import JobQueue
from repro.sim.engine import Engine


@dataclass
class SchedulerConfig:
    """Scheduler knobs.

    ``reserved_fraction`` is the share of GPUs held for reserved job types;
    the paper reserves "the majority of resources" for pretraining, so the
    default is high.  ``backfill_depth`` bounds how far down the queue the
    scheduler looks for jobs that fit (Slurm-style conservative backfill).
    Spillover and borrower eviction are the fixed policy (module
    docstring), not knobs.
    """

    total_gpus: int
    reserved_fraction: float = 0.75
    backfill_depth: int = 256

    def __post_init__(self) -> None:
        if self.total_gpus <= 0:
            raise ValueError("total_gpus must be positive")
        if not 0.0 <= self.reserved_fraction <= 1.0:
            raise ValueError("reserved_fraction must be in [0, 1]")
        if self.backfill_depth < 1:
            raise ValueError("backfill_depth must be at least 1")

    @property
    def reserved_gpus(self) -> int:
        return int(round(self.total_gpus * self.reserved_fraction))

    @property
    def shared_gpus(self) -> int:
        return self.total_gpus - self.reserved_gpus


@dataclass
class _Allocation:
    from_reserved: int
    from_shared: int
    #: the pool the job was admitted through ("reserved" or "shared")
    pool: str = "shared"
    #: the running job (set at start time)
    job: Job | None = None
    #: scheduled completion callback (cancelled on preemption)
    finish_item: object = None


class SchedulerSimulator:
    """Event-driven replay of a job trace through the scheduler."""

    def __init__(self, config: SchedulerConfig,
                 policy: SchedulingPolicy | None = None,
                 engine: Engine | None = None,
                 tracer: TracerLike | None = None) -> None:
        self.config = config
        self.policy = policy or ReservationPolicy()
        self.engine = engine or Engine()
        self.tracer = tracer or NULL_TRACER
        #: read once: an untraced run builds no span name or argument
        self._traced = self.tracer.enabled
        #: open queue-wait / run spans, by job id (traced runs only)
        self._wait_spans: dict[str, Span] = {}
        self._run_spans: dict[str, Span] = {}
        self.queue = JobQueue()
        self.free_reserved = config.reserved_gpus
        self.free_shared = config.shared_gpus
        #: pool capacities cached off the config properties — ``_fit``
        #: runs hundreds of thousands of times in a full-trace replay
        #: and the property recomputes a round() on every access
        self._shared_capacity = config.shared_gpus
        self._allocations: dict[str, _Allocation] = {}
        #: reserved GPUs held by shared-pool allocations (borrowers),
        #: kept as a running total so a blocked reserved-pool candidate
        #: learns in O(1) whether eviction could make room
        self._borrowed = 0
        #: queued demands per pool, ``pool -> {gpu_demand: count}``, so
        #: a pass learns from the distinct demands alone whether any
        #: queued job could start (see ``_can_act``)
        self._queued: dict[str, dict[int, int]] = {}
        #: each queued job's pool, ``job_id -> pool``, asked once when
        #: the job is queued rather than on every pass that examines it
        self._pools: dict[str, str] = {}
        #: GPUs held by running jobs, kept as a running total so the
        #: chaos invariant checker reads it in O(1) after every event
        self.gpus_allocated = 0
        self.started: list[Job] = []
        self.finished: list[Job] = []
        #: queued jobs withdrawn by load shedding (never ran)
        self.shed: list[Job] = []
        self.preemptions = 0
        #: time series of (time, gpus_in_use) for utilization accounting
        self.occupancy: list[tuple[float, int]] = []
        #: lifecycle hooks, called as hook(kind, job) with kind one of
        #: "start", "finish", "preempt", "fail", "shed"
        #: (chaos/observability layer)
        self.hooks: list[Callable[[str, Job], None]] = []
        #: GPUs removed from service (cordoned nodes); they are taken out
        #: of the free pools, never out of running allocations
        self.cordoned_gpus = 0
        #: cordons requested while the GPUs were still busy; applied as
        #: allocations drain
        self._pending_cordon = 0

    # -- public API ---------------------------------------------------------

    def simulate(self, jobs: list[Job]) -> list[Job]:
        """Run all jobs to completion; returns them with times filled in.

        Every job is checked before any is scheduled.  The arrivals
        enter the engine one at a time (``Engine.call_at_each``) in
        submit order, equal times in list order, which is the order one
        ``call_at`` per job in list order would give.
        """
        for job in jobs:
            if job.gpu_demand > self.config.total_gpus:
                raise ValueError(
                    f"job {job.job_id} demands {job.gpu_demand} GPUs but the "
                    f"cluster has {self.config.total_gpus}")
        # stable, and by time alone: equal times keep list order
        ordered = sorted(jobs, key=attrgetter("submit_time"))
        arrivals = iter(ordered)
        self.engine.call_at_each([job.submit_time for job in ordered],
                                 lambda: self._on_submit(next(arrivals)))
        self.engine.run()
        return jobs

    def submit(self, job: Job, at: float | None = None) -> None:
        """Schedule one job's arrival (live use; ``simulate`` batches)."""
        if job.gpu_demand > self.config.total_gpus:
            raise ValueError(
                f"job {job.job_id} demands {job.gpu_demand} GPUs but the "
                f"cluster has {self.config.total_gpus}")
        self.engine.call_at(job.submit_time if at is None else at,
                            lambda: self._on_submit(job))

    def running_jobs(self) -> list[Job]:
        """Jobs currently holding GPUs, in start order."""
        ordered = sorted(self._allocations.values(),
                         key=lambda a: (a.job.start_time or 0.0,
                                        a.job.job_id))
        return [allocation.job for allocation in ordered]

    def fail_job(self, job_id: str, reason: str | None = None) -> Job:
        """Kill a running job *now* (fault injection).

        The job terminates with ``FinalStatus.FAILED``, its GPUs return to
        the pools (honouring any pending cordon), and the queue is
        re-scheduled — the same path a crashed gang takes in production.
        """
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise KeyError(f"job {job_id} is not running")
        job = allocation.job
        if allocation.finish_item is not None:
            self.engine.cancel(allocation.finish_item)
        job.final_status = FinalStatus.FAILED
        if reason is not None:
            job.failure_reason = reason
        job.mark_finished(self.engine.now)
        self._release(allocation)
        self.finished.append(job)
        self._end_run_span(job, "fail")
        self._record_occupancy()
        self._notify("fail", job)
        self._try_schedule()
        return job

    def shed_job(self, job_id: str, reason: str | None = None) -> Job:
        """Withdraw a *queued* job (admission-control load shedding).

        The job terminates with ``FinalStatus.CANCELED`` without ever
        holding GPUs; its queue-wait span closes with outcome
        ``"shed"`` and hooks fire with kind ``"shed"``.  Only pending
        jobs can be shed — running work is protected; killing it is
        :meth:`fail_job`'s business.
        """
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(f"job {job_id} is not queued")
        self._dequeue(job)
        job.mark_canceled(self.engine.now)
        if reason is not None:
            job.failure_reason = reason
        self.shed.append(job)
        if self._traced:
            self.tracer.end(self._wait_spans.pop(job_id), outcome="shed")
            self.tracer.set_gauge("scheduler.queue_length", len(self.queue))
        self._notify("shed", job)
        return job

    # -- capacity cordons ---------------------------------------------------

    def cordon_gpus(self, count: int) -> None:
        """Remove ``count`` GPUs from service (cordoned node capacity).

        Free GPUs leave the pools immediately; GPUs still held by running
        jobs are reclaimed as those allocations drain, so counters never
        go negative and running gangs are never silently shrunk.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._pending_cordon += count
        self._apply_pending_cordon()

    def uncordon_gpus(self, count: int) -> None:
        """Return repaired capacity to the shared pool."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.cordoned_gpus + self._pending_cordon:
            raise ValueError("uncordoning more GPUs than are cordoned")
        # cancel not-yet-applied cordons first, then restore capacity
        cancelled = min(count, self._pending_cordon)
        self._pending_cordon -= cancelled
        remainder = count - cancelled
        self.cordoned_gpus -= remainder
        self.free_shared += remainder
        self._try_schedule()

    def _apply_pending_cordon(self) -> None:
        for pool in ("free_shared", "free_reserved"):
            if self._pending_cordon <= 0:
                break
            take = min(getattr(self, pool), self._pending_cordon)
            setattr(self, pool, getattr(self, pool) - take)
            self.cordoned_gpus += take
            self._pending_cordon -= take

    def _notify(self, kind: str, job: Job) -> None:
        for hook in self.hooks:
            hook(kind, job)

    # -- event handlers -----------------------------------------------------

    def _on_submit(self, job: Job) -> None:
        if job.gpu_demand == 0:
            # CPU jobs bypass the GPU queue entirely (§2.3 counts them
            # separately); they start immediately.
            job.mark_started(self.engine.now)
            self.engine.call_after(job.duration,
                                   lambda: self._on_cpu_finish(job))
            return
        self._enqueue(job)
        if self._traced:
            self._wait_spans[job.job_id] = self.tracer.begin(
                f"wait:{job.job_id}", "scheduler.queue",
                job_type=job.job_type.value, gpus=job.gpu_demand)
            self.tracer.set_gauge("scheduler.queue_length", len(self.queue))
        self._try_schedule()

    def _on_cpu_finish(self, job: Job) -> None:
        job.mark_finished(self.engine.now)
        self.finished.append(job)
        if self._traced:
            self.tracer.complete(
                f"run:{job.job_id}", job.start_time or 0.0, self.engine.now,
                "scheduler.cpu", job_type=job.job_type.value)
        self._notify("finish", job)

    def _on_finish(self, job: Job) -> None:
        job.mark_finished(self.engine.now)
        self._release(self._allocations.pop(job.job_id))
        self.finished.append(job)
        self._end_run_span(job, "finish")
        self._record_occupancy()
        self._notify("finish", job)
        self._try_schedule()

    def _end_run_span(self, job: Job, outcome: str) -> None:
        if self._traced:
            self.tracer.end(self._run_spans.pop(job.job_id), outcome=outcome)

    # -- scheduling core ------------------------------------------------------

    def _try_schedule(self) -> None:
        """Start queued jobs until a pass over the window starts none.

        A pass begins only while some queued job could act
        (``_can_act``).  Each pass fixes its window (the policy's first
        ``backfill_depth`` jobs) before the first fit attempt, so jobs
        an eviction puts back in the queue wait for the next pass.
        Each candidate's pool is the one ``_enqueue`` cached.
        """
        config, policy, queue = self.config, self.policy, self.queue
        pools = self._pools
        while queue and self._can_act():
            for job in policy.ordered(queue, config.backfill_depth):
                pool = pools[job.job_id]
                demand = job.gpu_demand
                allocation = self._fit(demand, pool)
                if allocation is None:
                    if (pool == "reserved"
                            and self._evict_borrowers_for(demand)):
                        allocation = self._fit(demand, "reserved")
                    if allocation is None:
                        continue
                self._start(job, allocation, pool)
                break  # re-evaluate priorities after every start
            else:
                return

    def _can_act(self) -> bool:
        """Whether some queued job could start or evict a borrower now.

        Asks every queued demand, a superset of any window, what
        ``_fit`` and the early return of ``_evict_borrowers_for`` ask
        of one job, so a pass it skips would have changed nothing
        (docs/PERF.md, "Why the gate is exact").  The reserved bound is
        monotone in the demand, so the smallest decides; borrowing
        makes the shared one not, so every distinct demand is asked.
        Any other pool acts, so ``_fit`` still rejects it.
        """
        free_shared = self.free_shared
        free = self.free_reserved + free_shared
        for pool, demands in self._queued.items():
            if not demands:
                continue
            if pool == "reserved":
                if min(demands) <= free + self._borrowed:
                    return True
            elif pool == "shared":
                capacity = self._shared_capacity
                for demand in demands:
                    if demand <= free_shared or capacity < demand <= free:
                        return True
            else:
                return True
        return False

    def _evict_borrowers_for(self, demand: int) -> bool:
        """Preempt best-effort jobs holding reserved GPUs until
        ``demand`` fits; returns True if eviction freed enough.

        Borrowers are evicted youngest-first (least progress lost); the
        evicted job goes back to the pending queue and will rerun from
        scratch — the "considerable recovery overhead" that makes
        preemption unattractive for LLM workloads (§3.1).
        """
        if not self._borrowed or demand > (
                self.free_reserved + self.free_shared + self._borrowed):
            return False
        borrowers = [allocation for allocation in
                     self._allocations.values()
                     if allocation.pool == "shared"
                     and allocation.from_reserved > 0]
        borrowers.sort(key=lambda a: a.job.start_time or 0.0,
                       reverse=True)
        for allocation in borrowers:
            if demand <= self.free_reserved + self.free_shared:
                break
            self._preempt(allocation)
        return True

    def _preempt(self, allocation: "_Allocation") -> None:
        job = allocation.job
        if allocation.finish_item is not None:
            self.engine.cancel(allocation.finish_item)
        del self._allocations[job.job_id]
        self._release(allocation)
        job.mark_preempted(self.engine.now)
        self.preemptions += 1
        self._enqueue(job)
        self._end_run_span(job, "preempt")
        if self._traced:
            self._wait_spans[job.job_id] = self.tracer.begin(
                f"wait:{job.job_id}", "scheduler.queue", preempted=True,
                job_type=job.job_type.value, gpus=job.gpu_demand)
        self._record_occupancy()
        self._notify("preempt", job)

    def _enqueue(self, job: Job) -> None:
        """Queue ``job``, ask its pool once and count its demand there."""
        self.queue.push(job)
        pool = self._pools[job.job_id] = self.policy.pool_of(job)
        demands = self._queued.setdefault(pool, {})
        demands[job.gpu_demand] = demands.get(job.gpu_demand, 0) + 1

    def _dequeue(self, job: Job) -> None:
        """Unqueue ``job`` and uncount its demand from its cached pool."""
        self.queue.remove(job)
        demands = self._queued[self._pools.pop(job.job_id)]
        count = demands[job.gpu_demand]
        if count == 1:
            del demands[job.gpu_demand]
        else:
            demands[job.gpu_demand] = count - 1

    def _release(self, allocation: _Allocation) -> None:
        """Return an ended allocation's GPUs to the pools."""
        self.free_reserved += allocation.from_reserved
        self.free_shared += allocation.from_shared
        self.gpus_allocated -= (allocation.from_reserved
                                + allocation.from_shared)
        if allocation.pool == "shared":
            self._borrowed -= allocation.from_reserved
        self._apply_pending_cordon()

    def _fit(self, demand: int, pool: str) -> _Allocation | None:
        if pool == "reserved":
            if demand <= self.free_reserved:
                return _Allocation(demand, 0)
            if demand <= self.free_reserved + self.free_shared:
                return _Allocation(self.free_reserved,
                                   demand - self.free_reserved)
            return None
        if pool == "shared":
            if demand <= self.free_shared:
                return _Allocation(0, demand)
            if demand > self._shared_capacity:
                # A best-effort job larger than the whole spare pool can
                # never fit there; it borrows idle reserved capacity (the
                # §2.2 best-effort mechanism) rather than starving forever.
                if demand <= self.free_reserved + self.free_shared:
                    return _Allocation(demand - self.free_shared,
                                       self.free_shared)
            return None
        raise ValueError(f"unknown pool {pool!r}")

    def _start(self, job: Job, allocation: _Allocation,
               pool: str = "shared") -> None:
        self._dequeue(job)
        self.free_reserved -= allocation.from_reserved
        self.free_shared -= allocation.from_shared
        self.gpus_allocated += (allocation.from_reserved
                                + allocation.from_shared)
        allocation.pool = pool
        allocation.job = job
        if pool == "shared":
            self._borrowed += allocation.from_reserved
        self._allocations[job.job_id] = allocation
        job.mark_started(self.engine.now)
        self.started.append(job)
        if self._traced:
            self.tracer.end(self._wait_spans.pop(job.job_id),
                            outcome="scheduled", pool=pool)
            self._run_spans[job.job_id] = self.tracer.begin(
                f"run:{job.job_id}", "scheduler.run", pool=pool,
                gpus=job.gpu_demand, job_type=job.job_type.value,
                borrowed=allocation.from_reserved if pool == "shared" else 0)
            self.tracer.set_gauge("scheduler.queue_length", len(self.queue))
        self._record_occupancy()
        self._notify("start", job)
        allocation.finish_item = self.engine.call_after(
            job.duration, lambda: self._on_finish(job))

    def _record_occupancy(self) -> None:
        in_use = (self.config.total_gpus - self.free_reserved
                  - self.free_shared - self.cordoned_gpus)
        self.occupancy.append((self.engine.now, in_use))
        if self._traced:
            self.tracer.set_gauge("scheduler.gpus_in_use", in_use)

    # -- reporting ------------------------------------------------------------

    def state_digest(self) -> str:
        """Deterministic digest of the live scheduling state.

        Captures everything a resumed run's scheduling decisions depend
        on — queue contents and order, allocations, free pools, cordon
        state, and lifetime counters — as a crc32 over a canonical
        repr.  The service snapshot records this digest so a journal-
        replay restore can prove the rebuilt scheduler is equivalent,
        without trying to serialize live ``Job``/callback objects.
        """
        allocations = tuple(sorted(
            (job_id, alloc.from_reserved, alloc.from_shared, alloc.pool)
            for job_id, alloc in self._allocations.items()))
        # the repr of the tuple (queued, allocations, ...), with the
        # queue's part joined from its cached per-job text
        fields = (
            allocations, self.free_reserved, self.free_shared,
            self.cordoned_gpus, self._pending_cordon, self.preemptions,
            len(self.started), len(self.finished), len(self.shed))
        canonical = (f"({self.queue.demands_repr()}, "
                     f"{', '.join(map(repr, fields))})")
        return f"{zlib.crc32(canonical.encode('utf-8')):08x}"

    def gpu_seconds_used(self) -> float:
        """Integral of occupancy over time (for utilization accounting)."""
        if len(self.occupancy) < 2:
            return 0.0
        return math.fsum(
            gpus * (t1 - t0)
            for (t0, gpus), (t1, _)
            in zip(self.occupancy, self.occupancy[1:]))
