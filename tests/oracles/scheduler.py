"""Reference versions of the scheduler's hot paths.

``ReferenceSchedulerSimulator`` keeps the straightforward versions of
three of them:

* ``_try_schedule`` pairs every job in the policy's window with its
  pool on every pass, whether or not any GPU is free;
* ``_evict_borrowers_for`` rescans every allocation for borrowers on
  every blocked reserved-pool candidate;
* ``state_digest`` reprs the whole queue as one tuple.

Everything else (start, finish, preemption, cordons, fault injection)
is inherited, so a side-by-side run against ``SchedulerSimulator``
isolates exactly these three methods.

``ordered_by_sort`` is the reference ``PriorityPolicy.ordered``: a
stable sort of the whole queue by (priority class, arrival), where
production reads the queue's incremental priority buckets.
"""

from __future__ import annotations

import zlib

from repro.scheduler.job import Job
from repro.scheduler.policy import PriorityPolicy
from repro.scheduler.queue import JobQueue
from repro.scheduler.simulator import SchedulerSimulator


def ordered_by_sort(policy: PriorityPolicy, queue: JobQueue,
                    limit: int | None = None) -> list[Job]:
    """First ``limit`` jobs of the stably sorted queue."""
    ordered = sorted(enumerate(queue.pending()),
                     key=lambda pair: (policy.priority_of(pair[1]),
                                       pair[0]))
    jobs = [job for _, job in ordered]
    return jobs if limit is None else jobs[:limit]


class ReferenceSchedulerSimulator(SchedulerSimulator):
    """``SchedulerSimulator`` with the reference round loop and digest."""

    def _try_schedule(self) -> None:
        progress = True
        depth = self.config.backfill_depth
        while progress:
            progress = False
            candidates = [(job, self.policy.pool_of(job)) for job
                          in self.policy.ordered(self.queue, depth)]
            for job, pool in candidates:
                allocation = self._fit(job.gpu_demand, pool)
                if allocation is None:
                    if (pool == "reserved"
                            and self.config.preempt_borrowers
                            and self._evict_borrowers_for(
                                job.gpu_demand)):
                        allocation = self._fit(job.gpu_demand, "reserved")
                    if allocation is None:
                        continue
                self._start(job, allocation, pool)
                progress = True
                break  # re-evaluate priorities after every start

    def _evict_borrowers_for(self, demand: int) -> bool:
        borrowers = [allocation for allocation in
                     self._allocations.values()
                     if allocation.pool == "shared"
                     and allocation.from_reserved > 0]
        if not borrowers:
            return False
        reclaimable = sum(a.from_reserved for a in borrowers)
        available = (self.free_reserved + reclaimable
                     + (self.free_shared
                        if self.config.reserved_spillover else 0))
        if demand > available:
            return False
        borrowers.sort(key=lambda a: a.job.start_time or 0.0,
                       reverse=True)
        for allocation in borrowers:
            if demand <= self.free_reserved + (
                    self.free_shared
                    if self.config.reserved_spillover else 0):
                break
            self._preempt(allocation)
        return True

    def state_digest(self) -> str:
        queued = tuple((job.job_id, job.gpu_demand) for job in self.queue)
        allocations = tuple(sorted(
            (job_id, alloc.from_reserved, alloc.from_shared, alloc.pool)
            for job_id, alloc in self._allocations.items()))
        canonical = repr((
            queued, allocations, self.free_reserved, self.free_shared,
            self.cordoned_gpus, self._pending_cordon, self.preemptions,
            len(self.started), len(self.finished), len(self.shed)))
        return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


def borrowed_reserved(sim: SchedulerSimulator) -> int:
    """Reserved GPUs held by shared-pool allocations, recounted."""
    return sum(allocation.from_reserved
               for allocation in sim._allocations.values()
               if allocation.pool == "shared")


def allocated_gpus(sim: SchedulerSimulator) -> int:
    """GPUs held by running jobs, recounted."""
    return sum(allocation.from_reserved + allocation.from_shared
               for allocation in sim._allocations.values())
