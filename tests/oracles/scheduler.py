"""Reference versions of the scheduler's round loop, eviction and digest.

``ReferenceSchedulerSimulator`` keeps the straightforward versions of
the scheduler's three hot paths:

* ``_try_schedule`` builds the policy's full candidate list on every
  pass, whether or not any GPU is free;
* ``_evict_borrowers_for`` rescans every allocation for borrowers on
  every blocked reserved-pool candidate;
* ``state_digest`` reprs the whole queue as one tuple.

Everything else (start, finish, preemption, cordons, fault injection)
is inherited, so a side-by-side run against ``SchedulerSimulator``
isolates exactly these three methods.
"""

from __future__ import annotations

import zlib

from repro.scheduler.simulator import SchedulerSimulator


class ReferenceSchedulerSimulator(SchedulerSimulator):
    """``SchedulerSimulator`` with the reference round loop and digest."""

    def _try_schedule(self) -> None:
        progress = True
        depth = self.config.backfill_depth
        while progress:
            progress = False
            candidates = self.policy.candidates(self.queue, limit=depth)
            for candidate in candidates:
                allocation = self._fit(candidate.job.gpu_demand,
                                       candidate.pool)
                if allocation is None:
                    if (candidate.pool == "reserved"
                            and self.config.preempt_borrowers
                            and self._evict_borrowers_for(
                                candidate.job.gpu_demand)):
                        allocation = self._fit(candidate.job.gpu_demand,
                                               "reserved")
                    if allocation is None:
                        continue
                self._start(candidate.job, allocation, candidate.pool)
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
