"""Scheduling policies.

``ReservationPolicy`` reproduces Acme's production setup (§2.2, §3.2):

* a quota of GPUs is *reserved* for pretraining (and other high-priority
  work), minimizing pretraining queueing delay;
* all other jobs run best-effort on the remaining pool, with evaluation at
  the lowest priority — which is why evaluation shows the longest queueing
  delay in Fig. 6 despite the smallest demand.

Policies are pure ordering/eligibility logic; the simulator owns placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.scheduler.job import Job, JobType
from repro.scheduler.queue import JobQueue

#: priority class per job type (lower runs first); every policy instance
#: starts from its own copy
DEFAULT_PRIORITIES: Mapping[JobType, int] = MappingProxyType({
    JobType.PRETRAIN: 0,
    JobType.SFT: 1,
    JobType.MLLM: 1,
    JobType.DEBUG: 2,
    JobType.OTHER: 2,
    JobType.EVALUATION: 3,
})


class SchedulingPolicy:
    """Base policy interface.

    ``ordered(queue, limit)`` returns the jobs to attempt in priority
    order and ``pool_of(job)`` the pool each may draw from.  ``limit``
    (the simulator's backfill depth) bounds how many jobs the caller
    will look at, which lets an implementation stop early instead of
    ordering the entire queue on every scheduling round;
    ``limit=None`` returns the full ordering.
    """

    def ordered(self, queue: JobQueue,
                limit: int | None = None) -> list[Job]:
        """Jobs to attempt, in priority order."""
        raise NotImplementedError

    def pool_of(self, job: Job) -> str:
        """The pool ``job`` may draw from ("reserved" or "shared")."""
        return "shared"


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order; everything shares one pool.

    The baseline prior DL schedulers approximate (§3.1): large jobs at the
    head block everyone behind them.
    """

    def ordered(self, queue: JobQueue,
                limit: int | None = None) -> list[Job]:
        """Jobs to attempt, in priority order."""
        jobs = queue.pending()
        return jobs if limit is None else jobs[:limit]


@dataclass
class PriorityPolicy(SchedulingPolicy):
    """Fixed per-type priorities over a single pool, FIFO within a class.

    Lower number = higher priority.
    """

    priorities: dict[JobType, int] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITIES))

    def priority_of(self, job: Job) -> int:
        """Priority class of a job (lower runs first)."""
        return self.priorities.get(job.job_type, 2)

    def ordered(self, queue: JobQueue,
                limit: int | None = None) -> list[Job]:
        """First ``limit`` jobs in (priority class, arrival) order.

        Read from the queue's incremental bucket index in O(limit)
        rather than by sorting the whole queue every round.
        """
        queue.ensure_priority_index(self.priority_of)
        return queue.head_by_priority(limit)


@dataclass
class ReservationPolicy(PriorityPolicy):
    """Quota reservation for pretraining + best-effort for the rest.

    Pretraining (and optionally SFT/MLLM) jobs may draw from both the
    reserved pool and the shared pool; everything else is confined to the
    shared pool.  Within each class, FIFO order.
    """

    #: training jobs draw from the reserved quota; evaluation and other
    #: best-effort work is confined to the spare pool (§2.2/§3.2)
    reserved_types: frozenset[JobType] = frozenset(
        {JobType.PRETRAIN, JobType.SFT, JobType.MLLM})

    def pool_of(self, job: Job) -> str:
        """The pool ``job`` may draw from ("reserved" or "shared")."""
        return "reserved" if job.job_type in self.reserved_types \
            else "shared"
