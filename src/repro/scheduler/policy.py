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
from repro.sim.fastpath import fast_path_enabled

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


@dataclass(frozen=True)
class Candidate:
    """A job the policy wants started, tagged with the pool it may use."""

    job: Job
    pool: str  # "reserved" or "shared"


class SchedulingPolicy:
    """Base policy interface.

    ``ordered(queue, limit)`` returns the jobs to attempt in priority
    order and ``pool_of(job)`` the pool each may draw from.  ``limit``
    (the simulator's backfill depth) bounds how many jobs the caller
    will look at, which lets fast-path implementations stop early
    instead of ordering the entire queue on every scheduling round;
    ``limit=None`` returns the full ordering.
    """

    def ordered(self, queue: JobQueue,
                limit: int | None = None) -> list[Job]:
        """Jobs to attempt, in priority order."""
        raise NotImplementedError

    def pool_of(self, job: Job) -> str:
        """The pool ``job`` may draw from ("reserved" or "shared")."""
        return "shared"

    def candidates(self, queue: JobQueue,
                   limit: int | None = None) -> list[Candidate]:
        """Jobs to attempt, in priority order, tagged with their pool."""
        return [Candidate(job, self.pool_of(job))
                for job in self.ordered(queue, limit)]


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


def _ordered_head(policy: "PriorityPolicy", queue: JobQueue,
                  limit: int | None) -> list[Job]:
    """First ``limit`` pending jobs in (priority class, arrival) order.

    Fast path: the queue's incremental bucket index, O(limit).
    Reference path: stable sort of the whole queue by (class, position)
    — the original implementation, kept bit-for-bit for equivalence
    testing.  Both orders are identical by construction (within a
    class, bucket order *is* arrival order).
    """
    if limit is not None and fast_path_enabled():
        queue.ensure_priority_index(policy.priority_of)
        return queue.head_by_priority(limit)
    ordered = sorted(enumerate(queue.pending()),
                     key=lambda pair: (policy.priority_of(pair[1]),
                                       pair[0]))
    jobs = [job for _, job in ordered]
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
        """Jobs to attempt, in priority order."""
        return _ordered_head(self, queue, limit)


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
