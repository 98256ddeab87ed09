"""Pending-job queue with priority classes.

The scheduler keeps one logical queue; policies decide eligibility and
ordering.  The queue itself only maintains insertion order and provides
filtered views, so different policies can share it.

Two structures back the queue:

* an insertion-ordered ``dict`` of pending jobs (push, remove and
  membership are O(1) — the old list-backed remove was a linear scan
  that dominated full-trace replays);
* an optional **priority index**: per-class insertion-ordered buckets
  maintained incrementally, so a policy can take the first *k*
  candidates in (priority, arrival) order without re-sorting the whole
  queue on every scheduling round.  Within a class, bucket order equals
  arrival order, so the head is exactly what a stable
  ``sorted(..., key=(priority, index))`` of the whole queue yields.

The queue also keeps each job's ``repr((job_id, gpu_demand))``, made
once at push, so the scheduler's state digest joins cached text rather
than re-repring the whole queue on every call.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterator

from repro.scheduler.job import Job, JobType


class JobQueue:
    """FIFO container of pending jobs with removal by ``job_id``."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        #: ``repr((job_id, gpu_demand))`` per queued job, in queue order
        self._fragments: dict[str, str] = {}
        #: priority classifier backing the bucket index (None = unbuilt)
        self._priority_fn: Callable[[Job], int] | None = None
        self._buckets: dict[int, dict[str, Job]] = {}

    def push(self, job: Job) -> None:
        """Append a job; duplicates are rejected."""
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id} already queued")
        self._jobs[job.job_id] = job
        self._fragments[job.job_id] = repr((job.job_id, job.gpu_demand))
        if self._priority_fn is not None:
            bucket = self._buckets.setdefault(self._priority_fn(job), {})
            bucket[job.job_id] = job

    def remove(self, job: Job) -> None:
        """Drop a queued job by ``job_id``.

        Keyed by id, matching ``__contains__`` and ``push`` — removal by
        instance equality let ``job in queue`` be True while
        ``remove(job)`` raised ``ValueError`` for a distinct instance
        sharing the id (e.g. a resubmitted clone).
        """
        queued = self._jobs.pop(job.job_id, None)
        if queued is None:
            raise ValueError(f"job {job.job_id} is not queued")
        del self._fragments[queued.job_id]
        if self._priority_fn is not None:
            self._buckets[self._priority_fn(queued)].pop(queued.job_id,
                                                         None)

    # -- priority index ----------------------------------------------------

    def ensure_priority_index(self, priority_fn: Callable[[Job], int]
                              ) -> None:
        """(Re)build the bucket index for ``priority_fn`` if needed.

        Idempotent for an equal classifier (e.g. the same policy's bound
        method across calls); switching policies rebuilds the buckets.
        """
        if self._priority_fn == priority_fn:
            return
        self._priority_fn = priority_fn
        self._buckets = {}
        for job in self._jobs.values():
            self._buckets.setdefault(priority_fn(job), {})[job.job_id] \
                = job

    def head_by_priority(self, limit: int | None) -> list[Job]:
        """First ``limit`` jobs in (priority class, arrival) order.

        Requires :meth:`ensure_priority_index`.  Equivalent to sorting
        all pending jobs stably by priority class and slicing — without
        touching jobs beyond the first ``limit``.  ``limit=None``
        returns every pending job; ``limit=0`` returns none.  The
        buckets are chained and sliced in C, with no Python step per
        job.
        """
        if self._priority_fn is None:
            raise RuntimeError("priority index not built; call "
                               "ensure_priority_index first")
        buckets = self._buckets
        return list(islice(chain.from_iterable(
            [buckets[priority].values() for priority in sorted(buckets)]),
            limit))

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    def pending(self, predicate: Callable[[Job], bool] | None = None
                ) -> list[Job]:
        """Jobs in FIFO order, optionally filtered."""
        if predicate is None:
            return list(self._jobs.values())
        return [job for job in self._jobs.values() if predicate(job)]

    def by_type(self, job_type: JobType) -> list[Job]:
        """Pending jobs of one workload type."""
        return self.pending(lambda job: job.job_type is job_type)

    def oldest(self) -> Job | None:
        """Head of the queue, or None."""
        return next(iter(self._jobs.values()), None)

    def get(self, job_id: str) -> Job | None:
        """The queued job with ``job_id``, or None."""
        return self._jobs.get(job_id)

    def demands_repr(self) -> str:
        """``repr(tuple((job.job_id, job.gpu_demand) for job in queue))``.

        Joined from the fragments cached at push time; the text is the
        tuple's repr exactly: ``()``, ``(x,)``, ``(x, y, ...)``.
        """
        fragments = self._fragments.values()
        if len(fragments) == 1:
            return f"({next(iter(fragments))},)"
        return f"({', '.join(fragments)})"
