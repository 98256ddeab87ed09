"""Tests for queue and scheduling policies."""

import pytest

from repro.scheduler.job import Job, JobType
from repro.scheduler.policy import (FifoPolicy, PriorityPolicy,
                                    ReservationPolicy)
from repro.scheduler.queue import JobQueue

from .oracles.scheduler import ordered_by_sort


def job(job_id, job_type=JobType.EVALUATION, demand=1, submit=0.0):
    return Job(job_id=job_id, cluster="seren", job_type=job_type,
               submit_time=submit, duration=60.0, gpu_demand=demand)


class TestQueue:
    def test_fifo_order(self):
        queue = JobQueue()
        for i in range(3):
            queue.push(job(f"j{i}"))
        assert [j.job_id for j in queue.pending()] == ["j0", "j1", "j2"]

    def test_duplicate_push_rejected(self):
        queue = JobQueue()
        j = job("a")
        queue.push(j)
        with pytest.raises(ValueError):
            queue.push(j)

    def test_remove(self):
        queue = JobQueue()
        a, b = job("a"), job("b")
        queue.push(a)
        queue.push(b)
        queue.remove(a)
        assert a not in queue
        assert len(queue) == 1
        assert queue.oldest() is b

    def test_remove_matches_by_job_id_not_instance(self):
        """Regression: ``in`` matched by job_id but ``remove`` compared
        instances, so removing an equal-id clone corrupted ``_ids``."""
        queue = JobQueue()
        queue.push(job("a"))
        twin = job("a")                     # distinct instance, same id
        assert twin in queue
        queue.remove(twin)
        assert twin not in queue
        assert len(queue) == 0
        queue.push(job("a"))                # id bookkeeping stayed sane
        assert len(queue) == 1

    def test_remove_unknown_job_raises(self):
        queue = JobQueue()
        queue.push(job("a"))
        with pytest.raises(ValueError):
            queue.remove(job("ghost"))
        assert len(queue) == 1

    def test_by_type_filter(self):
        queue = JobQueue()
        queue.push(job("a", JobType.PRETRAIN))
        queue.push(job("b", JobType.EVALUATION))
        assert [j.job_id for j in queue.by_type(JobType.PRETRAIN)] == ["a"]

    def test_oldest_on_empty(self):
        assert JobQueue().oldest() is None


class TestFifoPolicy:
    def test_preserves_arrival_order(self):
        queue = JobQueue()
        queue.push(job("a", JobType.EVALUATION))
        queue.push(job("b", JobType.PRETRAIN))
        policy = FifoPolicy()
        ordered = policy.ordered(queue)
        assert [j.job_id for j in ordered] == ["a", "b"]
        assert all(policy.pool_of(j) == "shared" for j in ordered)


class TestPriorityPolicy:
    def test_pretrain_outranks_evaluation(self):
        queue = JobQueue()
        queue.push(job("eval", JobType.EVALUATION))
        queue.push(job("pre", JobType.PRETRAIN))
        assert PriorityPolicy().ordered(queue)[0].job_id == "pre"

    def test_fifo_within_priority_class(self):
        queue = JobQueue()
        queue.push(job("e1", JobType.EVALUATION))
        queue.push(job("e2", JobType.EVALUATION))
        ordered = PriorityPolicy().ordered(queue)
        assert [j.job_id for j in ordered] == ["e1", "e2"]


class TestReservationPolicy:
    def test_training_types_use_reserved_pool(self):
        queue = JobQueue()
        queue.push(job("pre", JobType.PRETRAIN))
        queue.push(job("sft", JobType.SFT))
        queue.push(job("eval", JobType.EVALUATION))
        policy = ReservationPolicy()
        pools = {j.job_id: policy.pool_of(j) for j in policy.ordered(queue)}
        assert pools["pre"] == "reserved"
        assert pools["sft"] == "reserved"
        assert pools["eval"] == "shared"

    def test_evaluation_is_lowest_priority(self):
        queue = JobQueue()
        queue.push(job("eval", JobType.EVALUATION))
        queue.push(job("debug", JobType.DEBUG))
        queue.push(job("pre", JobType.PRETRAIN))
        order = [j.job_id for j in ReservationPolicy().ordered(queue)]
        assert order == ["pre", "debug", "eval"]


class TestPriorityIndexFastPath:
    """The bucket index must reproduce the oracle's stable sort."""

    def _random_queue(self, seed, n):
        import random

        rng = random.Random(seed)
        queue = JobQueue()
        types = list(JobType)
        for index in range(n):
            queue.push(job(f"j{index}", job_type=rng.choice(types)))
        # churn: remove a third, re-add some under new ids
        for index in rng.sample(range(n), n // 3):
            target = next(j for j in queue
                          if j.job_id == f"j{index}")
            queue.remove(target)
        for index in range(n, n + n // 4):
            queue.push(job(f"j{index}", job_type=rng.choice(types)))
        return queue

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy_class",
                             [PriorityPolicy, ReservationPolicy])
    def test_bucket_head_equals_stable_sort(self, policy_class, seed):
        policy = policy_class()
        for limit in (0, 1, 3, 10, 1000, None):
            queue = self._random_queue(seed, 60)
            ordered = policy.ordered(queue, limit)
            reference = ordered_by_sort(policy, queue, limit)
            assert [j.job_id for j in ordered] == \
                [j.job_id for j in reference], limit

    def test_unlimited_candidates_match_full_sort(self):
        policy = PriorityPolicy()
        queue = self._random_queue(7, 40)
        ordered = policy.ordered(queue)  # limit=None: full order
        assert len(ordered) == len(queue)
        assert [j.job_id for j in ordered] == \
            [j.job_id for j in ordered_by_sort(policy, queue)]

    def test_index_rebuilds_on_policy_switch(self):
        queue = JobQueue()
        queue.push(job("a", job_type=JobType.EVALUATION))
        queue.push(job("b", job_type=JobType.PRETRAIN))
        first = PriorityPolicy()
        queue.ensure_priority_index(first.priority_of)
        assert [j.job_id for j in queue.head_by_priority(2)] == \
            ["b", "a"]
        inverted = PriorityPolicy(priorities={
            JobType.EVALUATION: 0, JobType.PRETRAIN: 9})
        queue.ensure_priority_index(inverted.priority_of)
        assert [j.job_id for j in queue.head_by_priority(2)] == \
            ["a", "b"]

    def test_index_requires_build(self):
        with pytest.raises(RuntimeError, match="priority index"):
            JobQueue().head_by_priority(1)

    def test_same_bound_method_does_not_rebuild(self):
        queue = JobQueue()
        policy = PriorityPolicy()
        queue.ensure_priority_index(policy.priority_of)
        buckets = queue._buckets
        queue.ensure_priority_index(policy.priority_of)
        assert queue._buckets is buckets  # idempotent, no rebuild
