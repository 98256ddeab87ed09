"""Differential test: the scheduler's hot paths against their reference.

``SchedulerSimulator`` skips rounds that cannot start anything, keeps
running borrower and allocated totals, asks a job's pool only when it
examines the job, and digests the queue from cached text.  Each of
those is exact by construction; this file checks it by driving the
simulator and the reference in ``tests/oracles/scheduler.py`` side by
side through random submits, advances, failures, sheds and cordons,
and comparing them after every engine event and every call.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.job import Job, JobType
from repro.scheduler.policy import (FifoPolicy, PriorityPolicy,
                                    ReservationPolicy)
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator

from .oracles.scheduler import (ReferenceSchedulerSimulator, allocated_gpus,
                                borrowed_reserved)

JOB_TYPES = (JobType.PRETRAIN, JobType.SFT, JobType.DEBUG,
             JobType.EVALUATION)
POLICIES = {"reservation": ReservationPolicy, "priority": PriorityPolicy,
            "fifo": FifoPolicy}


def state(sim: SchedulerSimulator) -> tuple:
    """Everything a scheduling decision can depend on, plus the digest."""
    return (sim.engine.now, sim.free_reserved, sim.free_shared,
            sim.cordoned_gpus, sim._pending_cordon, sim.preemptions,
            borrowed_reserved(sim), sim.state_digest())


class Twin:
    """The simulator and its reference, fed the same operations."""

    def __init__(self, config: SchedulerConfig,
                 policy: str = "reservation") -> None:
        self.new = SchedulerSimulator(config, POLICIES[policy]())
        self.ref = ReferenceSchedulerSimulator(config, POLICIES[policy]())
        self.hooks: dict[str, list] = {}
        self.states: dict[str, list] = {}
        for name, sim in (("new", self.new), ("ref", self.ref)):
            hooks, states = [], []
            sim.hooks.append(
                lambda kind, job, log=hooks: log.append((kind, job.job_id)))
            sim.engine.add_listener(
                lambda now, sim=sim, log=states: log.append(state(sim)))
            self.hooks[name], self.states[name] = hooks, states
        self.submitted = 0

    def each(self, action) -> None:
        for sim in (self.new, self.ref):
            action(sim)
        self.check()

    def check(self) -> None:
        assert self.hooks["new"] == self.hooks["ref"]
        assert self.states["new"] == self.states["ref"]
        assert state(self.new) == state(self.ref)
        assert self.new._borrowed == borrowed_reserved(self.new)
        assert self.new.gpus_allocated == allocated_gpus(self.new)

    def submit(self, job_type: JobType, demand: int, duration: float,
               delay: float = 0.0) -> str:
        job_id = f"j{self.submitted}"
        self.submitted += 1
        self.each(lambda sim: sim.submit(Job(
            job_id=job_id, cluster="kalos", job_type=job_type,
            submit_time=sim.engine.now + delay, duration=duration,
            gpu_demand=demand)))
        return job_id

    def advance(self, seconds: float) -> None:
        self.each(lambda sim: sim.engine.run(until=sim.engine.now
                                             + seconds))

    def fail(self, index: int) -> None:
        running = [job.job_id for job in self.new.running_jobs()]
        assert running == [job.job_id for job in self.ref.running_jobs()]
        if running:
            job_id = running[index % len(running)]
            self.each(lambda sim: sim.fail_job(job_id, reason="test"))

    def shed(self, index: int) -> None:
        queued = [job.job_id for job in self.new.queue]
        assert queued == [job.job_id for job in self.ref.queue]
        if queued:
            job_id = queued[index % len(queued)]
            self.each(lambda sim: sim.shed_job(job_id))

    def cordon(self, count: int) -> None:
        self.each(lambda sim: sim.cordon_gpus(count))

    def uncordon(self, count: int) -> None:
        count = min(count, self.new.cordoned_gpus + self.new._pending_cordon)
        self.each(lambda sim: sim.uncordon_gpus(count))


configs = st.builds(
    SchedulerConfig,
    total_gpus=st.sampled_from([1, 4, 10, 50]),
    reserved_fraction=st.sampled_from([0.0, 0.5, 0.98, 1.0]),
    backfill_depth=st.sampled_from([1, 2, 3, 256]),
    reserved_spillover=st.booleans(),
    preempt_borrowers=st.booleans())

submits = st.tuples(
    st.just("submit"), st.sampled_from(JOB_TYPES),
    st.one_of(st.integers(0, 3), st.floats(0.0, 1.0)),
    st.sampled_from([1.0, 5.0, 30.0]), st.sampled_from([0.0, 0.0, 2.0]))
advances = st.tuples(st.just("advance"),
                     st.sampled_from([0.0, 1.0, 4.0, 40.0]))
# repeated branches weight the mix: queues build up, then drain
operations = st.lists(st.one_of(
    submits, submits, submits, advances, advances,
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("shed"), st.integers(0, 7)),
    st.tuples(st.just("cordon"), st.integers(0, 12)),
    st.tuples(st.just("uncordon"), st.integers(0, 12)),
), min_size=5, max_size=60)


@settings(max_examples=300, deadline=None)
@given(config=configs, policy=st.sampled_from(sorted(POLICIES)),
       ops=operations)
def test_random_operations_match_reference(config, policy, ops):
    twin = Twin(config, policy)
    for op, *args in ops:
        if op == "submit":
            job_type, size, duration, delay = args
            # mostly small gangs, so several start in one round; a float
            # is a share of the cluster, and at 1.0 it demands all of it,
            # well above the shared pool whenever anything is reserved
            demand = (round(size * config.total_gpus)
                      if isinstance(size, float)
                      else min(size, config.total_gpus))
            twin.submit(job_type, demand, duration, delay)
        else:
            getattr(twin, op)(*args)
    twin.advance(1e6)


def test_large_best_effort_job_borrows_past_a_smaller_blocked_one():
    """Demand pruning is unsound: a larger shared-pool job can start by
    borrowing idle reserved GPUs where a smaller one cannot fit."""
    twin = Twin(SchedulerConfig(total_gpus=10, reserved_fraction=0.8))
    first = twin.submit(JobType.EVALUATION, 1, 100.0)
    smaller = twin.submit(JobType.EVALUATION, 2, 100.0)
    larger = twin.submit(JobType.EVALUATION, 3, 100.0)
    twin.advance(1.0)
    assert twin.hooks["new"] == [("start", first), ("start", larger)]
    assert [job.job_id for job in twin.new.queue] == [smaller]
    assert twin.new._borrowed == 2
    assert (twin.new.free_reserved, twin.new.free_shared) == (6, 0)


def test_one_release_starts_more_jobs_than_the_window_holds():
    """Every start begins a new pass over a fresh window, so one release
    can start more jobs than ``backfill_depth``; resuming the old scan
    after a start would leave the rest queued."""
    twin = Twin(SchedulerConfig(total_gpus=4, reserved_fraction=0.0,
                                backfill_depth=1))
    twin.submit(JobType.DEBUG, 4, 10.0)
    queued = [twin.submit(JobType.DEBUG, 1, 10.0) for _ in range(3)]
    twin.advance(1.0)
    assert len(twin.new.queue) == 3
    twin.fail(0)
    assert twin.hooks["new"][-3:] == [("start", job) for job in queued]
    assert not twin.new.queue


def test_eviction_under_pending_cordon_keeps_scanning_original_window():
    """An eviction whose GPUs a pending cordon partly absorbs preempts
    the borrower without starting the reserved job; the pass goes on
    over the window it began with, where a later job does start, and
    the preempted job waits for the next pass."""
    twin = Twin(SchedulerConfig(total_gpus=20, reserved_fraction=0.75))
    borrower = twin.submit(JobType.EVALUATION, 14, 100.0)
    holder = twin.submit(JobType.PRETRAIN, 6, 100.0)
    twin.advance(1.0)
    assert twin.new._borrowed == 9
    twin.cordon(6)
    assert twin.new._pending_cordon == 6
    later = twin.submit(JobType.EVALUATION, 6, 100.0)
    twin.advance(1.0)
    blocked = twin.submit(JobType.PRETRAIN, 9, 100.0)
    twin.advance(1.0)
    assert twin.hooks["new"] == [
        ("start", borrower), ("start", holder), ("preempt", borrower),
        ("start", later)]
    assert [job.job_id for job in twin.new.queue] == [blocked, borrower]
    assert twin.new.preemptions == 1
    assert twin.new._borrowed == 6
    assert (twin.new.free_reserved, twin.new.free_shared,
            twin.new.cordoned_gpus, twin.new._pending_cordon) == (2, 0, 6, 0)
    twin.uncordon(6)
    twin.advance(1e6)
    assert len(twin.new.finished) == 4


def test_digest_of_empty_one_and_many_job_queues():
    twin = Twin(SchedulerConfig(total_gpus=2, reserved_fraction=0.0))
    twin.submit(JobType.DEBUG, 2, 100.0)
    twin.advance(1.0)
    for size in (0, 1, 3):
        while len(twin.new.queue) < size:
            twin.submit(JobType.DEBUG, 1, 10.0)
            twin.advance(0.0)
        queued = tuple((job.job_id, job.gpu_demand)
                       for job in twin.new.queue)
        assert len(queued) == size
        assert twin.new.queue.demands_repr() == repr(queued)
        assert twin.new.state_digest() == twin.ref.state_digest()
