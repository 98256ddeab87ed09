"""Differential test: the scheduler's hot paths against their reference.

``SchedulerSimulator`` skips passes in which no queued job could start
or evict a borrower, keeps running borrower, allocated and per-pool
queued-demand totals, asks a job's pool once, when it is queued, and
digests the queue from cached text.  Each of those is exact by
construction; this file checks it by driving the simulator and the
reference in ``tests/oracles/scheduler.py`` (which tries every job in
its window on every pass) side by side through random submits,
advances, failures, sheds and cordons, comparing them and recounting
the running totals after every engine event and every call.

``simulate`` feeds a replay's arrivals to the engine one at a time;
the reference ``eager_simulate`` pushes them all up front.  Job lists
built for ties diff the two after every engine event.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.job import Job, JobType
from repro.scheduler.policy import (FifoPolicy, PriorityPolicy,
                                    ReservationPolicy)
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator

from .oracles.scheduler import (ReferenceSchedulerSimulator, allocated_gpus,
                                borrowed_reserved, eager_simulate,
                                queued_demands)

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
        self.new.engine.add_listener(lambda now: self.check_totals())
        self.submitted = 0

    def each(self, action) -> None:
        for sim in (self.new, self.ref):
            action(sim)
        self.check()

    def check(self) -> None:
        assert self.hooks["new"] == self.hooks["ref"]
        assert self.states["new"] == self.states["ref"]
        assert state(self.new) == state(self.ref)
        self.check_totals()

    def check_totals(self) -> None:
        """The simulator's running totals equal a recount."""
        sim = self.new
        assert sim._borrowed == borrowed_reserved(sim)
        assert sim.gpus_allocated == allocated_gpus(sim)
        assert {pool: demands for pool, demands in sim._queued.items()
                if demands} == queued_demands(sim)
        assert sim._pools == {job.job_id: sim.policy.pool_of(job)
                              for job in sim.queue}

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
    backfill_depth=st.sampled_from([1, 2, 3, 256]))

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


def fit_calls(sim: SchedulerSimulator) -> list[tuple[int, str]]:
    """Record every ``_fit`` call ``sim`` makes from now on."""
    calls: list[tuple[int, str]] = []
    fit = sim._fit

    def counted(demand: int, pool: str):
        calls.append((demand, pool))
        return fit(demand, pool)

    sim._fit = counted
    return calls


def test_pass_below_every_queued_demand_makes_no_fit_call():
    """Three GPUs are free, but once the one job that fits them is shed,
    every queued job needs more than it could get: a pass then fits
    nothing, evicts nothing and changes nothing, where the reference
    still tries the job in its window."""
    twin = Twin(SchedulerConfig(total_gpus=10, reserved_fraction=0.8,
                                backfill_depth=1))
    twin.submit(JobType.PRETRAIN, 6, 100.0)
    twin.submit(JobType.EVALUATION, 1, 100.0)
    twin.advance(1.0)
    # 2 reserved and 1 shared GPU free, and no borrower
    blocked = twin.submit(JobType.PRETRAIN, 4, 100.0)
    # not above the shared capacity (2), so it cannot borrow
    small = twin.submit(JobType.EVALUATION, 2, 100.0)
    # fits the free shared GPU, but behind the one-job window
    fits = twin.submit(JobType.DEBUG, 1, 100.0)
    twin.advance(1.0)
    assert (twin.new.free_reserved, twin.new.free_shared) == (2, 1)
    new_calls, ref_calls = fit_calls(twin.new), fit_calls(twin.ref)
    twin.each(lambda sim: sim._try_schedule())
    # the gate reads the whole queue, so the window is still tried
    assert new_calls == ref_calls == [(4, "reserved")]
    twin.shed(2)
    new_calls.clear()
    ref_calls.clear()
    before = (state(twin.new), list(twin.hooks["new"]))
    twin.each(lambda sim: sim._try_schedule())
    assert new_calls == []
    assert ref_calls == [(4, "reserved")]
    assert (state(twin.new), twin.hooks["new"]) == before
    assert [job.job_id for job in twin.new.queue] == [blocked, small]
    assert fits in {job.job_id for job in twin.new.shed}


def test_reserved_job_that_fits_only_by_eviction_evicts_and_starts():
    """The free reserved and shared GPUs fall one short of the
    pretraining job; the borrower's reserved GPU makes up the
    difference, so the pass runs, evicts the borrower and starts it."""
    twin = Twin(SchedulerConfig(total_gpus=10, reserved_fraction=0.8))
    borrower = twin.submit(JobType.EVALUATION, 3, 100.0)
    twin.advance(1.0)
    assert twin.new._borrowed == 1
    assert (twin.new.free_reserved, twin.new.free_shared) == (7, 0)
    pretrain = twin.submit(JobType.PRETRAIN, 8, 100.0)
    twin.advance(1.0)
    assert twin.hooks["new"] == [
        ("start", borrower), ("preempt", borrower), ("start", pretrain)]
    assert [job.job_id for job in twin.new.queue] == [borrower]
    assert twin.new._borrowed == 0
    assert (twin.new.free_reserved, twin.new.free_shared) == (0, 2)
    twin.advance(1e6)
    assert len(twin.new.finished) == 2


class SparePoolPolicy(FifoPolicy):
    """Sends every job to a pool the simulator does not have."""

    def pool_of(self, job: Job) -> str:
        return "spare"


def test_unknown_pool_still_raises():
    sim = SchedulerSimulator(SchedulerConfig(total_gpus=4),
                             SparePoolPolicy())
    sim.submit(Job(job_id="j0", cluster="kalos", job_type=JobType.DEBUG,
                   submit_time=0.0, duration=1.0, gpu_demand=1))
    with pytest.raises(ValueError, match="unknown pool 'spare'"):
        sim.engine.run()


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


def replay(simulate, config: SchedulerConfig, specs: list[tuple]) -> tuple:
    """Everything one replay of ``specs`` shows, event by event."""
    sim = SchedulerSimulator(config)
    jobs = [Job(job_id=f"j{index}", cluster="kalos", job_type=job_type,
                submit_time=submit, duration=duration, gpu_demand=demand)
            for index, (job_type, submit, duration, demand)
            in enumerate(specs)]
    events: list[tuple] = []
    sim.engine.add_listener(lambda now: events.append(
        (now, sim.state_digest(), len(sim.started), len(sim.finished))))
    simulate(sim, jobs)
    return (events, [(job.start_time, job.end_time) for job in jobs],
            sim.occupancy, sim.preemptions, sim.engine.events_processed,
            sim.engine._next_seq)


# finishes land on arrivals, and many arrivals share a time
tie_jobs = st.lists(st.tuples(
    st.sampled_from(JOB_TYPES), st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.sampled_from([0, 1, 2, 3, 10])), max_size=40)


@settings(max_examples=300, deadline=None)
@given(total=st.sampled_from([1, 4, 10]),
       reserved=st.sampled_from([0.0, 0.5, 0.75, 0.98]),
       depth=st.sampled_from([1, 2, 3, 256]), jobs=tie_jobs)
def test_fed_arrivals_match_eager_pushes(total, reserved, depth, jobs):
    config = SchedulerConfig(
        total_gpus=total, reserved_fraction=reserved, backfill_depth=depth)
    specs = [(job_type, submit, duration, min(demand, total))
             for job_type, submit, duration, demand in jobs]
    assert (replay(SchedulerSimulator.simulate, config, specs)
            == replay(eager_simulate, config, specs))
