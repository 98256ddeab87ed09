"""Tests for the discrete-event cluster scheduler."""

import gc
import weakref

import pytest

from repro.scheduler.job import Job, JobType
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator


def job(job_id, demand, submit=0.0, duration=100.0,
        job_type=JobType.EVALUATION):
    return Job(job_id=job_id, cluster="test", job_type=job_type,
               submit_time=submit, duration=duration, gpu_demand=demand)


class TestConfig:
    def test_pool_split(self):
        config = SchedulerConfig(total_gpus=100, reserved_fraction=0.75)
        assert config.reserved_gpus == 75
        assert config.shared_gpus == 25

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SchedulerConfig(total_gpus=10, reserved_fraction=1.5)

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            SchedulerConfig(total_gpus=0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_rejects_backfill_depth_below_one(self, depth):
        with pytest.raises(ValueError, match="backfill_depth"):
            SchedulerConfig(total_gpus=8, backfill_depth=depth)


class TestBasicScheduling:
    def test_job_fitting_starts_immediately(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8,
                                                 reserved_fraction=0.0))
        jobs = [job("a", 4)]
        sim.simulate(jobs)
        assert jobs[0].queueing_delay == 0.0
        assert jobs[0].end_time == 100.0

    def test_contention_queues_second_job(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8,
                                                 reserved_fraction=0.0))
        jobs = [job("a", 8), job("b", 8)]
        sim.simulate(jobs)
        assert jobs[0].queueing_delay == 0.0
        assert jobs[1].queueing_delay == pytest.approx(100.0)

    def test_backfill_lets_small_job_pass_blocked_big_one(self):
        # a holds 6; big (8) cannot fit; small (2) backfills around it.
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8,
                                                 reserved_fraction=0.0))
        jobs = [job("a", 6, submit=0.0),
                job("big", 8, submit=1.0),
                job("small", 2, submit=2.0)]
        sim.simulate(jobs)
        assert jobs[2].start_time == pytest.approx(2.0)
        # big waits for both a (t=100) and the backfilled small (t=102).
        assert jobs[1].start_time == pytest.approx(102.0)

    def test_cpu_jobs_bypass_gpu_queue(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8))
        cpu = job("cpu", 0, duration=10.0)
        sim.simulate([cpu])
        assert cpu.queueing_delay == 0.0
        assert cpu.end_time == 10.0

    def test_demand_exceeding_cluster_rejected(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8))
        with pytest.raises(ValueError):
            sim.simulate([job("huge", 9)])

    def test_bad_job_is_found_before_any_arrival_is_scheduled(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8))
        with pytest.raises(ValueError, match="huge"):
            sim.simulate([job("a", 1), job("b", 2, submit=5.0),
                           job("huge", 9)])
        assert sim.engine.pending == 0
        assert sim.engine.run() == 0.0
        assert not sim.started

    def test_equal_submit_times_arrive_in_list_order(self):
        """Ties keep list order, never id order ("j10" < "j9")."""
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=1,
                                                 reserved_fraction=0.0))
        jobs = [job("j9", 1, submit=2.0), job("j10", 1, submit=2.0),
                job("j11", 1, submit=1.0)]
        sim.simulate(jobs)
        assert [j.job_id for j in sim.started] == ["j11", "j9", "j10"]

    def test_finished_replay_is_freed_without_the_cycle_collector(self):
        """The arrival feed leaves no reference cycle behind, so a
        finished simulator goes as soon as its last reference does."""
        gc.disable()
        try:
            sim = SchedulerSimulator(SchedulerConfig(total_gpus=8))
            sim.simulate([job(f"j{i}", 1 + i % 3, submit=float(i // 2))
                          for i in range(6)] + [job("cpu", 0)])
            freed = weakref.ref(sim)
            del sim
            assert freed() is None
        finally:
            gc.enable()


class TestReservation:
    def test_pretrain_uses_reserved_quota(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=10,
                                                 reserved_fraction=0.8))
        pre = job("pre", 8, job_type=JobType.PRETRAIN)
        ev = job("ev", 2, job_type=JobType.EVALUATION)
        sim.simulate([pre, ev])
        assert pre.queueing_delay == 0.0
        assert ev.queueing_delay == 0.0

    def test_evaluation_confined_to_shared_pool(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=10,
                                                 reserved_fraction=0.8))
        evals = [job(f"e{i}", 2, job_type=JobType.EVALUATION)
                 for i in range(3)]
        sim.simulate(evals)
        started = sorted(e.start_time for e in evals)
        # Shared pool holds 2 GPUs: strictly one eval at a time even
        # though 8 reserved GPUs are idle.
        assert started == [0.0, 100.0, 200.0]

    def test_pretrain_spills_into_shared_pool(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=10,
                                                 reserved_fraction=0.8))
        pre = job("pre", 10, job_type=JobType.PRETRAIN)
        sim.simulate([pre])
        assert pre.queueing_delay == 0.0

    def test_oversized_best_effort_borrows_idle_reserved(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=10,
                                                 reserved_fraction=0.8))
        debug = job("dbg", 6, job_type=JobType.DEBUG)
        sim.simulate([debug])
        assert debug.queueing_delay == 0.0

    def test_evaluation_waits_behind_pretrain_priority(self):
        # Both queue behind a blocker; when capacity frees, pretraining
        # is picked first despite arriving after the evaluation job.
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=10,
                                                 reserved_fraction=0.8))
        blocker = job("blk", 10, submit=0.0, duration=10.0,
                      job_type=JobType.PRETRAIN)
        ev = job("ev", 2, submit=1.0, job_type=JobType.EVALUATION)
        pre = job("pre", 10, submit=2.0, job_type=JobType.PRETRAIN)
        sim.simulate([blocker, ev, pre])
        assert pre.start_time == pytest.approx(10.0)
        assert ev.start_time == pytest.approx(110.0)


class TestAccounting:
    def test_gpu_seconds_used(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=8,
                                                 reserved_fraction=0.0))
        sim.simulate([job("a", 4, duration=50.0)])
        assert sim.gpu_seconds_used() == pytest.approx(200.0)

    def test_all_jobs_eventually_finish(self):
        sim = SchedulerSimulator(SchedulerConfig(total_gpus=4,
                                                 reserved_fraction=0.0))
        jobs = [job(f"j{i}", 2, submit=float(i)) for i in range(10)]
        sim.simulate(jobs)
        assert all(j.end_time is not None for j in jobs)
        assert len(sim.finished) == 10


class TestPreemption:
    def test_reserved_job_evicts_borrower(self):
        config = SchedulerConfig(total_gpus=10, reserved_fraction=0.8)
        sim = SchedulerSimulator(config)
        # The oversized best-effort job borrows 4 reserved GPUs.
        debug = job("dbg", 6, submit=0.0, duration=100.0,
                    job_type=JobType.DEBUG)
        pre = job("pre", 8, submit=10.0, duration=50.0,
                  job_type=JobType.PRETRAIN)
        sim.simulate([debug, pre])
        assert pre.start_time == pytest.approx(10.0)
        assert sim.preemptions == 1
        assert debug.metadata["preemptions"] == 1
        # The borrower reruns after the reserved job finishes.
        assert debug.end_time == pytest.approx(60.0 + 100.0)

    def test_preempted_job_keeps_first_start_for_delay(self):
        config = SchedulerConfig(total_gpus=10, reserved_fraction=0.8)
        sim = SchedulerSimulator(config)
        debug = job("dbg", 6, submit=0.0, duration=100.0,
                    job_type=JobType.DEBUG)
        pre = job("pre", 8, submit=10.0, duration=50.0,
                  job_type=JobType.PRETRAIN)
        sim.simulate([debug, pre])
        assert debug.queueing_delay == 0.0

    def test_pure_shared_jobs_never_preempted(self):
        config = SchedulerConfig(total_gpus=10, reserved_fraction=0.8)
        sim = SchedulerSimulator(config)
        ev = job("ev", 2, submit=0.0, duration=100.0,
                 job_type=JobType.EVALUATION)
        pre = job("pre", 8, submit=10.0, duration=50.0,
                  job_type=JobType.PRETRAIN)
        sim.simulate([ev, pre])
        assert sim.preemptions == 0
        assert ev.end_time == pytest.approx(100.0)

    def test_youngest_borrower_evicted_first(self):
        config = SchedulerConfig(total_gpus=20, reserved_fraction=0.8)
        # shared pool = 4; two borrowers of 6 each (2 reserved apiece
        # would not trigger: make them big borrowers)
        sim = SchedulerSimulator(config)
        old = job("old", 8, submit=0.0, duration=100.0,
                  job_type=JobType.DEBUG)
        young = job("young", 8, submit=1.0, duration=100.0,
                    job_type=JobType.DEBUG)
        pre = job("pre", 8, submit=2.0, duration=50.0,
                  job_type=JobType.PRETRAIN)
        sim.simulate([old, young, pre])
        assert young.metadata.get("preemptions", 0) == 1
        assert "preemptions" not in old.metadata


class TestLiveOps:
    """Live single-job submission, fault injection, and cordons (the
    surface the chaos harness drives)."""

    def make_sim(self, total=8, reserved=0.0):
        return SchedulerSimulator(SchedulerConfig(
            total_gpus=total, reserved_fraction=reserved))

    def test_submit_then_run(self):
        sim = self.make_sim()
        submitted = job("a", 4, submit=5.0)
        sim.submit(submitted)
        sim.engine.run()
        assert submitted.start_time == 5.0
        assert submitted.end_time == 105.0

    def test_submit_rejects_oversized_demand(self):
        sim = self.make_sim(total=8)
        with pytest.raises(ValueError):
            sim.submit(job("huge", 16))

    def test_running_jobs_ordered_by_start(self):
        sim = self.make_sim()
        sim.submit(job("late", 2, submit=10.0, duration=500.0))
        sim.submit(job("early", 2, submit=0.0, duration=500.0))
        sim.engine.run(until=50.0)
        assert [j.job_id for j in sim.running_jobs()] == ["early", "late"]

    def test_fail_job_frees_gpus_and_reschedules(self):
        sim = self.make_sim()
        victim = job("victim", 8, submit=0.0, duration=1000.0)
        waiting = job("waiting", 8, submit=1.0, duration=10.0)
        sim.submit(victim)
        sim.submit(waiting)
        sim.engine.run(until=100.0)
        failed = sim.fail_job("victim", reason="NVLinkError")
        assert failed.failure_reason == "NVLinkError"
        assert failed.end_time == 100.0
        sim.engine.run()
        assert waiting.start_time == 100.0  # backfilled immediately

    def test_fail_unknown_job_raises(self):
        sim = self.make_sim()
        with pytest.raises(KeyError):
            sim.fail_job("ghost")

    def test_fail_job_notifies_hooks(self):
        sim = self.make_sim()
        events = []
        sim.hooks.append(lambda kind, j: events.append((kind, j.job_id)))
        sim.submit(job("a", 4, duration=50.0))
        sim.engine.run(until=10.0)
        sim.fail_job("a")
        assert events == [("start", "a"), ("fail", "a")]

    def test_cordon_takes_free_gpus_immediately(self):
        sim = self.make_sim(total=8)
        sim.cordon_gpus(4)
        assert sim.cordoned_gpus == 4
        assert sim.free_shared == 4

    def test_cordon_of_busy_gpus_is_deferred(self):
        sim = self.make_sim(total=8)
        running = job("busy", 8, submit=0.0, duration=100.0)
        sim.submit(running)
        sim.engine.run(until=10.0)
        sim.cordon_gpus(4)
        # nothing free: the cordon waits for the allocation to drain
        assert sim.cordoned_gpus == 0
        assert sim._pending_cordon == 4
        sim.engine.run()
        assert sim.cordoned_gpus == 4
        assert sim.free_shared == 4

    def test_uncordon_cancels_pending_first(self):
        sim = self.make_sim(total=8)
        sim.submit(job("busy", 8, submit=0.0, duration=100.0))
        sim.engine.run(until=10.0)
        sim.cordon_gpus(4)
        sim.uncordon_gpus(4)
        assert sim._pending_cordon == 0
        sim.engine.run()
        assert sim.cordoned_gpus == 0
        assert sim.free_shared == 8

    def test_uncordon_restores_capacity(self):
        sim = self.make_sim(total=8)
        sim.cordon_gpus(8)
        blocked = job("blocked", 8, submit=0.0, duration=10.0)
        sim.submit(blocked)
        sim.engine.run(until=5.0)
        assert blocked.start_time is None
        sim.uncordon_gpus(8)
        sim.engine.run()
        assert blocked.start_time == 5.0

    def test_uncordon_more_than_cordoned_raises(self):
        sim = self.make_sim(total=8)
        sim.cordon_gpus(2)
        with pytest.raises(ValueError):
            sim.uncordon_gpus(4)

    def test_gpus_allocated_tracks_live_jobs(self):
        sim = self.make_sim(total=8)
        sim.submit(job("a", 3, duration=50.0))
        sim.submit(job("b", 2, duration=50.0))
        sim.engine.run(until=10.0)
        assert sim.gpus_allocated == 5
        sim.engine.run()
        assert sim.gpus_allocated == 0
