"""Tests for the Job model."""

import pytest

from repro.scheduler.job import FinalStatus, Job, JobState, JobType


def make_job(**overrides):
    defaults = dict(job_id="j1", cluster="seren",
                    job_type=JobType.EVALUATION, submit_time=100.0,
                    duration=60.0, gpu_demand=2)
    defaults.update(overrides)
    return Job(**defaults)


class TestLifecycle:
    def test_initial_state_is_pending(self):
        assert make_job().state is JobState.PENDING

    def test_start_finish_transitions(self):
        job = make_job()
        job.mark_started(150.0)
        assert job.state is JobState.RUNNING
        job.mark_finished(210.0)
        assert job.state is JobState.FINISHED
        assert job.end_time == 210.0

    def test_double_start_raises(self):
        job = make_job()
        job.mark_started(150.0)
        with pytest.raises(RuntimeError):
            job.mark_started(160.0)

    def test_finish_before_start_raises(self):
        with pytest.raises(RuntimeError):
            make_job().mark_finished(200.0)


class TestDerivedMetrics:
    def test_queueing_delay(self):
        job = make_job()
        job.mark_started(130.0)
        assert job.queueing_delay == 30.0

    def test_queueing_delay_requires_start(self):
        with pytest.raises(RuntimeError):
            _ = make_job().queueing_delay

    def test_gpu_time(self):
        assert make_job(gpu_demand=4, duration=100.0).gpu_time == 400.0

    def test_cpu_job_is_not_gpu_job(self):
        assert not make_job(gpu_demand=0).is_gpu_job

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_job(duration=-1.0)

    @pytest.mark.parametrize("field", ["submit_time", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_times_rejected(self, field, value):
        """``duration < 0`` is false for NaN: a NaN-duration job used to
        finish at NaN and leave the engine's clock at NaN."""
        with pytest.raises(ValueError, match=field):
            make_job(**{field: value})

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            make_job(gpu_demand=-1)


class TestSerialization:
    def test_round_trip_preserves_fields(self):
        job = make_job(final_status=FinalStatus.FAILED,
                       failure_reason="CUDAError",
                       gpu_utilization=0.97)
        job.mark_started(120.0)
        job.mark_finished(180.0)
        clone = Job.from_record(job.to_record())
        assert clone.job_id == job.job_id
        assert clone.job_type is JobType.EVALUATION
        assert clone.final_status is FinalStatus.FAILED
        assert clone.failure_reason == "CUDAError"
        assert clone.start_time == 120.0
        assert clone.end_time == 180.0
        assert clone.gpu_utilization == pytest.approx(0.97)

    def test_round_trip_pending_job(self):
        clone = Job.from_record(make_job().to_record())
        assert clone.start_time is None
        assert clone.state is JobState.PENDING
