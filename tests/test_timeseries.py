"""Tests for the metric time-series store and utilization recording."""

import numpy as np
import pytest

from repro.monitor.timeseries import MetricStore, record_cluster_utilization
from repro.scheduler.job import Job, JobType
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator

from .oracles import timeseries as oracle


class TestMetricStore:
    def test_append_and_raw(self):
        store = MetricStore()
        store.append("m", 0.0, 1.0)
        store.append("m", 10.0, 2.0)
        times, values = store.raw("m")
        assert list(times) == [0.0, 10.0]
        assert list(values) == [1.0, 2.0]

    def test_out_of_order_rejected(self):
        store = MetricStore()
        store.append("m", 10.0, 1.0)
        with pytest.raises(ValueError):
            store.append("m", 5.0, 2.0)

    def test_unknown_series_rejected(self):
        with pytest.raises(KeyError):
            MetricStore().raw("ghost")

    def test_resample_sample_and_hold(self):
        store = MetricStore()
        store.append("m", 0.0, 1.0)
        store.append("m", 100.0, 5.0)
        grid, values = store.resample("m", interval=50.0)
        assert list(grid) == [0.0, 50.0, 100.0]
        assert list(values) == [1.0, 1.0, 5.0]

    def test_resample_custom_window(self):
        store = MetricStore()
        store.append("m", 0.0, 3.0)
        grid, values = store.resample("m", interval=10.0, start=0.0,
                                      end=30.0)
        assert grid.size == 4
        assert (values == 3.0).all()

    def test_invalid_interval(self):
        store = MetricStore()
        store.append("m", 0.0, 1.0)
        with pytest.raises(ValueError):
            store.resample("m", interval=0.0)

    def test_names_listed(self):
        store = MetricStore()
        store.append("b", 0.0, 1.0)
        store.append("a", 0.0, 1.0)
        assert store.names() == ["a", "b"]


class TestUtilizationRecording:
    def simulate(self, jobs):
        simulator = SchedulerSimulator(SchedulerConfig(
            total_gpus=16, reserved_fraction=0.0))
        simulator.simulate(jobs)
        return simulator

    def test_allocation_fractions_bounded(self):
        jobs = [Job(f"j{i}", "t", JobType.EVALUATION, float(i * 10),
                    100.0, 4) for i in range(10)]
        series = record_cluster_utilization(self.simulate(jobs),
                                            interval=10.0)
        assert series.allocation.min() >= 0.0
        assert series.allocation.max() <= 1.0
        assert series.peak > 0.0

    def test_mean_matches_gpu_seconds(self):
        jobs = [Job("a", "t", JobType.EVALUATION, 0.0, 100.0, 8)]
        simulator = self.simulate(jobs)
        series = record_cluster_utilization(simulator, interval=5.0)
        # One job, 8 of 16 GPUs for the whole window -> allocation 0.5
        # until release at t=100.
        assert series.allocation[0] == pytest.approx(0.5)

    def test_diurnal_profile_shape(self):
        # Two bursts: 02:00 (light) and 14:00 (heavy).
        jobs = []
        for i in range(4):
            jobs.append(Job(f"n{i}", "t", JobType.EVALUATION,
                            2 * 3600.0 + i, 600.0, 1))
        for i in range(4):
            jobs.append(Job(f"d{i}", "t", JobType.EVALUATION,
                            14 * 3600.0 + i, 600.0, 4))
        series = record_cluster_utilization(self.simulate(jobs),
                                            interval=300.0)
        profile = series.diurnal_profile()
        assert profile.size == 24
        assert profile[14] > profile[2] > 0.0
        assert series.busiest_hour() == 14

    def test_empty_simulator(self):
        simulator = SchedulerSimulator(SchedulerConfig(total_gpus=4))
        series = record_cluster_utilization(simulator)
        assert series.times.size == 0
        assert series.mean == 0.0

    def test_trace_driven_series_is_well_formed(self):
        """A full trace replay produces a bounded, non-trivial series."""
        from dataclasses import replace

        from repro.workload.generator import TraceGenerator
        from repro.workload.spec import KALOS_SPEC

        spec = replace(KALOS_SPEC,
                       span=KALOS_SPEC.span * 1500
                       / KALOS_SPEC.real_gpu_jobs)
        trace = TraceGenerator(spec, seed=61).generate(1500)
        simulator = SchedulerSimulator(SchedulerConfig(
            total_gpus=KALOS_SPEC.total_gpus, reserved_fraction=0.98))
        simulator.simulate(list(trace.gpu_jobs()))
        series = record_cluster_utilization(simulator, interval=900.0)
        assert 0.0 < series.mean < 1.0
        assert series.peak <= 1.0
        assert series.diurnal_profile().size == 24

    def test_arrivals_are_diurnal(self):
        """The generator's day/night arrival modulation (the signal the
        allocation series inherits, diluted by long-running jobs)."""
        from repro.workload.generator import TraceGenerator
        from repro.workload.spec import KALOS_SPEC

        trace = TraceGenerator(KALOS_SPEC, seed=62).generate(6000)
        hours = np.array([(job.submit_time % 86400.0) / 3600.0
                          for job in trace.gpu_jobs()]).astype(int)
        counts = np.bincount(hours, minlength=24)
        day = counts[10:18].mean()
        night = counts[0:6].mean()
        assert day > 1.3 * night


class TestFastPathEquivalence:
    """Vectorized recording/profile must equal the oracle loops."""

    def simulate(self, n_jobs=800, seed=63):
        from dataclasses import replace

        from repro.workload.generator import TraceGenerator
        from repro.workload.spec import KALOS_SPEC

        spec = replace(KALOS_SPEC,
                       span=KALOS_SPEC.span * n_jobs
                       / KALOS_SPEC.real_gpu_jobs)
        trace = TraceGenerator(spec, seed=seed).generate(n_jobs)
        simulator = SchedulerSimulator(SchedulerConfig(
            total_gpus=KALOS_SPEC.total_gpus, reserved_fraction=0.98))
        simulator.simulate(list(trace.gpu_jobs()))
        return simulator

    def test_recording_identical_to_reference(self):
        simulator = self.simulate()
        series = record_cluster_utilization(simulator, interval=300.0)
        reference = oracle.record_cluster_utilization(simulator,
                                                      interval=300.0)
        np.testing.assert_array_equal(series.times, reference.times)
        np.testing.assert_array_equal(series.allocation,
                                      reference.allocation)
        assert series.total_gpus == reference.total_gpus

    def test_recording_replicates_monotonic_skip(self):
        """Out-of-order occupancy points are dropped identically."""
        simulator = SchedulerSimulator(SchedulerConfig(total_gpus=8))
        simulator.occupancy.extend([
            (0.0, 2), (10.0, 4), (5.0, 6), (7.0, 8), (12.0, 2),
            (12.0, 4), (11.0, 6), (20.0, 0)])
        series = record_cluster_utilization(simulator, interval=2.0)
        reference = oracle.record_cluster_utilization(simulator,
                                                      interval=2.0)
        np.testing.assert_array_equal(series.times, reference.times)
        np.testing.assert_array_equal(series.allocation,
                                      reference.allocation)

    def test_diurnal_profile_matches_reference(self):
        series = record_cluster_utilization(self.simulate(),
                                            interval=450.0)
        np.testing.assert_allclose(series.diurnal_profile(),
                                   oracle.diurnal_profile(series),
                                   rtol=1e-12, atol=1e-15)

    def test_empty_simulator_both_paths(self):
        simulator = SchedulerSimulator(SchedulerConfig(total_gpus=4))
        for record in (record_cluster_utilization,
                       oracle.record_cluster_utilization):
            series = record(simulator)
            assert series.times.size == 0

