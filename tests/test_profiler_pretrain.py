"""Tests for SM profiling, the pretraining campaign simulator, MoE and GC."""

import numpy as np
import pytest

from repro.training.gc_tuning import GcController, simulate_gc_impact
from repro.training.model import MISTRAL_7B_MOE, MODEL_123B
from repro.training.moe import moe_step_model, moe_utilization_timeline
from repro.training.parallelism import internevo_v1, internevo_v2
from repro.training.pretrain import (PretrainJobConfig, PretrainSimulator,
                                     RecoveryMode, fig14_campaigns)
from repro.training.profiler import SmProfiler


class TestProfiler:
    def test_timeline_covers_requested_steps(self):
        profiler = SmProfiler(MODEL_123B, internevo_v2(2048))
        one = profiler.profile(steps=1, resolution=0.05)
        three = profiler.profile(steps=3, resolution=0.05)
        assert three.duration == pytest.approx(3 * one.duration, rel=0.02)

    def test_v2_mean_sm_higher_than_v1(self):
        """Fig. 10: V2 presents superior utilization, fewer idle periods."""
        v1 = SmProfiler(MODEL_123B, internevo_v1(2048)).profile(steps=2)
        v2 = SmProfiler(MODEL_123B, internevo_v2(2048)).profile(steps=2)
        assert v2.mean_sm() > v1.mean_sm()
        assert v2.idle_fraction() < v1.idle_fraction()

    def test_v1_shows_idle_valleys(self):
        timeline = SmProfiler(MODEL_123B, internevo_v1(2048)).profile(2)
        assert timeline.idle_fraction(threshold=0.10) > 0.03

    def test_sm_values_are_fractions(self):
        timeline = SmProfiler(MODEL_123B, internevo_v2(2048)).profile(1)
        assert timeline.sm.min() >= 0.0
        assert timeline.sm.max() <= 1.0

    def test_deterministic_with_seed(self):
        a = SmProfiler(MODEL_123B, internevo_v1(2048), seed=3).profile(1)
        b = SmProfiler(MODEL_123B, internevo_v1(2048), seed=3).profile(1)
        assert np.allclose(a.sm, b.sm)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            SmProfiler(MODEL_123B, internevo_v2(2048)).profile(0)


class TestMoE:
    def test_alltoall_dominates_on_seren(self):
        """Appendix A.6: single-NIC nodes choke on expert all-to-all."""
        breakdown = moe_step_model(MISTRAL_7B_MOE)
        assert breakdown.alltoall > breakdown.compute

    def test_moe_utilization_low(self):
        timeline = moe_utilization_timeline(MISTRAL_7B_MOE, steps=1)
        assert timeline.mean_sm() < 0.5

    def test_better_network_helps(self):
        seren = moe_step_model(MISTRAL_7B_MOE,
                               per_gpu_bandwidth=200e9 / 64)
        kalos = moe_step_model(MISTRAL_7B_MOE,
                               per_gpu_bandwidth=4 * 200e9 / 64)
        assert kalos.busy_fraction > seren.busy_fraction


class TestPretrainSimulator:
    def config(self, **overrides):
        defaults = dict(name="t", step_time=10.0, total_iterations=5000,
                        checkpoint_interval=600.0, mtbf=20000.0,
                        recovery=RecoveryMode.AUTOMATIC)
        defaults.update(overrides)
        return PretrainJobConfig(**defaults)

    def test_completes_without_failures(self):
        config = self.config(mtbf=1e12)
        run = PretrainSimulator(config, seed=1).run()
        assert run.final_iteration == 5000
        assert run.failures == 0

    def test_failures_cause_rollbacks(self):
        config = self.config(mtbf=5000.0, loss_spike_probability=0.0)
        run = PretrainSimulator(config, seed=2).run()
        assert run.failures > 0
        assert run.lost_iterations > 0
        assert run.final_iteration == 5000

    def test_progress_curve_has_rollback_structure(self):
        config = self.config(mtbf=3000.0)
        run = PretrainSimulator(config, seed=3).run()
        times, iterations = run.progress_curve()
        assert times.size == 2 * len(run.submissions)
        assert (np.diff(times) >= 0).all()

    def test_frequent_checkpoints_lose_less(self):
        sparse = self.config(checkpoint_interval=10000.0, mtbf=4000.0,
                             loss_spike_probability=0.0)
        dense = self.config(checkpoint_interval=100.0, mtbf=4000.0,
                            loss_spike_probability=0.0)
        lost_sparse = PretrainSimulator(sparse, seed=4).run()
        lost_dense = PretrainSimulator(dense, seed=4).run()
        assert lost_dense.lost_iterations < lost_sparse.lost_iterations

    def test_automatic_recovery_faster_than_manual(self):
        manual = self.config(recovery=RecoveryMode.MANUAL, mtbf=4000.0)
        auto = self.config(recovery=RecoveryMode.AUTOMATIC, mtbf=4000.0)
        t_manual = PretrainSimulator(manual, seed=5).run().total_time
        t_auto = PretrainSimulator(auto, seed=5).run().total_time
        assert t_auto < t_manual

    def test_deadline_respected(self):
        config = self.config(mtbf=1e12, total_iterations=10 ** 7)
        run = PretrainSimulator(config, seed=6).run(deadline=5000.0)
        assert run.total_time <= 5000.0 + config.cold_start + 1

    def test_graceful_save_reduces_loss(self):
        plain = self.config(mtbf=4000.0, graceful_save_probability=0.0,
                            loss_spike_probability=0.0)
        graceful = self.config(mtbf=4000.0,
                               graceful_save_probability=1.0,
                               loss_spike_probability=0.0)
        lost_plain = PretrainSimulator(plain, seed=7).run().lost_iterations
        lost_graceful = PretrainSimulator(
            graceful, seed=7).run().lost_iterations
        assert lost_graceful < lost_plain

    def test_fig14_123b_more_stable_than_104b(self):
        runs = fig14_campaigns(seed=9)
        assert (runs["123B"].useful_fraction
                > runs["104B"].useful_fraction)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            self.config(step_time=0.0)


class TestGcTuning:
    def test_controller_collects_on_interval(self):
        controller = GcController(interval_steps=10)
        with controller:
            collected = [controller.on_step(step) for step in range(31)]
        assert sum(collected) == 3
        assert controller.collections == 3

    def test_controller_restores_gc_state(self):
        import gc

        was_enabled = gc.isenabled()
        controller = GcController(interval_steps=5)
        controller.start()
        assert not gc.isenabled()
        controller.stop()
        assert gc.isenabled() == was_enabled

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            GcController(interval_steps=0)

    def test_fixed_interval_beats_random_gc(self):
        """Appendix B: controlled GC removes the 2-3x stalls."""
        summary = simulate_gc_impact(seed=3)
        assert summary.speedup > 1.02
        assert summary.controlled_p99_step < summary.baseline_p99_step
