"""Tests for the failure taxonomy, injector, and log generator."""

import numpy as np
import pytest

from repro.failures.injector import FailureInjector
from repro.failures.logs import (CASCADE_DISTRACTORS, REASON_SIGNATURES,
                                 LogGenerator, generate_job_log)
from repro.failures.taxonomy import (TAXONOMY, FailureCategory,
                                     category_counts,
                                     category_gpu_time_shares,
                                     taxonomy_by_category,
                                     taxonomy_by_reason,
                                     total_failure_count)
from repro.scheduler.job import FinalStatus
from repro.workload.generator import TraceGenerator
from repro.workload.spec import SEREN_SPEC


class TestTaxonomy:
    def test_28_plus_reasons(self):
        assert len(TAXONOMY) >= 28

    def test_every_reason_has_signatures(self):
        for spec in TAXONOMY:
            assert spec.reason in REASON_SIGNATURES

    def test_infrastructure_holds_over_82pct_gpu_time(self):
        """§5.2: infrastructure failures take > 82% of failure GPU time."""
        shares = category_gpu_time_shares()
        assert shares[FailureCategory.INFRASTRUCTURE] > 82.0

    def test_infrastructure_is_minority_by_count(self):
        """§5.2: ... with only ~11% of the failure count."""
        counts = category_counts()
        share = (counts[FailureCategory.INFRASTRUCTURE]
                 / total_failure_count())
        assert 0.05 < share < 0.15

    def test_script_errors_most_numerous(self):
        counts = category_counts()
        assert counts[FailureCategory.SCRIPT] > counts[
            FailureCategory.INFRASTRUCTURE]

    def test_nvlink_error_tops_gpu_time(self):
        assert TAXONOMY[0].reason == "NVLinkError"
        assert TAXONOMY[0].gpu_time_pct == pytest.approx(30.25)

    def test_script_errors_not_restart_recoverable(self):
        by_reason = taxonomy_by_reason()
        assert not by_reason["TypeError"].recoverable_by_restart
        assert by_reason["NVLinkError"].recoverable_by_restart

    def test_grouping_covers_everything(self):
        grouped = taxonomy_by_category()
        assert sum(len(v) for v in grouped.values()) == len(TAXONOMY)


class TestInjector:
    def test_counts_scale(self):
        events = FailureInjector(seed=1).generate_events(scale=0.5)
        by_reason = {}
        for event in events:
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        assert by_reason["TypeError"] == round(620 * 0.5)

    def test_infrastructure_dominates_sampled_gpu_time(self):
        events = FailureInjector(seed=2).generate_events()
        infra = sum(e.gpu_time_min for e in events
                    if e.category is FailureCategory.INFRASTRUCTURE)
        total = sum(e.gpu_time_min for e in events)
        assert infra / total > 0.60

    def test_sampled_demand_tracks_taxonomy(self):
        injector = FailureInjector(seed=3)
        events = [e for e in injector.generate_events(scale=3.0)
                  if e.reason == "NVLinkError"]
        medians = np.median([e.gpu_demand for e in events])
        assert 300 < medians < 2000  # paper median 896

    def test_clusters_respected(self):
        events = FailureInjector(seed=4).generate_events()
        kalos_only = [e for e in events if e.reason == "NCCLTimeoutError"]
        assert all(e.cluster == "kalos" for e in kalos_only)

    def test_assign_to_trace_tags_all_failed_jobs(self, small_seren_trace):
        FailureInjector(seed=5).assign_to_trace(small_seren_trace)
        failed = [j for j in small_seren_trace.gpu_jobs()
                  if j.final_status is FinalStatus.FAILED]
        assert failed
        assert all(j.failure_reason for j in failed)

    def test_assignment_demand_affinity(self, seren_trace):
        """Large gang jobs get infrastructure-style reasons more often."""
        FailureInjector(seed=6).assign_to_trace(seren_trace)
        by_reason = taxonomy_by_reason()
        big, small = [], []
        for job in seren_trace.gpu_jobs():
            if job.final_status is not FinalStatus.FAILED:
                continue
            infra = (by_reason[job.failure_reason].category
                     is FailureCategory.INFRASTRUCTURE)
            (big if job.gpu_demand >= 256 else small).append(infra)
        assert np.mean(big) > np.mean(small)

    def test_pretraining_failure_is_heavyweight(self):
        injector = FailureInjector(seed=7)
        event = injector.sample_pretraining_failure("kalos")
        spec = taxonomy_by_reason()[event.reason]
        assert spec.demand_median >= 128

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            FailureInjector().generate_events(scale=0.0)


class TestInjectorDeterminism:
    """``assign_to_trace`` must be seed-stable across calls — the tags
    may not depend on how much of the injector's stream was consumed
    before the call."""

    @staticmethod
    def fresh_trace():
        return TraceGenerator(SEREN_SPEC, seed=20).generate(300)

    @staticmethod
    def failure_tags(trace):
        return [(job.job_id, job.failure_reason)
                for job in trace.gpu_jobs()
                if job.final_status is FinalStatus.FAILED]

    def test_tags_unaffected_by_prior_rng_consumption(self):
        plain, warmed = self.fresh_trace(), self.fresh_trace()
        FailureInjector(seed=9).assign_to_trace(plain)
        warmed_injector = FailureInjector(seed=9)
        warmed_injector.generate_events(scale=0.1)  # burn shared stream
        warmed_injector.assign_to_trace(warmed)
        assert self.failure_tags(plain) == self.failure_tags(warmed)

    def test_same_injector_tags_identically_twice(self):
        first, second = self.fresh_trace(), self.fresh_trace()
        injector = FailureInjector(seed=9)
        injector.assign_to_trace(first)
        injector.assign_to_trace(second)
        assert self.failure_tags(first) == self.failure_tags(second)

    def test_explicit_rng_overrides_the_seed(self):
        default, explicit = self.fresh_trace(), self.fresh_trace()
        FailureInjector(seed=9).assign_to_trace(default)
        FailureInjector(seed=9).assign_to_trace(
            explicit, rng=np.random.default_rng(4242))
        assert self.failure_tags(default) != self.failure_tags(explicit)


class TestLogGenerator:
    def test_healthy_log_has_no_reason(self):
        log = LogGenerator(seed=1).healthy_log(n_steps=50)
        assert log.reason is None
        assert len(log.lines) > 50

    def test_failed_log_ends_with_signature(self):
        log = LogGenerator(seed=2).failed_log("OutOfMemoryError",
                                              n_steps=30)
        tail = "\n".join(log.lines[-10:])
        assert "CUDA out of memory" in tail

    def test_cascade_distractors_precede_root_cause(self):
        generator = LogGenerator(seed=3)
        for _ in range(10):
            log = generator.failed_log("NVLinkError", n_steps=20)
            if log.distractors:
                text = log.text
                root = text.rfind("NVLink")
                distractor_sig = REASON_SIGNATURES[log.distractors[0]][0]
                assert text.find(distractor_sig[:30]) < root
                return
        pytest.fail("no cascade generated in 10 attempts")

    def test_no_cascade_option(self):
        log = LogGenerator(seed=4).failed_log("CUDAError", n_steps=10,
                                              with_cascade=False)
        assert log.distractors == []

    def test_unknown_reason_rejected(self):
        with pytest.raises(KeyError):
            LogGenerator().failed_log("MadeUpError")

    def test_log_volume_dominated_by_metric_lines(self):
        log = LogGenerator(seed=5).failed_log("TypeError", n_steps=500)
        metric_lines = sum(1 for line in log.lines if "step=" in line)
        assert metric_lines / len(log.lines) > 0.9

    def test_every_cascade_distractor_is_known(self):
        for root, distractors in CASCADE_DISTRACTORS.items():
            assert root in REASON_SIGNATURES
            for reason in distractors:
                assert reason in REASON_SIGNATURES

    def test_generate_job_log_convenience(self):
        healthy = generate_job_log(None, seed=6)
        failed = generate_job_log("KeyError", seed=6)
        assert healthy.reason is None
        assert failed.reason == "KeyError"
        assert failed.category is FailureCategory.SCRIPT
