"""Calibration tests: the synthetic traces reproduce the paper's numbers.

Tolerances reflect the 8,000-job sample size of the session fixtures.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.scheduler.job import FinalStatus, JobType
from repro.workload.generator import TraceGenerator
from repro.workload.spec import KALOS_SPEC, SEREN_SPEC


class TestStructure:
    def test_job_count(self, seren_trace):
        assert len(seren_trace) == 8000

    def test_job_ids_unique(self, seren_trace):
        ids = [job.job_id for job in seren_trace]
        assert len(set(ids)) == len(ids)

    def test_jobs_sorted_by_submit_time(self, seren_trace):
        times = [job.submit_time for job in seren_trace]
        assert times == sorted(times)

    def test_submissions_within_span(self, seren_trace):
        assert all(0 <= job.submit_time <= SEREN_SPEC.span + 10
                   for job in seren_trace)

    def test_deterministic_given_seed(self):
        a = TraceGenerator(KALOS_SPEC, seed=5).generate(300)
        b = TraceGenerator(KALOS_SPEC, seed=5).generate(300)
        assert [j.duration for j in a] == [j.duration for j in b]

    def test_different_seeds_differ(self):
        a = TraceGenerator(KALOS_SPEC, seed=5).generate(300)
        b = TraceGenerator(KALOS_SPEC, seed=6).generate(300)
        assert [j.duration for j in a] != [j.duration for j in b]

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            TraceGenerator(KALOS_SPEC).generate(0)

    def test_cpu_jobs_optional(self):
        trace = TraceGenerator(KALOS_SPEC, seed=1).generate(
            200, include_cpu_jobs=True)
        assert len(trace.cpu_jobs()) > 0
        assert len(trace.gpu_jobs()) == 200


#: sha256 of every field of every job (one ``repr`` line per job) of a
#: 3,000-GPU-job trace, by (cluster, seed, include_cpu_jobs).  A change
#: to any draw, to the order of the draws or to a field's type moves it.
TRACE_PINS = {
    ("kalos", 0, False):
        "b455d5a12cd4a44ae538e639957fa6be670b606137d55ddef3bcec2e62ec427f",
    ("kalos", 0, True):
        "9115c0afd6733e3954d37fa806eef8feadf24d289d131420a2b19b6c70472ce0",
    ("kalos", 7, False):
        "04d6c431454618c27b7a716e6e034e4e9b196ec6a675ca918cb85452abf6cec4",
    ("kalos", 7, True):
        "97772f2613b04703dce8a27902ea4dd403fa1f95f3eae9c5cb2c4815e8b58e00",
    ("seren", 0, False):
        "4a8e0662fdbd00c02fc134a2ce90653ee1a01425c5d9ca25818cb249984ba1ab",
    ("seren", 0, True):
        "2d1aaadd5d26ed3a20bf6d500e47668eff58d38e2c0d4b6e0a158c6fa2909d8c",
    ("seren", 7, False):
        "50524450681442cdeba060f70efcb0abec4eaac49189d11504b7afff97e71659",
    ("seren", 7, True):
        "d9178faea39c54eff259f73e4acdf861f82213a1367d0fadf95daeddf9df3de7",
}


def trace_sha256(trace) -> str:
    digest = hashlib.sha256()
    for job in trace.jobs:
        values = [getattr(job, field.name)
                  for field in dataclasses.fields(job)]
        digest.update(f"{values!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(("cluster", "seed", "cpu_jobs"), list(TRACE_PINS))
def test_trace_matches_its_pin(cluster, seed, cpu_jobs):
    spec = {"kalos": KALOS_SPEC, "seren": SEREN_SPEC}[cluster]
    trace = TraceGenerator(spec, seed=seed).generate(
        3000, include_cpu_jobs=cpu_jobs)
    assert len(trace.gpu_jobs()) == 3000
    assert trace_sha256(trace) == TRACE_PINS[cluster, seed, cpu_jobs]


class TestWorkloadMix:
    """Fig. 4 anchors."""

    def test_kalos_count_shares(self, kalos_trace):
        shares = kalos_trace.count_share_by_type()
        assert shares[JobType.EVALUATION] == pytest.approx(0.929,
                                                           abs=0.01)
        assert shares[JobType.PRETRAIN] == pytest.approx(0.032, abs=0.005)

    def test_kalos_pretrain_dominates_gpu_time(self, kalos_trace):
        shares = kalos_trace.gpu_time_share_by_type()
        assert shares[JobType.PRETRAIN] > 0.90
        assert shares[JobType.EVALUATION] < 0.02

    def test_seren_pretrain_gpu_time_share(self, seren_trace):
        share = seren_trace.gpu_time_share_by_type()[JobType.PRETRAIN]
        assert 0.55 < share < 0.85  # paper: 69.5%

    def test_seren_has_sft_and_mllm(self, seren_trace):
        shares = seren_trace.count_share_by_type()
        assert JobType.SFT in shares
        assert JobType.MLLM in shares

    def test_kalos_lacks_sft(self, kalos_trace):
        assert JobType.SFT not in kalos_trace.count_share_by_type()


class TestDurations:
    """Fig. 2a anchors."""

    def test_median_duration_about_two_minutes(self, seren_trace,
                                               kalos_trace):
        for trace in (seren_trace, kalos_trace):
            assert 80 < np.median(trace.durations()) < 180

    def test_pretrain_longest_median_within_order_of_magnitude(
            self, kalos_trace):
        overall = np.median(kalos_trace.durations())
        pretrain = np.median(kalos_trace.durations(JobType.PRETRAIN))
        assert pretrain > overall
        assert pretrain < 100 * overall

    def test_few_pretrain_jobs_exceed_one_day(self, kalos_trace):
        durations = kalos_trace.durations(JobType.PRETRAIN)
        assert (durations > 86400).mean() < 0.08  # paper: < 5%


class TestDemands:
    """Fig. 5 / Table 2 anchors."""

    def test_evaluation_demand_small(self, kalos_trace):
        demands = kalos_trace.gpu_demands(JobType.EVALUATION)
        assert np.median(demands) <= 4

    def test_pretrain_demand_large(self, kalos_trace):
        demands = kalos_trace.gpu_demands(JobType.PRETRAIN)
        assert np.median(demands) >= 128

    def test_mean_gpus_per_job(self, seren_trace, kalos_trace):
        # Table 2: Seren 5.7, Kalos 26.8 on average.
        assert 3 < seren_trace.mean_gpu_demand() < 12
        assert 15 < kalos_trace.mean_gpu_demand() < 45

    def test_no_demand_exceeds_cluster(self, kalos_trace):
        assert kalos_trace.gpu_demands().max() <= KALOS_SPEC.total_gpus


class TestStatusesAndUtilization:
    """Fig. 17 / Fig. 2b anchors."""

    def test_about_40pct_fail(self, seren_trace):
        counts = seren_trace.status_counts()
        total = sum(counts.values())
        assert 0.30 < counts[FinalStatus.FAILED] / total < 0.50

    def test_canceled_jobs_hold_majority_of_gpu_time(self, kalos_trace):
        times = kalos_trace.status_gpu_time()
        share = times[FinalStatus.CANCELED] / sum(times.values())
        assert share > 0.50  # paper: > 60%

    def test_completed_jobs_hold_minority_of_gpu_time(self, kalos_trace):
        times = kalos_trace.status_gpu_time()
        share = times[FinalStatus.COMPLETED] / sum(times.values())
        assert 0.10 < share < 0.40  # paper: 20-30%

    def test_utilization_polarized(self, kalos_trace):
        utils = kalos_trace.utilizations()
        low = (utils < 0.15).mean()
        high = (utils > 0.90).mean()
        assert low + high > 0.80

    def test_median_utilization_high(self, seren_trace, kalos_trace):
        assert np.median(seren_trace.utilizations()) > 0.90
        assert np.median(kalos_trace.utilizations()) > 0.95
