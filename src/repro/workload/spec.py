"""Calibration constants for the Acme workload generator.

Every number here traces back to a statement in the paper:

* workload mix and GPU-time shares — Fig. 4 and §3.2;
* GPU-demand ranges per type — Fig. 5 (evaluation < 4 GPUs, pretraining
  often > 100, debugging wide);
* duration distributions — Fig. 2a/6 (median job duration 2 minutes,
  pretraining longest but within an order of magnitude at the median,
  < 5% of pretraining jobs exceed one day);
* final-status mix — Fig. 17 (~40% failed jobs holding ~10% of GPU time,
  ~7% canceled holding > 60%, completions holding 20–30%);
* utilization polarization — Fig. 2b (median GPU utilization 97%/99%).

Where the paper gives only qualitative guidance (e.g. the exact SFT share
of Seren's job count) we pick values consistent with the figures; measured
deviations are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.scheduler.job import FinalStatus, JobType
from repro.sim.distributions import (Choice, Constant, Distribution,
                                     LogNormal, Mixture, Uniform)

MINUTE = 60.0
DAY = 86400.0


def _lognormal_median(median: float, sigma: float) -> LogNormal:
    return LogNormal(math.log(median), sigma)


@dataclass(frozen=True)
class TypeSpec:
    """Generator parameters for one workload type on one cluster."""

    job_type: JobType
    #: share of the cluster's GPU-job count
    count_share: float
    gpu_demand: Choice
    duration: Distribution
    #: probability of each terminal status
    status_weights: dict[FinalStatus, float]
    #: multiplier applied to duration when the job fails — failures happen
    #: "primarily at the beginning of LLM workloads" (§1, §5)
    failed_duration_factor: Distribution = field(
        default_factory=lambda: Uniform(0.02, 0.30))
    #: multiplier applied when the job is canceled.  Appendix A.1: canceled
    #: jobs are dominated by large pretraining runs users let run for a
    #: while (performance anomalies, silent stalls) before killing them.
    canceled_duration_factor: Distribution = field(
        default_factory=lambda: Constant(1.0))
    #: evaluation jobs are "submitted as a batch simultaneously" (§3.2)
    batch_size: int = 1


def _eval_spec(count_share: float) -> TypeSpec:
    return TypeSpec(
        job_type=JobType.EVALUATION,
        count_share=count_share,
        gpu_demand=Choice([1, 2, 4, 8], [0.55, 0.25, 0.15, 0.05]),
        duration=_lognormal_median(2.5 * MINUTE, 1.4),
        status_weights={FinalStatus.COMPLETED: 0.555,
                        FinalStatus.FAILED: 0.42,
                        FinalStatus.CANCELED: 0.025},
        # Evaluation jobs are minutes-long; even an early failure consumes
        # a sizable fraction of the nominal runtime.
        failed_duration_factor=Uniform(0.20, 0.90),
        batch_size=60,
    )


def _pretrain_spec(count_share: float, demand: Choice,
                   median_duration: float) -> TypeSpec:
    return TypeSpec(
        job_type=JobType.PRETRAIN,
        count_share=count_share,
        gpu_demand=demand,
        duration=_lognormal_median(median_duration, 1.5),
        status_weights={FinalStatus.COMPLETED: 0.20,
                        FinalStatus.FAILED: 0.35,
                        FinalStatus.CANCELED: 0.45},
        failed_duration_factor=Uniform(0.05, 0.40),
        canceled_duration_factor=Uniform(1.2, 2.4),
    )


def _debug_spec(count_share: float, demand: Choice,
                median_duration: float, sigma: float) -> TypeSpec:
    return TypeSpec(
        job_type=JobType.DEBUG,
        count_share=count_share,
        gpu_demand=demand,
        duration=_lognormal_median(median_duration, sigma),
        status_weights={FinalStatus.COMPLETED: 0.45,
                        FinalStatus.FAILED: 0.40,
                        FinalStatus.CANCELED: 0.15},
    )


def _other_spec(count_share: float) -> TypeSpec:
    return TypeSpec(
        job_type=JobType.OTHER,
        count_share=count_share,
        gpu_demand=Choice([1, 2, 4, 8, 16], [0.45, 0.2, 0.15, 0.12, 0.08]),
        duration=_lognormal_median(3.0 * MINUTE, 1.3),
        status_weights={FinalStatus.COMPLETED: 0.55,
                        FinalStatus.FAILED: 0.38,
                        FinalStatus.CANCELED: 0.07},
    )


@dataclass(frozen=True)
class ClusterWorkloadSpec:
    """Full generator calibration for one cluster."""

    cluster: str
    total_gpus: int
    #: six-month job counts in the real trace (Table 2 / §2.3 scaling)
    real_gpu_jobs: int
    real_cpu_jobs: int
    type_specs: list[TypeSpec]
    #: per-job mean GPU utilization: polarized mixture (Fig. 2b); first
    #: component is the near-idle mass, second the near-full mass.
    utilization: Mixture
    #: trace span in seconds (six months, March–August 2023)
    span: float = 183 * DAY

    def __post_init__(self) -> None:
        total = sum(spec.count_share for spec in self.type_specs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{self.cluster}: count shares sum to {total}, expected 1.0")


#: Seren (Fig. 4a/b): pretraining 0.9% of jobs / 69.5% of GPU time; SFT and
#: MLLM exist only here; median cluster GPU utilization 97%.
SEREN_SPEC = ClusterWorkloadSpec(
    cluster="seren",
    total_gpus=2288,
    real_gpu_jobs=664_000,
    real_cpu_jobs=368_000,
    type_specs=[
        _pretrain_spec(
            0.009,
            Choice([32, 64, 128, 256, 512, 1024],
                   [0.10, 0.15, 0.25, 0.25, 0.15, 0.10]),
            median_duration=20.0 * MINUTE),
        TypeSpec(
            job_type=JobType.SFT,
            count_share=0.025,
            gpu_demand=Choice([8, 16, 32, 64], [0.40, 0.30, 0.20, 0.10]),
            duration=_lognormal_median(10.0 * MINUTE, 1.2),
            status_weights={FinalStatus.COMPLETED: 0.50,
                            FinalStatus.FAILED: 0.38,
                            FinalStatus.CANCELED: 0.12},
        ),
        TypeSpec(
            job_type=JobType.MLLM,
            count_share=0.016,
            gpu_demand=Choice([8, 16, 32, 64, 128, 256],
                              [0.25, 0.20, 0.20, 0.15, 0.12, 0.08]),
            duration=_lognormal_median(10.0 * MINUTE, 1.6),
            status_weights={FinalStatus.COMPLETED: 0.40,
                            FinalStatus.FAILED: 0.40,
                            FinalStatus.CANCELED: 0.20},
        ),
        _eval_spec(0.78),
        _debug_spec(
            0.12,
            Choice([1, 2, 4, 8, 16, 32, 64, 128],
                   [0.35, 0.15, 0.12, 0.12, 0.10, 0.08, 0.05, 0.03]),
            median_duration=5.0 * MINUTE, sigma=1.5),
        _other_spec(0.05),
    ],
    utilization=Mixture([Uniform(0.0, 0.10), Uniform(0.95, 1.0)],
                        [0.20, 0.80]),
)

#: Kalos (Fig. 4c/d): evaluation 92.9% of jobs / 0.8% of GPU time;
#: pretraining 3.2% of jobs / 94.0% of GPU time; jobs >= 256 GPUs dominate
#: GPU time (> 96%); median cluster GPU utilization 99%.
KALOS_SPEC = ClusterWorkloadSpec(
    cluster="kalos",
    total_gpus=2416,
    real_gpu_jobs=20_000,
    real_cpu_jobs=42_000,
    type_specs=[
        _pretrain_spec(
            0.032,
            Choice([256, 512, 1024, 2048], [0.15, 0.35, 0.30, 0.20]),
            median_duration=15.0 * MINUTE),
        _eval_spec(0.929),
        _debug_spec(
            0.030,
            Choice([1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
                   [0.30, 0.14, 0.12, 0.10, 0.10, 0.08, 0.06, 0.05,
                    0.03, 0.02]),
            median_duration=8.0 * MINUTE, sigma=1.6),
        _other_spec(0.009),
    ],
    utilization=Mixture([Uniform(0.0, 0.10), Uniform(0.98, 1.0)],
                        [0.20, 0.80]),
)
