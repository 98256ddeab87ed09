"""DCGM-style GPU metric sampling (Fig. 7a/7b GPU side, Fig. 2b).

Samples instantaneous GPU states across the cluster the way DCGM polling
does: at a random instant, a GPU is either idle (unallocated — roughly the
cluster's unreserved/spare capacity) or running some job; busy GPUs show
metrics characteristic of the job's workload type.

Calibration anchors from the paper:

* median SM activity ≈ 40% in both clusters, about 2x PAI's 20% (Fig. 7a);
* Kalos: 50% of GPUs consume > 75% of GPU memory (60 GB) (Fig. 7b);
* GPU *utilization* (kernel-active fraction) is polarized with medians
  97%/99% (Fig. 2b) — much higher than SM activity;
* ~30% of GPUs idle at any instant (Fig. 8a's 60 W mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import NULL_TRACER, TracerLike
from repro.scheduler.job import JobType
from repro.workload.trace import Trace


@dataclass(frozen=True)
class GpuSample:
    """One DCGM poll of one GPU."""

    gpu_utilization: float   # kernel-active fraction (nvidia-smi style)
    sm_activity: float       # PROF_SM_ACTIVE
    tc_activity: float       # PROF_PIPE_TENSOR_ACTIVE
    memory_used_fraction: float  # DEV_FB_USED / capacity
    job_type: JobType | None     # None = idle GPU


@dataclass(frozen=True)
class _TypeProfile:
    """Busy-GPU metric distributions for one workload type."""

    sm_mean: float
    sm_std: float
    tc_ratio: float          # TC activity as a fraction of SM activity
    mem_mean: float          # fraction of 80 GB
    mem_std: float


#: Pretraining saturates memory (ZeRO shards + activations near the 80 GB
#: ceiling) with SM activity averaging ~45% (TP comm, bubbles); evaluation
#: inference is memory-lighter and burstier; debugging is light.
_PROFILES: dict[JobType, _TypeProfile] = {
    JobType.PRETRAIN: _TypeProfile(0.46, 0.12, 0.75, 0.80, 0.10),
    JobType.SFT: _TypeProfile(0.42, 0.12, 0.70, 0.70, 0.12),
    JobType.MLLM: _TypeProfile(0.40, 0.14, 0.65, 0.65, 0.15),
    JobType.EVALUATION: _TypeProfile(0.35, 0.18, 0.55, 0.40, 0.15),
    JobType.DEBUG: _TypeProfile(0.25, 0.15, 0.40, 0.30, 0.18),
    JobType.OTHER: _TypeProfile(0.30, 0.15, 0.45, 0.35, 0.18),
}


class DcgmSampler:
    """Draws instantaneous GPU samples consistent with a trace.

    A sampled busy GPU belongs to workload type T with probability equal to
    T's share of GPU time (a random GPU at a random instant is doing
    whatever dominates GPU time — pretraining, mostly).
    """

    def __init__(self, trace: Trace, idle_fraction: float = 0.30,
                 seed: int = 0,
                 tracer: TracerLike | None = None) -> None:
        if not 0.0 <= idle_fraction < 1.0:
            raise ValueError("idle_fraction must be in [0, 1)")
        self.trace = trace
        self.idle_fraction = idle_fraction
        # tracer=None → NULL_TRACER seam: instrumentation stays off the
        # RNG path, so traced and untraced samplers draw identically.
        self.tracer = tracer or NULL_TRACER
        self.rng = np.random.default_rng(seed)
        shares = trace.gpu_time_share_by_type()
        self._types = list(shares.keys())
        self._weights = np.array([shares[t] for t in self._types])
        if self._weights.sum() <= 0:
            raise ValueError("trace has no GPU time")
        self._weights = self._weights / self._weights.sum()
        self._jobs_by_type = {
            t: [job for job in trace.gpu_jobs() if job.job_type is t]
            for t in self._types}
        self._util_by_type = {
            t: np.array([job.gpu_utilization for job in jobs])
            for t, jobs in self._jobs_by_type.items()}

    def sample(self) -> GpuSample:
        """One DCGM poll of a random GPU."""
        if self.rng.uniform() < self.idle_fraction:
            return GpuSample(0.0, 0.0, 0.0,
                             float(self.rng.uniform(0.0, 0.02)), None)
        index = int(self.rng.choice(len(self._types), p=self._weights))
        job_type = self._types[index]
        profile = _PROFILES[job_type]
        jobs = self._jobs_by_type[job_type]
        job = jobs[int(self.rng.integers(len(jobs)))]
        sm = float(np.clip(
            self.rng.normal(profile.sm_mean, profile.sm_std), 0.02, 1.0))
        tc = float(np.clip(
            sm * profile.tc_ratio * self.rng.uniform(0.85, 1.1), 0.0, 1.0))
        mem = float(np.clip(
            self.rng.normal(profile.mem_mean, profile.mem_std), 0.02, 0.98))
        return GpuSample(
            gpu_utilization=job.gpu_utilization,
            sm_activity=sm,
            tc_activity=tc,
            memory_used_fraction=mem,
            job_type=job_type,
        )

    def sample_many(self, n: int) -> list[GpuSample]:
        """``n`` independent polls."""
        if n <= 0:
            raise ValueError("n must be positive")
        samples = [self.sample() for _ in range(n)]
        self.tracer.count("monitor.dcgm.samples", float(n))
        return samples

    # -- convenience vectors ------------------------------------------------

    def metric_arrays(self, n: int) -> dict[str, np.ndarray]:
        """Arrays over busy *and* idle samples for CDF analysis.

        All ``n`` polls are drawn as vectorized batches (one array op
        per distribution per workload type) rather than ``n``
        :meth:`sample` calls.  The batches consume the RNG stream in a
        different order, so individual values differ from
        :meth:`sample_many` — but each metric follows the *same*
        distribution, which is all the CDF figures and the calibration
        tests assert (pinned by ``tests/test_monitor.py``).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        self.tracer.count("monitor.dcgm.metric_arrays", 1.0)
        rng = self.rng
        idle = rng.uniform(size=n) < self.idle_fraction
        n_idle = int(idle.sum())
        n_busy = n - n_idle
        util = np.zeros(n)
        sm = np.zeros(n)
        tc = np.zeros(n)
        mem = np.empty(n)
        mem[idle] = rng.uniform(0.0, 0.02, size=n_idle)
        busy = np.flatnonzero(~idle)
        type_index = rng.choice(len(self._types), size=n_busy,
                                p=self._weights)
        for position, job_type in enumerate(self._types):
            rows = busy[type_index == position]
            count = rows.size
            if count == 0:
                continue
            profile = _PROFILES[job_type]
            utils = self._util_by_type[job_type]
            util[rows] = utils[rng.integers(utils.size, size=count)]
            sm_draw = np.clip(
                rng.normal(profile.sm_mean, profile.sm_std, size=count),
                0.02, 1.0)
            sm[rows] = sm_draw
            tc[rows] = np.clip(
                sm_draw * profile.tc_ratio
                * rng.uniform(0.85, 1.1, size=count), 0.0, 1.0)
            mem[rows] = np.clip(
                rng.normal(profile.mem_mean, profile.mem_std,
                           size=count), 0.02, 0.98)
        return {
            "gpu_utilization": util,
            "sm_activity": sm,
            "tc_activity": tc,
            "memory_fraction": mem,
        }
