"""Synthetic Acme trace generation.

``TraceGenerator`` samples a job log for one cluster from its
:class:`~repro.workload.spec.ClusterWorkloadSpec`:

* per-type counts follow the calibrated count shares;
* arrivals are Poisson over the trace span with a diurnal modulation
  (LLM developers, like everyone, submit more during the day);
* evaluation jobs arrive in simultaneous batches (one batch per checkpoint
  across ~60 datasets, §3.2/§6.2);
* terminal status is sampled per type; failed jobs terminate early and
  canceled pretraining jobs linger (Appendix A.1);
* per-job mean GPU utilization follows the cluster's polarized mixture,
  with failed jobs biased toward the idle mode.
"""

from __future__ import annotations

import numpy as np

from repro.scheduler.job import FinalStatus, Job, JobType
from repro.sim.distributions import Choice
from repro.workload.spec import ClusterWorkloadSpec, TypeSpec
from repro.workload.trace import Trace

#: Jitter between members of one evaluation batch, seconds.
_BATCH_JITTER = 2.0


class TraceGenerator:
    """Generates a synthetic job trace for one cluster."""

    def __init__(self, spec: ClusterWorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def generate(self, n_jobs: int, include_cpu_jobs: bool = False) -> Trace:
        """Generate ``n_jobs`` GPU jobs (plus CPU jobs if requested)."""
        if n_jobs <= 0:
            raise ValueError("n_jobs must be positive")
        rng = np.random.default_rng(self.seed)
        jobs: list[Job] = []
        counts = self._type_counts(n_jobs)
        for type_spec, count in counts:
            jobs.extend(self._generate_type(rng, type_spec, count))
        if include_cpu_jobs:
            ratio = self.spec.real_cpu_jobs / self.spec.real_gpu_jobs
            jobs.extend(self._generate_cpu_jobs(rng,
                                                int(round(n_jobs * ratio))))
        for index, job in enumerate(sorted(jobs,
                                           key=lambda j: j.submit_time)):
            job.job_id = f"{self.spec.cluster}-{index:06d}"
        return Trace(self.spec.cluster, jobs)

    # -- internals -----------------------------------------------------------

    def _type_counts(self, n_jobs: int) -> list[tuple[TypeSpec, int]]:
        """Largest-remainder apportionment of ``n_jobs`` over types."""
        raw = [(spec, spec.count_share * n_jobs)
               for spec in self.spec.type_specs]
        floors = [(spec, int(value)) for spec, value in raw]
        assigned = sum(count for _, count in floors)
        remainders = sorted(
            range(len(raw)),
            key=lambda i: raw[i][1] - floors[i][1],
            reverse=True)
        counts = [count for _, count in floors]
        for i in remainders[:n_jobs - assigned]:
            counts[i] += 1
        return [(spec, count) for (spec, _), count in zip(floors, counts)]

    def _arrival_times(self, rng: np.random.Generator, count: int,
                       batch_size: int) -> np.ndarray:
        """Diurnally modulated arrivals; batched types share timestamps."""
        n_anchors = max(1, int(np.ceil(count / batch_size)))
        anchors = self._diurnal_times(rng, n_anchors)
        if batch_size == 1:
            return anchors[:count]
        times = np.repeat(anchors, batch_size)[:count]
        jitter = rng.uniform(0.0, _BATCH_JITTER, size=count)
        return times + jitter

    def _diurnal_times(self, rng: np.random.Generator, count: int
                       ) -> np.ndarray:
        """Thinned Poisson process: daytime rate 3x the nighttime rate."""
        uniform = rng.uniform(0.0, self.spec.span, size=count * 2)
        hour_of_day = (uniform % 86400.0) / 3600.0
        # Acceptance probability peaks at 14:00 local time.
        accept_p = 0.4 + 0.6 * np.exp(-((hour_of_day - 14.0) ** 2) / 18.0)
        accepted = uniform[rng.uniform(size=uniform.size) < accept_p]
        while accepted.size < count:
            extra = rng.uniform(0.0, self.spec.span, size=count)
            accepted = np.concatenate([accepted, extra])
        return np.sort(accepted[:count])

    def _generate_type(self, rng: np.random.Generator, spec: TypeSpec,
                       count: int) -> list[Job]:
        if count == 0:
            return []
        times = self._arrival_times(rng, count, spec.batch_size).tolist()
        demands = spec.gpu_demand.sample_many(rng, count)
        durations = spec.duration.sample_many(rng, count).tolist()
        statuses = self._sample_statuses(rng, spec, count)
        jobs = []
        for submit_time, demand, duration, status in zip(
                times, demands, durations, statuses):
            if status is FinalStatus.FAILED:
                duration *= spec.failed_duration_factor.sample(rng)
            elif status is FinalStatus.CANCELED:
                duration *= spec.canceled_duration_factor.sample(rng)
            job = Job(
                job_id="pending",
                cluster=self.spec.cluster,
                job_type=spec.job_type,
                submit_time=submit_time,
                duration=max(duration, 1.0),
                gpu_demand=int(demand),
                final_status=status,
                gpu_utilization=self._sample_utilization(rng, status),
            )
            jobs.append(job)
        return jobs

    def _sample_statuses(self, rng: np.random.Generator, spec: TypeSpec,
                         count: int) -> list[FinalStatus]:
        options = list(spec.status_weights.keys())
        weights = [spec.status_weights[status] for status in options]
        return Choice(options, weights).sample_many(rng, count)

    def _sample_utilization(self, rng: np.random.Generator,
                            status: FinalStatus) -> float:
        utilization = self.spec.utilization.sample(rng)
        # Failed jobs die early, often before reaching steady-state compute;
        # bias them toward the idle mode of the polarized distribution.
        # ``rng.uniform(0.0, b)`` is ``0.0 + b * rng.random()`` in numpy.
        if status is FinalStatus.FAILED and rng.random() < 0.35:
            utilization = 0.10 * rng.random()
        return min(max(utilization, 0.0), 1.0)

    def _generate_cpu_jobs(self, rng: np.random.Generator, count: int
                           ) -> list[Job]:
        if count <= 0:
            return []
        times = self._diurnal_times(rng, count).tolist()
        durations = rng.lognormal(np.log(60.0), 1.2, size=count).tolist()
        jobs = []
        for submit_time, duration in zip(times, durations):
            status = (FinalStatus.COMPLETED if rng.random() < 0.7
                      else FinalStatus.FAILED)
            jobs.append(Job(
                job_id="pending",
                cluster=self.spec.cluster,
                job_type=JobType.OTHER,
                submit_time=submit_time,
                duration=max(duration, 1.0),
                gpu_demand=0,
                cpu_demand=int(rng.integers(1, 16)),
                final_status=status,
            ))
        return jobs
