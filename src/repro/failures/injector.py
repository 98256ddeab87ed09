"""Failure-event sampling from the Table 3 taxonomy.

Two uses:

* generating a standalone population of failure events whose per-reason
  statistics reproduce Table 3 (``generate_events``);
* tagging the failed jobs of a synthetic trace with plausible reasons
  conditioned on the job's GPU demand (``assign_to_trace``) — large gang
  jobs fail from infrastructure, tiny jobs from script errors, matching
  §5.2's observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.failures.taxonomy import (TAXONOMY, FailureCategory, FailureSpec)
from repro.scheduler.job import FinalStatus
from repro.sim.distributions import lognormal_from_median_mean
from repro.workload.trace import Trace


@dataclass(frozen=True)
class FailureEvent:
    """One job failure with everything Table 3 tabulates."""

    reason: str
    category: FailureCategory
    cluster: str
    gpu_demand: int
    time_to_failure_min: float
    time_to_restart_min: float

    @property
    def gpu_time_min(self) -> float:
        return self.gpu_demand * self.time_to_failure_min


class FailureInjector:
    """Samples failure events consistent with the taxonomy statistics."""

    def __init__(self, seed: int = 0,
                 taxonomy: list[FailureSpec] | None = None) -> None:
        self.taxonomy = taxonomy or TAXONOMY
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # -- event population (Table 3 regeneration) ---------------------------

    def generate_events(self, scale: float = 1.0) -> list[FailureEvent]:
        """Sample ``scale``x the observed count of each failure reason."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        events: list[FailureEvent] = []
        for spec in self.taxonomy:
            count = max(1, int(round(spec.count * scale)))
            events.extend(self._sample_reason(spec, count))
        return events

    def _sample_reason(self, spec: FailureSpec, count: int,
                       rng: np.random.Generator | None = None
                       ) -> list[FailureEvent]:
        rng = self.rng if rng is None else rng
        demand_dist = lognormal_from_median_mean(
            max(spec.demand_median, 0.51), max(spec.demand_avg, 0.51))
        ttf_dist = lognormal_from_median_mean(
            max(spec.ttf_median_min, 0.05), max(spec.ttf_avg_min, 0.05))
        restart_dist = lognormal_from_median_mean(
            max(spec.restart_median_min, 0.01),
            max(spec.restart_avg_min, 0.01))
        events = []
        for _ in range(count):
            cluster = str(rng.choice(spec.clusters))
            demand = max(1, int(round(demand_dist.sample(rng))))
            events.append(FailureEvent(
                reason=spec.reason,
                category=spec.category,
                cluster=cluster,
                gpu_demand=demand,
                time_to_failure_min=float(ttf_dist.sample(rng)),
                time_to_restart_min=float(restart_dist.sample(rng)),
            ))
        return events

    # -- trace tagging --------------------------------------------------------

    def assign_to_trace(self, trace: Trace,
                        rng: np.random.Generator | None = None) -> None:
        """Set ``failure_reason`` on every failed job in the trace.

        Reasons are drawn with probability proportional to
        count x demand-affinity, where affinity favors reasons whose
        typical demand matches the job's (log-scale distance).

        Sampling is seed-stable: each call uses an explicit generator
        (``rng`` if given, else a fresh one derived from the injector's
        seed), so tagging the same trace twice — or tagging it after other
        sampling calls on the same injector — yields identical reasons.
        """
        rng = np.random.default_rng(self.seed) if rng is None else rng
        cluster = trace.cluster
        candidates = [spec for spec in self.taxonomy
                      if cluster in spec.clusters]
        if not candidates:
            candidates = list(self.taxonomy)
        counts = np.array([spec.count for spec in candidates], dtype=float)
        medians = np.array([max(spec.demand_median, 0.5)
                            for spec in candidates])
        for job in trace.gpu_jobs():
            if job.final_status is not FinalStatus.FAILED:
                continue
            distance = np.abs(np.log2(medians)
                              - np.log2(max(job.gpu_demand, 1)))
            affinity = np.exp(-distance / 1.5)
            weights = counts * affinity
            weights = weights / weights.sum()
            index = int(rng.choice(len(candidates), p=weights))
            job.failure_reason = candidates[index].reason

    def sample_pretraining_failure(self, cluster: str,
                                   rng: np.random.Generator | None = None
                                   ) -> FailureEvent:
        """One failure for a running large pretraining job.

        Long-running gang jobs draw from the demand-heavy reasons
        (infrastructure + heavyweight framework errors), weighted by GPU
        time share — the §5.2 profile of what interrupts pretraining.
        """
        rng = self.rng if rng is None else rng
        heavy = [spec for spec in self.taxonomy
                 if spec.demand_median >= 128
                 and cluster in spec.clusters]
        if not heavy:
            heavy = [spec for spec in self.taxonomy
                     if spec.demand_median >= 128]
        weights = np.array([max(spec.gpu_time_pct, 0.01)
                            for spec in heavy])
        weights = weights / weights.sum()
        spec = heavy[int(rng.choice(len(heavy), p=weights))]
        return self._sample_reason(spec, 1, rng)[0]
