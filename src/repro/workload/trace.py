"""Trace container and serialization.

A :class:`Trace` holds the job log of one cluster over the study window and
offers the aggregations the analysis layer needs: per-type slices, duration
and GPU-time vectors, and CSV/JSONL round-tripping (the public AcmeTrace
release ships CSV job logs; we mirror that format).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.scheduler.job import FinalStatus, Job, JobType


class Trace:
    """An ordered collection of jobs from one cluster."""

    def __init__(self, cluster: str, jobs: Iterable[Job]) -> None:
        self.cluster = cluster
        self.jobs = sorted(jobs, key=lambda job: job.submit_time)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    # -- slices -----------------------------------------------------------

    def gpu_jobs(self) -> list[Job]:
        """Jobs that request at least one GPU."""
        return [job for job in self.jobs if job.is_gpu_job]

    def cpu_jobs(self) -> list[Job]:
        """CPU-only jobs."""
        return [job for job in self.jobs if not job.is_gpu_job]

    def of_type(self, job_type: JobType) -> list[Job]:
        """Jobs of one workload type."""
        return [job for job in self.jobs if job.job_type is job_type]

    def filter(self, predicate: Callable[[Job], bool]) -> "Trace":
        """A new Trace with only the jobs matching ``predicate``."""
        return Trace(self.cluster,
                     [job for job in self.jobs if predicate(job)])

    # -- vectors ------------------------------------------------------------

    def durations(self, job_type: JobType | None = None) -> np.ndarray:
        """Job durations (optionally one type), seconds."""
        jobs = self.of_type(job_type) if job_type else self.gpu_jobs()
        return np.array([job.duration for job in jobs], dtype=float)

    def gpu_demands(self, job_type: JobType | None = None) -> np.ndarray:
        """Requested GPUs per job."""
        jobs = self.of_type(job_type) if job_type else self.gpu_jobs()
        return np.array([job.gpu_demand for job in jobs], dtype=float)

    def gpu_times(self, job_type: JobType | None = None) -> np.ndarray:
        """GPU time (demand x duration) per job."""
        jobs = self.of_type(job_type) if job_type else self.gpu_jobs()
        return np.array([job.gpu_time for job in jobs], dtype=float)

    def utilizations(self) -> np.ndarray:
        """Per-job mean GPU utilization."""
        return np.array([job.gpu_utilization for job in self.gpu_jobs()],
                        dtype=float)

    def queueing_delays(self, job_type: JobType | None = None) -> np.ndarray:
        """Submit-to-start delays of started jobs."""
        jobs = self.of_type(job_type) if job_type else self.gpu_jobs()
        return np.array([job.queueing_delay for job in jobs
                         if job.start_time is not None], dtype=float)

    # -- aggregates -----------------------------------------------------------

    def count_share_by_type(self) -> dict[JobType, float]:
        """Each type's share of the GPU-job count (Fig. 4a/c)."""
        jobs = self.gpu_jobs()
        if not jobs:
            return {}
        shares: dict[JobType, float] = {}
        for job in jobs:
            shares[job.job_type] = shares.get(job.job_type, 0.0) + 1
        return {k: v / len(jobs) for k, v in shares.items()}

    def gpu_time_share_by_type(self) -> dict[JobType, float]:
        """Each type's share of total GPU time (Fig. 4b/d)."""
        jobs = self.gpu_jobs()
        total = sum(job.gpu_time for job in jobs)
        if total == 0:
            return {}
        shares: dict[JobType, float] = {}
        for job in jobs:
            shares[job.job_type] = (shares.get(job.job_type, 0.0)
                                    + job.gpu_time)
        return {k: v / total for k, v in shares.items()}

    def status_counts(self) -> dict[FinalStatus, int]:
        """Job counts per terminal status (Fig. 17a)."""
        counts: dict[FinalStatus, int] = {}
        for job in self.gpu_jobs():
            counts[job.final_status] = counts.get(job.final_status, 0) + 1
        return counts

    def status_gpu_time(self) -> dict[FinalStatus, float]:
        """GPU time per terminal status (Fig. 17b)."""
        totals: dict[FinalStatus, float] = {}
        for job in self.gpu_jobs():
            totals[job.final_status] = (totals.get(job.final_status, 0.0)
                                        + job.gpu_time)
        return totals

    def mean_gpu_demand(self) -> float:
        """Average requested GPUs per job (Table 2)."""
        demands = self.gpu_demands()
        return float(demands.mean()) if demands.size else 0.0

    # -- serialization --------------------------------------------------------

    _FIELDS = ["job_id", "cluster", "job_type", "submit_time", "start_time",
               "end_time", "duration", "gpu_demand", "cpu_demand",
               "final_status", "gpu_utilization", "failure_reason"]

    def to_csv(self, path: str | Path) -> None:
        """Write the job log as CSV (AcmeTrace-style schema)."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self._FIELDS)
            writer.writeheader()
            for job in self.jobs:
                writer.writerow(job.to_record())

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`to_csv`.

        A bad record raises ``ValueError`` naming its line in the file.
        """
        path = Path(path)
        jobs = []
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                for key in ("start_time", "end_time", "failure_reason"):
                    if row.get(key) in ("", "None"):
                        row[key] = None
                jobs.append(_job_on_line(reader.line_num, row))
        cluster = jobs[0].cluster if jobs else "unknown"
        return cls(cluster, jobs)

    def to_jsonl(self, path: str | Path) -> None:
        """Write one JSON record per job."""
        path = Path(path)
        with path.open("w") as handle:
            for job in self.jobs:
                handle.write(json.dumps(job.to_record()) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`to_jsonl`.

        A bad record raises ``ValueError`` naming its line in the file.
        """
        path = Path(path)
        jobs = []
        with path.open() as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValueError(f"line {number}: {error.msg}") from None
                if not isinstance(record, dict):
                    raise ValueError(f"line {number}: not a JSON object")
                jobs.append(_job_on_line(number, record))
        cluster = jobs[0].cluster if jobs else "unknown"
        return cls(cluster, jobs)


def _job_on_line(number: int, record: dict) -> Job:
    """``Job.from_record(record)``; a bad record's error names ``number``,
    its line in the file."""
    try:
        return Job.from_record(record)
    except KeyError as error:
        reason = f"missing field {error}"
    except (TypeError, ValueError) as error:
        reason = str(error)
    raise ValueError(f"line {number}: {reason}")
