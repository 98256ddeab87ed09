"""Job model: the unit every trace row describes.

Field names follow the paper's job-log schema (§2.3): submission/start/end
times, final status (completed/canceled/failed), requested resources, and
the workload type inferred from metadata (§3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class JobType(Enum):
    """Workload categories of Fig. 4/5/6."""

    PRETRAIN = "pretrain"
    SFT = "sft"
    MLLM = "mllm"
    EVALUATION = "evaluation"
    DEBUG = "debug"
    OTHER = "other"


#: Order used for reporting (matches the paper's figure legends).
WORKLOAD_TYPES = [JobType.PRETRAIN, JobType.SFT, JobType.MLLM,
                  JobType.EVALUATION, JobType.DEBUG, JobType.OTHER]


class JobState(Enum):
    """Lifecycle state of a job in the scheduler."""
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


class FinalStatus(Enum):
    """Terminal status in the job log (Fig. 17)."""

    COMPLETED = "completed"
    FAILED = "failed"
    CANCELED = "canceled"


@dataclass
class Job:
    """One job-log row.

    Times are seconds from the trace epoch.  ``duration`` is the runtime
    the job will consume once started (excluding queueing delay), which is
    how the paper defines job duration in Fig. 2a.
    """

    job_id: str
    cluster: str
    job_type: JobType
    submit_time: float
    duration: float
    gpu_demand: int
    cpu_demand: int = 0
    final_status: FinalStatus = FinalStatus.COMPLETED
    #: mean GPU utilization over the job's lifetime, in [0, 1] (Fig. 2b)
    gpu_utilization: float = 0.0
    state: JobState = JobState.PENDING
    start_time: float | None = None
    end_time: float | None = None
    #: failure reason key into the taxonomy (Table 3), when failed
    failure_reason: str | None = None
    #: free-form metadata (job name, user, etc.)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.submit_time):
            raise ValueError(
                f"submit_time must be finite, got {self.submit_time}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and non-negative, got "
                f"{self.duration}")
        if self.gpu_demand < 0:
            raise ValueError("gpu_demand must be non-negative")

    # -- lifecycle ---------------------------------------------------------

    def mark_started(self, time: float) -> None:
        """Transition to RUNNING at ``time``."""
        if self.state is not JobState.PENDING:
            raise RuntimeError(f"job {self.job_id} started twice")
        self.state = JobState.RUNNING
        if self.start_time is None:
            # queueing delay measures submit -> *first* start; restarts
            # after preemption keep the original
            self.start_time = time

    def mark_preempted(self, time: float) -> None:
        """Return a running job to the pending state (best-effort
        eviction when a reserved job reclaims its quota)."""
        if self.state is not JobState.RUNNING:
            raise RuntimeError(
                f"job {self.job_id} preempted but not running")
        self.state = JobState.PENDING
        self.metadata["preemptions"] = (
            self.metadata.get("preemptions", 0) + 1)

    def mark_finished(self, time: float) -> None:
        """Transition to FINISHED at ``time``."""
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id} finished but not running")
        self.state = JobState.FINISHED
        self.end_time = time

    def mark_canceled(self, time: float) -> None:
        """Terminate a job straight out of the queue (load shedding).

        Unlike :meth:`mark_finished` the job never ran: it goes
        PENDING → FINISHED with ``FinalStatus.CANCELED`` and no
        ``start_time``, which is how the paper's job log records jobs
        withdrawn before placement.
        """
        if self.state is not JobState.PENDING:
            raise RuntimeError(
                f"job {self.job_id} canceled but not pending")
        self.state = JobState.FINISHED
        self.end_time = time
        self.final_status = FinalStatus.CANCELED

    # -- derived metrics -----------------------------------------------------

    @property
    def queueing_delay(self) -> float:
        """Seconds between submission and start (Fig. 6b/6d)."""
        if self.start_time is None:
            raise RuntimeError(f"job {self.job_id} never started")
        return self.start_time - self.submit_time

    @property
    def gpu_time(self) -> float:
        """Requested GPUs x duration — the paper's GPU-time metric."""
        return self.gpu_demand * self.duration

    @property
    def is_gpu_job(self) -> bool:
        return self.gpu_demand > 0

    def to_record(self) -> dict:
        """Flat dict for CSV/JSONL serialization."""
        return {
            "job_id": self.job_id,
            "cluster": self.cluster,
            "job_type": self.job_type.value,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "gpu_demand": self.gpu_demand,
            "cpu_demand": self.cpu_demand,
            "final_status": self.final_status.value,
            "gpu_utilization": self.gpu_utilization,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from :meth:`to_record` output."""
        cpu_demand = record.get("cpu_demand")
        job = cls(
            job_id=record["job_id"],
            cluster=record["cluster"],
            job_type=JobType(record["job_type"]),
            submit_time=float(record["submit_time"]),
            duration=float(record["duration"]),
            gpu_demand=_whole("gpu_demand", record["gpu_demand"]),
            cpu_demand=(0 if cpu_demand in (None, "")
                        else _whole("cpu_demand", cpu_demand)),
            final_status=FinalStatus(record["final_status"]),
            gpu_utilization=float(record.get("gpu_utilization", 0.0) or 0.0),
            failure_reason=record.get("failure_reason") or None,
        )
        start = record.get("start_time")
        end = record.get("end_time")
        if start is not None and start != "":
            job.mark_started(float(start))
        if end is not None and end != "":
            job.mark_finished(float(end))
        return job


def _whole(name: str, value: int | float | str) -> int:
    """A resource count read from a record: a boolean or a number with
    a fractional part is rejected rather than truncated by ``int``."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)
