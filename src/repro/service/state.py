"""Snapshot format for the streaming simulation service.

A :class:`~repro.service.cluster.ClusterService` snapshot is
*replay-based*: heap callbacks (closures over live scheduler state)
cannot be serialized, so the snapshot records what is sufficient to
rebuild them — the scenario, the op journal (every attach / submit /
advance since construction, with each run of back-to-back advances
kept as one entry for its last horizon; older snapshots holding one
entry per advance replay the same) — plus digests of the engine heap,
the scheduler state, and the event log that *prove* a replay
reconverged.

The whole payload is canonical JSON wrapped in a one-key
``StateDict`` (a ``uint8`` array), so it rides the existing
``core/checkpoint.py`` persist pipeline unchanged: retries, optional
replication, checksum quarantine, and multi-generation fallback all
apply to service snapshots exactly as they do to training state.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable, Sequence
from dataclasses import asdict, fields
from typing import Any

import numpy as np

from repro.chaos.scenario import ChaosScenario, InjectedFault
from repro.core.checkpoint import StateDict
from repro.scheduler.job import FinalStatus, Job, JobType

#: the single StateDict key a service snapshot occupies
STATE_KEY = "service_state"
#: version 2 added the admission/overload config and the admission
#: decision-log digest to the payload (overload-robust service PR)
STATE_VERSION = 2


class ServiceStateError(RuntimeError):
    """Raised when a service snapshot is malformed or a restore's
    replay diverges from the recorded digests."""


def text_digest(text: str) -> str:
    """crc32 content digest of ``text`` as fixed-width hex."""
    return f"{zlib.crc32(text.encode('utf-8')):08x}"


class RollingDigest:
    """:func:`text_digest` of an append-only log, folded as it grows.

    ``render`` formats one entry as one line of the log's text.  A read
    folds in only the entries appended since the previous read, so
    :meth:`hexdigest` costs O(new lines) and still equals
    ``text_digest("\\n".join(map(render, log)))``: every line but the
    first is folded with its ``"\\n"`` separator in front.
    """

    def __init__(self, log: Sequence[Any],
                 render: Callable[[Any], str]) -> None:
        self.log = log
        self.render = render
        self._folded = 0
        self._crc = 0

    def hexdigest(self) -> str:
        log, render, crc = self.log, self.render, self._crc
        for index in range(self._folded, len(log)):
            line = render(log[index]).encode("utf-8")
            crc = zlib.crc32(b"\n" + line if index else line, crc)
        self._folded = len(log)
        self._crc = crc
        return f"{crc:08x}"


# -- scenario round-trip ---------------------------------------------------


def scenario_to_dict(scenario: ChaosScenario) -> dict[str, Any]:
    """The scenario as a JSON-serializable dict (tuples become lists)."""
    return asdict(scenario)


def _fault_from_dict(payload: dict[str, Any]) -> InjectedFault:
    kwargs = {key: tuple(value) if isinstance(value, list) else value
              for key, value in payload.items()}
    return InjectedFault(**kwargs)


def scenario_from_dict(payload: dict[str, Any]) -> ChaosScenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    JSON has no tuples, so every list field is converted back to the
    tuple type the frozen dataclass declares (including the nested
    ``faults`` override schedule).
    """
    kwargs: dict[str, Any] = {}
    for field in fields(ChaosScenario):
        if field.name not in payload:
            continue
        value = payload[field.name]
        if field.name == "faults":
            value = tuple(_fault_from_dict(entry) for entry in value)
        elif isinstance(value, list):
            value = tuple(tuple(entry) if isinstance(entry, list)
                          else entry for entry in value)
        kwargs[field.name] = value
    return ChaosScenario(**kwargs)


# -- job round-trip (external submissions recorded in the journal) ---------


def job_to_dict(job: Job) -> dict[str, Any]:
    """The scheduling-relevant job fields, JSON-serializable."""
    return {
        "job_id": job.job_id,
        "cluster": job.cluster,
        "job_type": job.job_type.value,
        "submit_time": job.submit_time,
        "duration": job.duration,
        "gpu_demand": job.gpu_demand,
        "cpu_demand": job.cpu_demand,
        "final_status": job.final_status.value,
        "gpu_utilization": job.gpu_utilization,
        # shedding reads metadata (deadlines), so replay needs it too
        "metadata": dict(job.metadata),
    }


def job_from_dict(payload: dict[str, Any]) -> Job:
    return Job(
        job_id=payload["job_id"],
        cluster=payload["cluster"],
        job_type=JobType(payload["job_type"]),
        submit_time=payload["submit_time"],
        duration=payload["duration"],
        gpu_demand=payload["gpu_demand"],
        cpu_demand=payload.get("cpu_demand", 0),
        final_status=FinalStatus(payload.get("final_status",
                                             "completed")),
        gpu_utilization=payload.get("gpu_utilization", 0.0),
        metadata=dict(payload.get("metadata", {})),
    )


# -- StateDict encoding ----------------------------------------------------


def encode_state(payload: dict[str, Any]) -> StateDict:
    """Wrap a snapshot payload as a checkpointable ``StateDict``."""
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return {STATE_KEY: np.frombuffer(blob, dtype=np.uint8).copy()}


def decode_state(state: StateDict) -> dict[str, Any]:
    """Unwrap and validate a persisted snapshot payload."""
    if STATE_KEY not in state:
        raise ServiceStateError(
            f"not a service snapshot: StateDict has keys "
            f"{sorted(state)} (expected {STATE_KEY!r})")
    payload = json.loads(bytes(state[STATE_KEY]).decode("utf-8"))
    version = payload.get("version")
    if version != STATE_VERSION:
        raise ServiceStateError(
            f"unsupported service snapshot version {version!r} "
            f"(this build reads version {STATE_VERSION})")
    return payload
