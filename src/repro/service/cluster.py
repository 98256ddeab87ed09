"""A long-lived cluster simulation under streaming load.

Everything else in the repository is batch-shaped: build a scenario,
run to the horizon, report.  :class:`ClusterService` wraps one
persistent :class:`~repro.sim.engine.Engine` + scheduler + chaos/
recovery stack (a :class:`~repro.chaos.harness.ChaosHarness`) and
operates it the way the paper's cluster is operated — continuously:

* **streaming submissions** — seeded open-ended arrival processes
  (:mod:`repro.workload.streams`) feed jobs and eval-trial bursts into
  the live scheduler, one engine event per arrival, forever;
* **incremental horizons** — :meth:`advance` runs the engine to a
  deadline and returns live gauges (queue depth, GPUs busy, pending
  events, fault backlog) without tearing anything down;
* **self-checkpointing** — :meth:`checkpoint` routes a snapshot of the
  service's own state through the existing ``core/checkpoint.py``
  persist pipeline, so simulator snapshots get the same retry /
  replication / quarantine semantics as training state, and
  :meth:`restore` rebuilds a byte-identical service from storage.

Determinism: every mutating entry point (attach / submit / advance) is
journaled, and all stream randomness lives in registered RNG streams,
so replaying the journal against a fresh service reconstructs the
exact engine heap — which :meth:`~repro.sim.engine.Engine.restore`
then verifies structurally before the service resumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.chaos.harness import ChaosHarness, ChaosResult, event_log_line
from repro.chaos.scenario import ChaosScenario
from repro.core.checkpoint import (InMemoryStorage, RetryPolicy,
                                   SyncCheckpointer)
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.scheduler.job import Job
from repro.service.admission import (RESERVED_TYPES, AdmissionPolicy,
                                     AdmissionView, OverloadConfig,
                                     OverloadState, policy_from_config)
from repro.service.state import (STATE_VERSION, RollingDigest,
                                 ServiceStateError, decode_state,
                                 encode_state, job_from_dict,
                                 job_to_dict, scenario_from_dict,
                                 scenario_to_dict, text_digest)
from repro.sim.engine import EngineSnapshot
from repro.workload.streams import ArrivalStream, stream_from_config


class _VirtualClock:
    """Offset-accumulating clock for the persist pipeline.

    ``sleep`` (retry backoff) only grows a virtual offset — the
    single-threaded service never blocks the wall clock, mirroring the
    chaos harness's engine clock.  The service resets the offset
    around each persist/restore and charges it to
    :attr:`ClusterService.persist_stall_seconds`.
    """

    def __init__(self, base: Any = None) -> None:
        self._base = base
        self.offset = 0.0

    def now(self) -> float:
        base = 0.0 if self._base is None else self._base.now
        return base + self.offset

    def sleep(self, seconds: float) -> None:
        self.offset += seconds


def admission_log_line(entry: tuple[float, str, str]) -> str:
    """One admission-log entry as a stable text line."""
    time, kind, detail = entry
    return f"{time:12.3f}  {kind:<8} {detail}"


@dataclass(frozen=True)
class ServiceGauges:
    """Live operating gauges, sampled between horizons."""

    now: float
    queue_depth: int
    gpus_busy: int
    pending_events: int
    #: injected faults whose time is still ahead of the clock
    fault_backlog: int
    jobs_submitted: int
    jobs_finished: int
    pretrain_iteration: int
    events_processed: int
    engine_digest: str
    scheduler_digest: str
    #: overload state machine position (``healthy`` when disarmed)
    overload_state: str
    jobs_rejected: int
    jobs_shed: int
    chains_deferred: int
    #: highest queue depth seen so far (tracked while overload armed)
    queue_depth_peak: int
    #: crc32 of the admission decision log (empty log = crc of "")
    admission_digest: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class ClusterService:
    """The streaming simulation service (see module docstring)."""

    def __init__(self, scenario: ChaosScenario,
                 streams: tuple[ArrivalStream, ...] | list[ArrivalStream]
                 = (),
                 storage: Any = None,
                 retry: RetryPolicy | None = None,
                 tracer: TracerLike | None = None,
                 admission: AdmissionPolicy | None = None,
                 overload: OverloadConfig | None = None) -> None:
        self.scenario = scenario
        self.tracer = tracer or NULL_TRACER
        self.harness = ChaosHarness(scenario, tracer=tracer)
        self.engine = self.harness.engine
        self.scheduler = self.harness.scheduler
        #: every mutating op since construction, in order, with each
        #: run of back-to-back advances kept as one entry for its last
        #: horizon — replaying it against a fresh service reconstructs
        #: this one exactly
        self._journal: list[list[Any]] = []
        self._streams: list[ArrivalStream] = []
        self.jobs_submitted = 0
        self.persist_stall_seconds = 0.0
        self._storage = (InMemoryStorage() if storage is None
                         else storage)
        self._clock = _VirtualClock(self.engine)
        self._checkpointer = SyncCheckpointer(
            self._storage, retry=retry or RetryPolicy(),
            clock=self._clock, tracer=self.tracer)
        self._next_generation = 0
        # -- overload machinery (strict no-op when disarmed: goldens
        # with admission disabled stay byte-identical) --
        self.admission = admission
        self.overload = overload
        self._armed = admission is not None or overload is not None
        self.overload_state = OverloadState.HEALTHY
        self.jobs_rejected = 0
        self.jobs_shed = 0
        self.chains_deferred = 0
        self.queue_depth_peak = 0
        #: every admit / reject / shed / state decision, in order —
        #: replayed byte-identically by the journal (digest-verified)
        self.admission_log: list[tuple[float, str, str]] = []
        # both log digests fold in only what was appended since their
        # last read, so gauges and checkpoints do not grow with age
        self._admission_digest = RollingDigest(self.admission_log,
                                               admission_log_line)
        self._event_log_digest = RollingDigest(self.harness.event_log,
                                               event_log_line)
        #: best-effort jobs this service admitted and still queued:
        #: job_id -> (source, time it (re-)entered the queue)
        self._queued: dict[str, tuple[str, float]] = {}
        #: admitted job -> arrival source, kept until the job leaves
        #: the scheduler (preempted jobs re-queue under their source)
        self._origin: dict[str, str] = {}
        self._source_depth: dict[str, int] = {}
        self._shed_span: Any = None
        self._saturated_since: float | None = None
        if self._armed:
            self.scheduler.hooks.append(self._on_scheduler_event)
            bound = (admission.depth_bound()
                     if admission is not None else None)
            self.harness.checker.set_admission_context(
                RESERVED_TYPES,
                lambda: len(self._queued), bound)
        self.harness.start()
        if overload is not None:
            self.engine.call_after(overload.sweep_interval_s,
                                   self._shed_sweep)
        for stream in streams:
            self.attach_stream(stream)

    @property
    def storage(self) -> Any:
        """The checkpoint storage backend this service persists to."""
        return self._storage

    # -- streaming submissions --------------------------------------------

    def attach_stream(self, stream: ArrivalStream) -> None:
        """Attach an open-ended arrival process (journaled).

        The stream's first arrival is scheduled immediately; each
        arrival event chains the next one, so the stream generates
        exactly as far as the run advances — never a whole trace.
        """
        demands = stream.max_gpu_demand()
        if demands > self.scheduler.config.total_gpus:
            raise ValueError(
                f"stream {stream.config.name!r} can demand {demands} "
                f"GPUs but the cluster has "
                f"{self.scheduler.config.total_gpus}")
        self._journal.append(["attach", stream.to_config_dict()])
        self._streams.append(stream)
        self._chain(stream)

    def _chain(self, stream: ArrivalStream) -> None:
        arrivals = stream.emit_next()
        if not arrivals:
            # an empty emission still advanced the stream's anchor
            # clock; re-chain from there instead of crashing on
            # max() over an empty range
            self.engine.call_at(
                max(stream.anchor_time(), self.engine.now),
                lambda s=stream: self._chain(s))
            return
        chain_index = max(range(len(arrivals)),
                          key=lambda i: arrivals[i][0])
        for index, (time, job) in enumerate(arrivals):
            # an arrival nominally due before the clock (burst jitter
            # overlapping the next anchor) fires now — deterministic,
            # since the chain structure never depends on horizons
            self.engine.call_at(
                max(time, self.engine.now),
                lambda j=job, s=stream, tail=(index == chain_index):
                    self._on_arrival(j, s, tail))

    def _on_arrival(self, job: Job, stream: ArrivalStream,
                    tail: bool) -> None:
        self._submit_now(job, source=stream.config.name)
        if tail:
            self._maybe_chain(stream)

    def _maybe_chain(self, stream: ArrivalStream) -> None:
        """Chain the stream's next emission, unless backpressured.

        At SATURATED and above the chain parks for ``defer_seconds``
        and re-checks — no new arrivals materialize while the queue
        sits past the saturation watermark, which is the service
        pushing back on its sources rather than buffering without
        bound.
        """
        if (self.overload is not None
                and self.overload_state >= OverloadState.SATURATED):
            self.chains_deferred += 1
            self.tracer.count("service.chain_deferred")
            self._admission_record(
                "defer", f"stream={stream.config.name} "
                         f"state={self.overload_state.label}")
            self.engine.call_after(
                self.overload.defer_seconds,
                lambda s=stream: self._maybe_chain(s))
            return
        self._chain(stream)

    def _submit_now(self, job: Job, source: str = "external") -> None:
        if self.admission is not None and job.gpu_demand > 0:
            if job.job_type in RESERVED_TYPES:
                # the reserved bypass: no policy is consulted, so no
                # policy can ever turn reserved work away (invariant 15)
                self.harness.checker.record_admission(
                    self.engine.now, job, True)
                self._admission_record(
                    "admit", f"{job.job_id} source={source} "
                             f"(reserved bypass)")
            else:
                decision = self.admission.decide(
                    job, source, self._admission_view())
                self.harness.checker.record_admission(
                    self.engine.now, job, decision.admitted)
                if not decision.admitted:
                    self.jobs_rejected += 1
                    self.tracer.count("service.rejected")
                    self._admission_record(
                        "reject", f"{job.job_id} source={source} "
                                  f"({decision.reason})")
                    return
                self.tracer.count("service.admitted")
                self._admission_record(
                    "admit", f"{job.job_id} source={source}")
        if (self._armed and job.gpu_demand > 0
                and job.job_type not in RESERVED_TYPES):
            self._origin[job.job_id] = source
            self._queued[job.job_id] = (source, self.engine.now)
            self._source_depth[source] = (
                self._source_depth.get(source, 0) + 1)
        self.scheduler.submit(job, at=self.engine.now)
        self.jobs_submitted += 1
        if self._armed:
            self._update_overload()

    def submit(self, job: Job) -> None:
        """Submit one externally supplied job (journaled).

        Goes through the same admission gate as stream arrivals, under
        the source name ``"external"``.
        """
        self._journal.append(["submit", job_to_dict(job)])
        self._submit_now(job)

    # -- overload machinery -------------------------------------------------

    def _admission_record(self, kind: str, detail: str) -> None:
        self.admission_log.append((self.engine.now, kind, detail))

    def _admission_view(self) -> AdmissionView:
        return AdmissionView(
            now=self.engine.now,
            queue_depth=len(self.scheduler.queue),
            best_effort_depth=len(self._queued),
            source_depths=dict(self._source_depth),
            overload=self.overload_state)

    def _on_scheduler_event(self, kind: str, job: Job) -> None:
        """Keep the best-effort queue tracker in sync (hook)."""
        if kind in ("start", "shed"):
            entry = self._queued.pop(job.job_id, None)
            if entry is not None:
                self._source_depth[entry[0]] -= 1
        elif kind == "preempt":
            source = self._origin.get(job.job_id)
            if source is not None:
                self._queued[job.job_id] = (source, self.engine.now)
                self._source_depth[source] = (
                    self._source_depth.get(source, 0) + 1)
        elif kind in ("finish", "fail"):
            self._origin.pop(job.job_id, None)
        if kind in ("start", "preempt", "shed"):
            self._update_overload()

    def _update_overload(self) -> None:
        depth = len(self.scheduler.queue)
        self.queue_depth_peak = max(self.queue_depth_peak, depth)
        if self.overload is None:
            return
        self._transition(
            self.overload.resolve(self.overload_state, depth), depth)

    def _transition(self, state: OverloadState, depth: int) -> None:
        if state is self.overload_state:
            return
        previous = self.overload_state
        self.overload_state = state
        if state >= OverloadState.SATURATED:
            if previous < OverloadState.SATURATED:
                self._saturated_since = self.engine.now
        else:
            self._saturated_since = None
        self._admission_record(
            "state", f"{previous.label}->{state.label} depth={depth}")
        self.tracer.set_gauge("service.overload_level", int(state))
        self.tracer.count(f"service.overload.{state.label}")
        if state is OverloadState.SHEDDING and self._shed_span is None:
            self._shed_span = self.tracer.begin(
                "overload:shedding", "service", depth=depth)
        elif (state is not OverloadState.SHEDDING
                and self._shed_span is not None):
            self.tracer.end(self._shed_span, depth=depth)
            self._shed_span = None

    def _shed_sweep(self) -> None:
        """Periodic reaper: expired deadlines always, age while
        SHEDDING — never reserved-class work (invariant 15)."""
        overload = self.overload
        assert overload is not None
        now = self.engine.now
        if (self.overload_state is OverloadState.SATURATED
                and self._saturated_since is not None
                and now - self._saturated_since
                >= overload.escalate_after_s):
            # backpressure is holding the depth below the shedding
            # watermark, but the queue has been saturated continuously
            # for the escalation interval: parked work is going stale
            self._transition(OverloadState.SHEDDING,
                             len(self.scheduler.queue))
        victims: list[tuple[Job, str, float]] = []
        for job in self.scheduler.queue:
            if job.job_type in RESERVED_TYPES:
                continue
            entry = self._queued.get(job.job_id)
            queued_at = (entry[1] if entry is not None
                         else job.submit_time)
            deadline = job.metadata.get("deadline")
            if deadline is not None and now > float(deadline):
                victims.append((job, "deadline", now - queued_at))
            elif (self.overload_state is OverloadState.SHEDDING
                    and now - queued_at > overload.shed_max_age_s):
                victims.append((job, "age", now - queued_at))
        for job, why, age in victims:
            self._shed(job, why, age)
        if victims:
            self._update_overload()
        self.engine.call_after(overload.sweep_interval_s,
                               self._shed_sweep)

    def _shed(self, job: Job, why: str, age: float) -> None:
        self.scheduler.shed_job(job.job_id, reason=f"shed:{why}")
        self.jobs_shed += 1
        self.tracer.count("service.shed")
        self.harness.checker.record_shed(self.engine.now, job)
        self._admission_record(
            "shed", f"{job.job_id} {why} age={age:.0f}s")

    def admission_log_text(self) -> str:
        """The admission decision log so far, as stable text lines."""
        return "\n".join(map(admission_log_line, self.admission_log))

    # -- incremental operation --------------------------------------------

    def advance(self, until: float) -> ServiceGauges:
        """Run to simulated time ``until``; returns live gauges.

        Journaled.  Horizons are cumulative: any partitioning of a run
        into ``advance`` calls is event-for-event identical to one
        batch run to the final horizon, so back-to-back advances share
        one journal entry holding the latest horizon.
        """
        self._advance(float(until))
        return self.gauges()

    def _advance(self, until: float) -> None:
        # reject a bad horizon before it can reach the journal, where
        # it would overwrite the live entry and break every restore
        self.harness.check_horizon(until)
        if self._journal and self._journal[-1][0] == "advance":
            self._journal.pop()
        self._journal.append(["advance", until])
        self.harness.advance(until)

    def gauges(self) -> ServiceGauges:
        """Sample the live operating gauges (pure read)."""
        return ServiceGauges(
            now=self.engine.now,
            queue_depth=len(self.scheduler.queue),
            gpus_busy=self.scheduler.gpus_allocated,
            pending_events=self.engine.pending,
            fault_backlog=sum(1 for fault in self.harness.faults
                              if fault.time > self.engine.now),
            jobs_submitted=self.jobs_submitted,
            jobs_finished=len(self.scheduler.finished),
            pretrain_iteration=self.harness.pretrain.iteration,
            events_processed=self.engine.events_processed,
            engine_digest=self.engine.snapshot().digest(),
            scheduler_digest=self.scheduler.state_digest(),
            overload_state=self.overload_state.label,
            jobs_rejected=self.jobs_rejected,
            jobs_shed=self.jobs_shed,
            chains_deferred=self.chains_deferred,
            queue_depth_peak=self.queue_depth_peak,
            admission_digest=self._admission_digest.hexdigest(),
        )

    def finish(self) -> ChaosResult:
        """Tear down and summarize; no further advances accepted."""
        return self.harness.finish()

    def event_log_text(self) -> str:
        """The harness event log so far, as stable text lines."""
        return "\n".join(map(event_log_line, self.harness.event_log))

    # -- checkpoint / restore ---------------------------------------------

    def checkpoint(self) -> int:
        """Persist a restorable snapshot; returns its generation.

        Routed through :class:`SyncCheckpointer`, so flaky storage is
        retried under the policy and an exhausted budget raises
        :class:`~repro.core.checkpoint.CheckpointError` — the service
        itself stays consistent and can keep advancing either way.
        """
        generation = self._next_generation
        self._clock.offset = 0.0
        try:
            self._checkpointer.save(generation,
                                    encode_state(self._state_payload()))
        finally:
            self.persist_stall_seconds += self._clock.offset
            self._clock.offset = 0.0
        self._next_generation = generation + 1
        return generation

    def _state_payload(self) -> dict[str, Any]:
        snapshot = self.engine.snapshot()
        return {
            "version": STATE_VERSION,
            "scenario": scenario_to_dict(self.scenario),
            "journal": self._journal,
            "engine": {
                "now": snapshot.now,
                "next_seq": snapshot.next_seq,
                "events_processed": snapshot.events_processed,
                "heap": [list(entry) for entry in snapshot.heap],
                "digest": snapshot.digest(),
            },
            "scheduler_digest": self.scheduler.state_digest(),
            "event_log_digest": self._event_log_digest.hexdigest(),
            "admission": (self.admission.to_config_dict()
                          if self.admission is not None else None),
            "overload": (self.overload.to_config_dict()
                         if self.overload is not None else None),
            "admission_log_digest": self._admission_digest.hexdigest(),
        }

    @classmethod
    def restore(cls, storage: Any, *,
                at_or_before: int | None = None,
                retry: RetryPolicy | None = None,
                tracer: TracerLike | None = None) -> "ClusterService":
        """Rebuild a service from its newest persisted snapshot.

        Walks generations through ``load_at_or_before`` (corrupt ones
        are quarantined, older generations are fallen back to), then
        replays the journal against a fresh service and verifies the
        engine heap, scheduler digest, and both log digests all match
        what the snapshot recorded.  The log digests are recomputed
        from the full text here, independently of the rolling ones the
        snapshot was written with.  Raises
        :class:`~repro.core.checkpoint.StorageError` when storage is
        unreachable and :class:`ServiceStateError` when nothing
        readable exists or the replay diverges.
        """
        probe = SyncCheckpointer(storage,
                                 retry=retry or RetryPolicy(),
                                 clock=_VirtualClock(), tracer=tracer)
        loaded = probe.load_at_or_before(at_or_before)
        if loaded is None:
            raise ServiceStateError(
                "no readable service snapshot in storage")
        generation, state = loaded
        payload = decode_state(state)
        admission = payload.get("admission")
        overload = payload.get("overload")
        service = cls(
            scenario_from_dict(payload["scenario"]),
            storage=storage, retry=retry, tracer=tracer,
            admission=(policy_from_config(admission)
                       if admission is not None else None),
            overload=(OverloadConfig.from_config_dict(overload)
                      if overload is not None else None))
        service._replay(payload["journal"])
        service._verify(payload)
        service._next_generation = generation + 1
        return service

    def _replay(self, journal: list[list[Any]]) -> None:
        for entry in journal:
            op, arg = entry
            if op == "attach":
                self.attach_stream(stream_from_config(arg))
            elif op == "submit":
                self.submit(job_from_dict(arg))
            elif op == "advance":
                self._advance(float(arg))
            else:
                raise ServiceStateError(
                    f"unknown journal op {op!r}")

    def _verify(self, payload: dict[str, Any]) -> None:
        recorded = payload["engine"]
        snapshot = EngineSnapshot(
            now=recorded["now"], next_seq=recorded["next_seq"],
            events_processed=recorded["events_processed"],
            heap=tuple((float(time), int(seq), bool(cancelled))
                       for time, seq, cancelled in recorded["heap"]))
        # structural heap verification + clock/seq fast-forward;
        # raises SimulationError if the replay diverged
        self.engine.restore(snapshot)
        if snapshot.digest() != recorded["digest"]:
            raise ServiceStateError(
                f"engine digest mismatch after replay: "
                f"{snapshot.digest()} != {recorded['digest']}")
        scheduler_digest = self.scheduler.state_digest()
        if scheduler_digest != payload["scheduler_digest"]:
            raise ServiceStateError(
                f"scheduler state diverged after replay: "
                f"{scheduler_digest} != {payload['scheduler_digest']}")
        log_digest = text_digest(self.event_log_text())
        if log_digest != payload["event_log_digest"]:
            raise ServiceStateError(
                f"event log diverged after replay: "
                f"{log_digest} != {payload['event_log_digest']}")
        admission_digest = text_digest(self.admission_log_text())
        if admission_digest != payload["admission_log_digest"]:
            raise ServiceStateError(
                f"admission log diverged after replay: "
                f"{admission_digest} != "
                f"{payload['admission_log_digest']}")
