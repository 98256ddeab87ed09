"""Tests for the streaming simulation service (``repro.service``).

Pins the two equivalence properties the service's determinism story
rests on, over a chaos-storm scenario, on the production code ("fast")
and with the oracles in ``tests/oracles/`` swapped in ("reference"):

(a) N incremental ``advance`` horizons are byte-identical to one batch
    run to the same horizon, streams included;
(b) snapshot -> restore -> advance is byte-identical to the
    uninterrupted run.

Plus the persist-pipeline integration: retries on flaky storage,
quarantine + generation fallback on corruption, and hard failures
surfacing as the checkpoint pipeline's own exceptions.
"""

import pytest

from repro.chaos import BUNDLED_SCENARIOS
from repro.cluster.storage import FlakyStorage, StorageError
from repro.core.checkpoint import (CheckpointError, InMemoryStorage,
                                   RetryPolicy)
from repro.scheduler.job import Job, JobType
from repro.service import ClusterService, ServiceStateError
from repro.service.state import scenario_from_dict, scenario_to_dict
from repro.workload.streams import (EvalBurstConfig, EvalBurstStream,
                                    PoissonJobStream,
                                    PoissonStreamConfig)

from .oracles import substitute

STORM = "storage-storm"


def make_streams():
    return [
        PoissonJobStream(PoissonStreamConfig(
            name="sft", seed=11, rate_per_hour=40.0,
            gpu_choices=(1, 2, 4))),
        EvalBurstStream(EvalBurstConfig(
            name="evals", seed=22, bursts_per_hour=3.0, batch_size=4)),
    ]


def make_service(scenario_name=STORM, storage=None, retry=None):
    return ClusterService(BUNDLED_SCENARIOS[scenario_name],
                          streams=make_streams(), storage=storage,
                          retry=retry)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("oracles", [False, True],
                             ids=["fast", "reference"])
    def test_horizons_equal_batch_with_streams(self, oracles,
                                               monkeypatch):
        if oracles:
            substitute(monkeypatch)
        duration = BUNDLED_SCENARIOS[STORM].duration
        batch = make_service()
        batch_gauges = batch.advance(duration)
        split = make_service()
        for part in range(1, 6):
            split_gauges = split.advance(
                duration if part == 5 else duration * part / 5)
        assert split_gauges == batch_gauges
        assert split.event_log_text() == batch.event_log_text()
        assert (split.finish().summary.to_json()
                == batch.finish().summary.to_json())

    def test_gauges_track_live_state(self):
        service = make_service("smoke")
        duration = service.scenario.duration
        gauges = service.advance(duration / 3)
        assert gauges.now == duration / 3
        assert gauges.jobs_submitted > 0
        assert gauges.pending_events > 0
        assert gauges.gpus_busy >= 0
        assert gauges.jobs_finished <= gauges.jobs_submitted
        assert gauges.pretrain_iteration > 0
        later = service.advance(duration)
        assert later.jobs_submitted > gauges.jobs_submitted
        assert later.fault_backlog <= gauges.fault_backlog


class TestSnapshotRestore:
    @pytest.mark.parametrize("oracles", [False, True],
                             ids=["fast", "reference"])
    def test_restore_then_advance_equals_uninterrupted(self, oracles,
                                                       monkeypatch):
        calls = substitute(monkeypatch) if oracles else None
        duration = BUNDLED_SCENARIOS[STORM].duration
        service = make_service()
        service.advance(duration / 2)
        service.checkpoint()
        restored = ClusterService.restore(service._storage)
        assert restored.gauges() == service.gauges()
        ahead = service.advance(duration)
        behind = restored.advance(duration)
        assert ahead == behind
        assert service.event_log_text() == restored.event_log_text()
        if calls is not None:
            # gauges and the snapshot read the full-text digest oracle
            assert calls["RollingDigest.hexdigest"] > 0

    def test_external_submissions_survive_restore(self):
        service = make_service("smoke")
        duration = service.scenario.duration
        service.advance(duration / 4)
        service.submit(Job(job_id="manual-0", cluster="service",
                           job_type=JobType.DEBUG,
                           submit_time=service.engine.now,
                           duration=120.0, gpu_demand=2))
        service.advance(duration / 2)
        service.checkpoint()
        restored = ClusterService.restore(service._storage)
        assert restored.jobs_submitted == service.jobs_submitted
        assert (restored.advance(duration)
                == service.advance(duration))

    def test_generation_numbering_continues_after_restore(self):
        service = make_service("smoke")
        service.advance(1000.0)
        assert service.checkpoint() == 0
        service.advance(2000.0)
        assert service.checkpoint() == 1
        restored = ClusterService.restore(service._storage)
        restored.advance(3000.0)
        assert restored.checkpoint() == 2

    def test_rejected_backwards_advance_keeps_restore_working(self):
        from repro.sim.engine import SimulationError
        service = make_service("smoke")
        service.advance(3600.0)
        journal = [list(entry) for entry in service._journal]
        with pytest.raises(SimulationError):
            service.advance(1800.0)
        assert service._journal == journal
        service.checkpoint()
        restored = ClusterService.restore(service._storage)
        assert restored.gauges() == service.gauges()

    def test_restore_from_empty_storage_raises(self):
        with pytest.raises(ServiceStateError):
            ClusterService.restore(InMemoryStorage())

    def test_tampered_snapshot_fails_digest_verification(self):
        import json

        import numpy as np

        from repro.core.checkpoint import _deserialize, _serialize
        from repro.service.state import STATE_KEY
        from repro.sim.engine import SimulationError
        service = make_service("smoke")
        service.advance(2000.0)
        service.checkpoint()
        # rewrite the snapshot with a journal missing its last op:
        # the replay is self-consistent but diverges from the digests
        key = sorted(service._storage._blobs)[0]
        step, state = _deserialize(service._storage._blobs[key])
        payload = json.loads(bytes(state[STATE_KEY]).decode())
        payload["journal"] = payload["journal"][:-1]
        blob = json.dumps(payload, sort_keys=True).encode()
        tampered = {STATE_KEY: np.frombuffer(blob, dtype=np.uint8)}
        service._storage._blobs[key] = _serialize(step, tampered)
        with pytest.raises((ServiceStateError, SimulationError)):
            ClusterService.restore(service._storage)


class TestPersistPipelineIntegration:
    def test_flaky_storage_retries_and_stalls_virtually(self):
        inner = InMemoryStorage()
        flaky = FlakyStorage(inner, fail_rate=0.5, seed=7)
        service = make_service("smoke", storage=flaky,
                               retry=RetryPolicy(max_attempts=8,
                                                 deadline=600.0,
                                                 jitter=0.0))
        service.advance(1500.0)
        before = service.engine.now
        service.checkpoint()
        # retries burned virtual time, never the engine clock
        assert service.engine.now == before
        assert service._checkpointer.retries_total >= 0
        restored = ClusterService.restore(
            flaky, retry=RetryPolicy(max_attempts=8, deadline=600.0,
                                     jitter=0.0))
        assert restored.gauges() == service.gauges()

    def test_dead_storage_raises_checkpoint_error(self):
        inner = InMemoryStorage()
        dead = FlakyStorage(inner, fail_rate=1.0, seed=7)
        service = make_service("smoke", storage=dead,
                               retry=RetryPolicy(max_attempts=2,
                                                 deadline=30.0,
                                                 jitter=0.0))
        service.advance(1500.0)
        with pytest.raises(CheckpointError):
            service.checkpoint()
        # the service itself is unharmed and keeps advancing
        gauges = service.advance(3000.0)
        assert gauges.now == 3000.0
        with pytest.raises(StorageError):
            ClusterService.restore(
                dead, retry=RetryPolicy(max_attempts=2, deadline=30.0,
                                        jitter=0.0))

    def test_corrupt_generation_falls_back_to_older(self):
        storage = InMemoryStorage()
        service = make_service("smoke", storage=storage)
        service.advance(1500.0)
        service.checkpoint()          # generation 0
        mid_gauges = service.gauges()
        service.advance(3000.0)
        service.checkpoint()          # generation 1
        newest = sorted(storage._blobs)[-1]
        blob = bytearray(storage._blobs[newest])
        blob[-1] ^= 0xFF              # silent bit rot in generation 1
        storage._blobs[newest] = bytes(blob)
        restored = ClusterService.restore(storage)
        # the walk quarantined generation 1 and replayed generation 0
        assert restored.gauges() == mid_gauges


class _SkippingStream:
    """Stub stream whose first emission is empty (regression: the
    service must re-chain from the stream's anchor clock instead of
    crashing on ``max()`` over zero arrivals)."""

    kind = "poisson"  # piggyback for to_config_dict round-trip shape

    def __init__(self):
        self.config = PoissonStreamConfig(
            name="skipper", rate_per_hour=60.0, gpu_choices=(2,))
        self.calls = 0
        self._time = 0.0

    def emit_next(self):
        self.calls += 1
        self._time += 120.0
        if self.calls == 1:
            return []
        job = Job(job_id=f"skip-{self.calls:04d}", cluster="service",
                  job_type=JobType.DEBUG, submit_time=self._time,
                  duration=60.0, gpu_demand=2)
        return [(self._time, job)]

    def max_gpu_demand(self):
        return 2

    def anchor_time(self):
        return self._time

    def to_config_dict(self):
        from dataclasses import asdict

        return {"kind": self.kind, **asdict(self.config)}


class TestStreams:
    def test_streams_are_pure_functions_of_config(self):
        first = make_streams()[0]
        second = make_streams()[0]
        for _ in range(50):
            [(t1, j1)] = first.emit_next()
            [(t2, j2)] = second.emit_next()
            assert t1 == t2
            assert j1.job_id == j2.job_id
            assert j1.duration == j2.duration
            assert j1.gpu_demand == j2.gpu_demand

    def test_burst_stream_emits_batches(self):
        stream = EvalBurstStream(EvalBurstConfig(
            name="e", seed=3, bursts_per_hour=6.0, batch_size=5))
        arrivals = stream.emit_next()
        assert len(arrivals) == 5
        anchor = min(time for time, _ in arrivals)
        assert all(anchor <= time <= anchor + 2.0
                   for time, _ in arrivals)
        assert all(job.job_type is JobType.EVALUATION
                   for _, job in arrivals)

    def test_oversized_stream_demand_rejected(self):
        service = ClusterService(BUNDLED_SCENARIOS["smoke"])
        total = service.scheduler.config.total_gpus
        with pytest.raises(ValueError):
            service.attach_stream(PoissonJobStream(PoissonStreamConfig(
                name="huge", gpu_choices=(total + 1,))))

    def test_empty_emission_rechains_instead_of_crashing(self):
        service = ClusterService(BUNDLED_SCENARIOS["smoke"])
        stream = _SkippingStream()
        service.attach_stream(stream)
        service.advance(600.0)
        # the empty first emission advanced the anchor; the service
        # re-chained from it and later emissions flowed normally
        assert stream.calls >= 3
        assert service.jobs_submitted >= 2

    def test_max_gpu_demand_protocol_sizes_the_check(self):
        # the admission check reads the stream's protocol method, not
        # its config shape: EvalBurstConfig has no gpu_choices at all
        service = ClusterService(BUNDLED_SCENARIOS["smoke"])
        total = service.scheduler.config.total_gpus
        assert EvalBurstStream(EvalBurstConfig(
            name="e", gpu_demand=total)).max_gpu_demand() == total
        with pytest.raises(ValueError):
            service.attach_stream(EvalBurstStream(EvalBurstConfig(
                name="e2", gpu_demand=total + 1)))

    def test_scenario_round_trips_through_snapshot_dict(self):
        scenario = BUNDLED_SCENARIOS[STORM]
        assert scenario_from_dict(
            scenario_to_dict(scenario)) == scenario
