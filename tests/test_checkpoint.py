"""Tests for async checkpointing (§6.1, design 1)."""

import threading

import numpy as np
import pytest

from repro.cluster.storage import (FlakyStorage, SharedStorage,
                                   StorageError, VirtualClock)
from repro.core.checkpoint import (AsyncCheckpointer, CheckpointCostModel,
                                   CheckpointError, DirectoryStorage,
                                   InMemoryStorage, PersistHealth,
                                   RetryPolicy, SyncCheckpointer)
from repro.training.model import MODEL_7B, MODEL_123B


def state(seed=0, size=2048):
    rng = np.random.default_rng(seed)
    return {"weights": rng.normal(size=size),
            "optimizer": rng.normal(size=size)}


def corrupt_in_place(storage, key, offset=40):
    """Flip one payload byte of a stored blob (breaks the checksum)."""
    blob = storage.read(key)
    storage.write(key, blob[:offset] + bytes([blob[offset] ^ 0xFF])
                  + blob[offset + 1:])


class DeadStorage:
    """A backend that is down for every operation."""

    def write(self, key, blob):
        raise StorageError("backend down")

    def read(self, key):
        raise StorageError("backend down")

    def keys(self):
        raise StorageError("backend down")

    def delete(self, key):
        raise StorageError("backend down")


#: retry policy that never really sleeps — for wall-clock tests
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                         deadline=60.0, jitter=0.0)


class TestSyncCheckpointer:
    def test_round_trip(self):
        ckpt = SyncCheckpointer(InMemoryStorage())
        original = state(1)
        ckpt.save(100, original)
        step, restored = ckpt.load_latest()
        assert step == 100
        assert np.allclose(restored["weights"], original["weights"])

    def test_load_latest_of_many(self):
        ckpt = SyncCheckpointer(InMemoryStorage())
        for step in (10, 30, 20):
            ckpt.save(step, state(step))
        step, _ = ckpt.load_latest()
        assert step == 30

    def test_empty_storage_returns_none(self):
        assert SyncCheckpointer(InMemoryStorage()).load_latest() is None

    def test_blocking_time_includes_persist(self):
        slow = InMemoryStorage(bandwidth=2e6)  # ~16 KB payload -> ~8 ms
        fast = InMemoryStorage()
        t_slow = SyncCheckpointer(slow).save(1, state())
        t_fast = SyncCheckpointer(fast).save(1, state())
        assert t_slow > t_fast


class TestAsyncCheckpointer:
    def test_round_trip_after_flush(self):
        with AsyncCheckpointer(InMemoryStorage()) as ckpt:
            original = state(2)
            ckpt.save(7, original)
            ckpt.flush()
            step, restored = ckpt.load_latest()
            assert step == 7
            assert np.allclose(restored["optimizer"],
                               original["optimizer"])

    def test_save_does_not_block_on_slow_storage(self):
        """The headline §6.1 property: blocking time ~ snapshot only."""
        slow = InMemoryStorage(bandwidth=1e6)
        sync_time = SyncCheckpointer(
            InMemoryStorage(bandwidth=1e6)).save(1, state())
        with AsyncCheckpointer(slow) as ckpt:
            async_time = ckpt.save(1, state())
            assert async_time < sync_time / 2
            ckpt.flush()

    def test_snapshot_isolated_from_later_mutation(self):
        """Training may mutate tensors right after save() returns."""
        storage = InMemoryStorage(bandwidth=5e6)
        with AsyncCheckpointer(storage) as ckpt:
            tensors = state(3)
            ckpt.save(1, tensors)
            tensors["weights"] += 999.0  # mutate before persist completes
            ckpt.flush()
            _, restored = ckpt.load_latest()
            assert restored["weights"].max() < 900.0

    def test_buffer_drops_oldest_when_full(self):
        storage = InMemoryStorage(bandwidth=2e5)  # very slow persist
        with AsyncCheckpointer(storage, buffer_slots=1) as ckpt:
            for step in range(5):
                ckpt.save(step, state(step, size=256))
            ckpt.flush()
            assert ckpt.dropped > 0
            step, _ = ckpt.load_latest()
            assert step == 4  # latest always survives

    def test_sequential_saves_all_persisted_when_buffer_ample(self):
        storage = InMemoryStorage()
        with AsyncCheckpointer(storage, buffer_slots=8) as ckpt:
            for step in range(5):
                ckpt.save(step, state(step, size=64))
            ckpt.flush()
        assert storage.write_count == 5

    def test_invalid_buffer_slots(self):
        with pytest.raises(ValueError):
            AsyncCheckpointer(InMemoryStorage(), buffer_slots=0)

    def test_directory_storage_round_trip(self, tmp_path):
        with AsyncCheckpointer(DirectoryStorage(tmp_path)) as ckpt:
            ckpt.save(42, state(4))
            ckpt.flush()
            step, restored = ckpt.load_latest()
        assert step == 42
        assert np.allclose(restored["weights"], state(4)["weights"])

    def test_directory_storage_no_torn_files(self, tmp_path):
        storage = DirectoryStorage(tmp_path)
        storage.write("ckpt-000000000001", b"payload")
        assert not list(tmp_path.glob("*.tmp"))

    def test_directory_storage_sweeps_stale_tmp_files(self, tmp_path):
        """A crashed writer's leftovers must not accumulate or collide."""
        (tmp_path / "ckpt-000000000007.tmp").write_bytes(b"torn")
        (tmp_path / "ckpt-000000000008.tmp").write_bytes(b"torn")
        storage = DirectoryStorage(tmp_path)
        assert storage.stale_tmp_swept == 2
        assert not list(tmp_path.glob("*.tmp"))
        storage.write("ckpt-000000000007", b"fresh")
        assert storage.read("ckpt-000000000007") == b"fresh"


class TestRetryPipeline:
    def retry(self, **overrides):
        base = dict(max_attempts=5, base_delay=6.0, backoff=2.0,
                    max_delay=60.0, deadline=100.0, jitter=0.0)
        base.update(overrides)
        return RetryPolicy(**base)

    def test_transient_outage_is_retried_through(self):
        clock = VirtualClock()
        flaky = FlakyStorage(InMemoryStorage(), windows=[(0.0, 10.0)],
                             clock=clock)
        ckpt = SyncCheckpointer(flaky, retry=self.retry(), clock=clock)
        ckpt.save(1, state())  # fails at t=0 and t=6, lands at t=18
        assert ckpt.last_result.attempts == 3
        assert ckpt.retries_total == 2
        assert ckpt.health is PersistHealth.DEGRADED
        step, _ = ckpt.load_latest()
        assert step == 1

    def test_deadline_exhaustion_fails_the_save(self):
        clock = VirtualClock()
        flaky = FlakyStorage(InMemoryStorage(), windows=[(0.0, 1000.0)],
                             clock=clock)
        ckpt = SyncCheckpointer(
            flaky, retry=self.retry(base_delay=30.0, deadline=50.0),
            clock=clock)
        with pytest.raises(CheckpointError):
            ckpt.save(1, state())
        assert ckpt.health is PersistHealth.FAILED
        assert ckpt.failed_saves == 1
        assert clock.now() < 100.0  # gave up at the deadline, not after

    def test_health_recovers_on_next_clean_save(self):
        clock = VirtualClock()
        flaky = FlakyStorage(InMemoryStorage(), windows=[(0.0, 10.0)],
                             clock=clock)
        ckpt = SyncCheckpointer(flaky, retry=self.retry(), clock=clock)
        ckpt.save(1, state())
        assert ckpt.health is PersistHealth.DEGRADED
        clock.advance(100.0)
        ckpt.save(2, state())
        assert ckpt.health is PersistHealth.HEALTHY

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=10.0, backoff=1.0,
                             max_delay=10.0, jitter=0.25)
        rng = np.random.default_rng(0)
        delays = [policy.delay(0, rng) for _ in range(64)]
        assert all(7.5 <= d <= 12.5 for d in delays)
        assert max(delays) > min(delays)  # actually jittered


class TestReplication:
    def test_secondary_receives_replica(self):
        primary, secondary = InMemoryStorage(), InMemoryStorage()
        ckpt = SyncCheckpointer(primary, secondary=secondary)
        ckpt.save(5, state())
        assert secondary.keys() == ["ckpt-000000000005"]
        assert ckpt.last_result.replicated is True

    def test_corrupt_primary_rescued_by_replica(self):
        primary, secondary = InMemoryStorage(), InMemoryStorage()
        ckpt = SyncCheckpointer(primary, secondary=secondary)
        ckpt.save(5, state(5))
        corrupt_in_place(primary, "ckpt-000000000005")
        step, restored = ckpt.load_latest()
        assert step == 5
        assert np.allclose(restored["weights"], state(5)["weights"])
        assert ckpt.quarantined == []  # a good copy existed

    def test_replica_write_failure_degrades_not_fails(self):
        ckpt = SyncCheckpointer(InMemoryStorage(),
                                secondary=DeadStorage(),
                                retry=FAST_RETRY)
        ckpt.save(5, state())  # no raise: the primary copy is durable
        assert ckpt.health is PersistHealth.DEGRADED
        assert ckpt.replication_failures == 1
        assert ckpt.last_result.replicated is False


class TestMultiGenerationRestore:
    def test_corrupt_latest_falls_back_and_quarantines(self):
        storage = InMemoryStorage()
        ckpt = SyncCheckpointer(storage)
        for step in (10, 20, 30):
            ckpt.save(step, state(step))
        corrupt_in_place(storage, "ckpt-000000000030")
        step, restored = ckpt.load_latest()
        assert step == 20
        assert np.allclose(restored["weights"], state(20)["weights"])
        assert ckpt.quarantined == [(30, "checksum mismatch")]
        assert ckpt.restore_fallbacks == 1
        # the evidence moved aside, out of the restore path
        assert "quarantine-ckpt-000000000030" in storage.keys()
        assert "ckpt-000000000030" not in storage.keys()

    def test_every_generation_corrupt_returns_none(self):
        storage = InMemoryStorage()
        ckpt = SyncCheckpointer(storage)
        for step in (10, 20):
            ckpt.save(step, state(step))
            corrupt_in_place(storage, f"ckpt-{step:012d}")
        assert ckpt.load_latest() is None
        assert [step for step, _ in ckpt.quarantined] == [20, 10]

    def test_load_at_or_before_filters_newer(self):
        ckpt = SyncCheckpointer(InMemoryStorage())
        for step in (10, 20, 30):
            ckpt.save(step, state(step))
        step, _ = ckpt.load_at_or_before(25)
        assert step == 20

    def test_foreign_keys_are_ignored(self):
        storage = InMemoryStorage()
        ckpt = SyncCheckpointer(storage)
        ckpt.save(10, state())
        storage.write("quarantine-ckpt-000000000099", b"junk")
        storage.write("manifest", b"junk")
        step, _ = ckpt.load_latest()
        assert step == 10

    def test_unreachable_backend_raises_not_none(self):
        """An outage is 'retry later', never 'no checkpoints exist'."""
        ckpt = SyncCheckpointer(DeadStorage(), retry=FAST_RETRY)
        with pytest.raises(StorageError):
            ckpt.load_latest()


class TestAsyncResilience:
    def test_worker_survives_persist_failure(self):
        """A dead backend must not silently kill the drain thread."""
        ckpt = AsyncCheckpointer(DeadStorage(), buffer_slots=4,
                                 retry=FAST_RETRY)
        ckpt.save(1, state(size=64))
        with pytest.raises(CheckpointError):
            ckpt.flush()
        assert ckpt._worker.is_alive()
        ckpt.save(2, state(size=64))  # save still works after a failure
        with pytest.raises(CheckpointError):
            ckpt.flush()
        assert ckpt.failed_steps == [1, 2]
        assert ckpt.health is PersistHealth.FAILED
        ckpt.close()  # already-reported failures don't block shutdown

    def test_flush_without_raise_on_failed(self):
        """A loss no flush reported raises from close()."""
        ckpt = AsyncCheckpointer(DeadStorage(), retry=FAST_RETRY)
        ckpt.save(1, state(size=64))
        with pytest.raises(CheckpointError):
            ckpt.close()  # the unreported loss surfaces here
        assert ckpt.failed_steps == [1]
        assert not ckpt._worker.is_alive()  # ... but shutdown completed

    def test_close_raises_on_leaked_worker(self):
        """close() must not return cleanly while the thread lives on."""
        release = threading.Event()
        inner = InMemoryStorage()

        class Stuck:
            def write(self, key, blob):
                release.wait(timeout=30.0)
                inner.write(key, blob)

            read, keys, delete = inner.read, inner.keys, inner.delete

        ckpt = AsyncCheckpointer(Stuck(), buffer_slots=2)
        ckpt.save(1, state(size=64))
        ckpt.flush = lambda *args, **kwargs: None  # shortcut to close
        with pytest.raises(CheckpointError, match="did not terminate"):
            ckpt.close(join_timeout=0.2)
        release.set()  # unstick so the thread exits during teardown
        ckpt._worker.join(timeout=10.0)


class TestCostModel:
    def model(self):
        # Kalos-style: 25 GB/s storage HCA per node, 800 GB/s backend.
        storage = SharedStorage(backend_bandwidth=800e9,
                                node_nic_bandwidth=25e9)
        return CheckpointCostModel(storage)

    def test_async_blocking_is_snapshot_only(self):
        cost = self.model().cost(MODEL_7B, world_size=8)
        assert cost.async_blocking == cost.snapshot
        assert cost.sync_blocking > cost.async_blocking

    def test_reduction_grows_with_scale(self):
        """§6.1: 3.6x (7B) to 58.7x (123B) blocking-time reduction."""
        small = self.model().cost(MODEL_7B, world_size=8)
        large = self.model().cost(MODEL_123B, world_size=2048)
        assert large.reduction > small.reduction
        assert 3.0 < small.reduction < 15.0
        assert 30.0 < large.reduction < 120.0

    def test_overhead_fraction_at_30min_interval(self):
        cost = self.model().cost(MODEL_123B, world_size=2048)
        sync = cost.overhead_fraction(1800.0, asynchronous=False)
        asynchronous = cost.overhead_fraction(1800.0, asynchronous=True)
        assert asynchronous < sync
        assert asynchronous < 0.001

    def test_world_size_must_align_to_nodes(self):
        with pytest.raises(ValueError):
            self.model().cost(MODEL_7B, world_size=12)
