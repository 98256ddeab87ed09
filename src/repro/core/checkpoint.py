"""Asynchronous checkpointing (§6.1, design 1).

LLMs produce TB-scale model states; saving them synchronously can slow
training by tens of percent.  The paper's strategy: snapshot the state into
spare host memory (fast, blocks training briefly) and persist to remote
storage from a background thread (slow, off the critical path).

Two layers are provided:

* **Executable checkpointers** (:class:`SyncCheckpointer`,
  :class:`AsyncCheckpointer`) — real implementations over numpy state
  dicts and pluggable storage backends, with checksummed integrity and a
  bounded in-memory buffer.  These are what the tests and the checkpoint
  benchmark drive.
* **Analytic cost model** (:class:`CheckpointCostModel`) — blocking-time
  arithmetic at datacenter scale, reproducing the paper's 3.6–58.7x
  blocking-overhead reduction between 7B and 123B configurations.

The persist path is **storage-fault tolerant** (Table 3 lists
network-storage outages among the recurring Kalos failure classes):

* every write/read runs under a :class:`RetryPolicy` — exponential
  backoff with jitter, bounded attempts, and a deadline;
* an optional *secondary* backend receives replicas and serves reads
  when the primary copy is missing or corrupt;
* restore is **multi-generation**: a generation that fails its checksum
  (or cannot be read) is quarantined and the previous one is loaded;
* the pipeline exposes a :class:`PersistHealth` state
  (HEALTHY / DEGRADED / FAILED) instead of dying silently, so a
  recovery controller can react to a sick storage path.
"""

from __future__ import annotations

import hashlib
import pickle
import queue
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster.storage import (MonotonicClock, SharedStorage,
                                   StorageError)
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.training.model import TransformerConfig

StateDict = dict[str, np.ndarray]


class CheckpointError(RuntimeError):
    """Raised on checkpoint corruption or persist failures."""
    pass


def _serialize(step: int, state: StateDict) -> bytes:
    payload = pickle.dumps({"step": step, "state": state},
                           protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    return digest + payload


def _deserialize(blob: bytes) -> tuple[int, StateDict]:
    digest, payload = blob[:32], blob[32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("checkpoint corrupted: checksum mismatch")
    record = pickle.loads(payload)
    return record["step"], record["state"]


# -- storage backends -----------------------------------------------------


class InMemoryStorage:
    """Remote storage stand-in with optional bandwidth throttling.

    ``bandwidth`` (bytes/s) injects a sleep proportional to payload size,
    emulating the slow persist path that async checkpointing hides.
    """

    def __init__(self, bandwidth: float | None = None) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.write_count = 0

    def _throttle(self, size: int) -> None:
        if self.bandwidth is not None:
            # deliberate wall-sleep: this backend emulates persist
            # bandwidth for the *threaded* async pipeline, which runs
            # in real time (simulations inject a VirtualClock instead)
            time.sleep(size / self.bandwidth)  # reprolint: disable=CLK001

    def write(self, key: str, blob: bytes) -> None:
        """Store a blob under ``key``."""
        self._throttle(len(blob))
        with self._lock:
            self._blobs[key] = blob
            self.write_count += 1

    def read(self, key: str) -> bytes:
        """Fetch the blob stored under ``key``."""
        with self._lock:
            if key not in self._blobs:
                raise KeyError(key)
            return self._blobs[key]

    def keys(self) -> list[str]:
        """Stored checkpoint keys, sorted."""
        with self._lock:
            return sorted(self._blobs)

    def delete(self, key: str) -> None:
        """Remove a stored checkpoint (no-op if absent)."""
        with self._lock:
            self._blobs.pop(key, None)


class DirectoryStorage:
    """Filesystem-backed storage (one file per checkpoint)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # a crashed writer leaves *.tmp files behind; sweep them so they
        # neither accumulate forever nor collide with a future write
        self.stale_tmp_swept = 0
        for stale in self.root.glob("*.tmp"):
            stale.unlink(missing_ok=True)
            self.stale_tmp_swept += 1

    def write(self, key: str, blob: bytes) -> None:
        """Store a blob under ``key``."""
        tmp = self.root / (key + ".tmp")
        final = self.root / key
        tmp.write_bytes(blob)
        tmp.replace(final)  # atomic: never expose a torn checkpoint

    def read(self, key: str) -> bytes:
        """Fetch the blob stored under ``key``."""
        path = self.root / key
        if not path.exists():
            raise KeyError(key)
        return path.read_bytes()

    def keys(self) -> list[str]:
        """Stored checkpoint keys, sorted."""
        return sorted(p.name for p in self.root.iterdir()
                      if not p.name.endswith(".tmp"))

    def delete(self, key: str) -> None:
        """Remove a stored checkpoint (no-op if absent)."""
        path = self.root / key
        if path.exists():
            path.unlink()


_CKPT_KEY_RE = re.compile(r"ckpt-(\d+)\Z")


def _checkpoint_key(step: int) -> str:
    return f"ckpt-{step:012d}"


# -- the resilient persist pipeline ----------------------------------------


class PersistHealth(Enum):
    """Health of the persist pipeline, surfaced to recovery controllers.

    * HEALTHY  — the last persist succeeded on the first attempt.
    * DEGRADED — the last persist succeeded, but needed retries or lost
      its replica write.
    * FAILED   — the last persist exhausted its retry budget; that
      checkpoint generation was lost.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, bounded attempts, and a deadline.

    ``delay(attempt)`` grows as ``base_delay * backoff ** attempt``
    capped at ``max_delay``; ``jitter`` scales each delay by a uniform
    factor in ``[1 - jitter, 1 + jitter]`` (seeded by the checkpointer,
    so retry timing is reproducible).  The ``deadline`` bounds the total
    clock time one operation may consume across all attempts.
    """

    max_attempts: int = 5
    base_delay: float = 0.5
    backoff: float = 2.0
    max_delay: float = 8.0
    deadline: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.deadline <= 0:
            raise ValueError("delays must be non-negative, deadline "
                             "positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng) -> float:
        raw = min(self.base_delay * self.backoff ** attempt,
                  self.max_delay)
        if self.jitter:
            raw *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(raw, 0.0)


@dataclass(frozen=True)
class PersistResult:
    """Outcome of one persist through the pipeline."""

    key: str
    ok: bool
    attempts: int
    elapsed: float
    #: True/False when a secondary exists, None otherwise
    replicated: bool | None
    error: str | None = None


class _CheckpointerBase:
    """Shared persist/restore pipeline for both checkpointers.

    All storage traffic (writes, reads, key listings) runs under the
    :class:`RetryPolicy` against ``clock``; restore walks generations
    newest-first, quarantining any that fail their checksum.
    """

    def __init__(self, storage, retry: RetryPolicy | None = None,
                 secondary=None, clock=None,
                 tracer: TracerLike | None = None) -> None:
        self.storage = storage
        self.secondary = secondary
        self.retry = retry or RetryPolicy()
        self.clock = clock or MonotonicClock()
        # persist/restore spans are stamped with this pipeline's own
        # clock (the sim harness injects an engine-backed one), so the
        # trace shows retry stalls in simulated seconds
        self.tracer = tracer or NULL_TRACER
        self._retry_rng = np.random.default_rng(0)
        self.health = PersistHealth.HEALTHY
        self.saves = 0
        self.retries_total = 0
        self.failed_saves = 0
        self.replication_failures = 0
        #: (step, reason) for every generation quarantined during restore
        self.quarantined: list[tuple[int, str]] = []
        #: generations skipped (fallen past) across all restores
        self.restore_fallbacks = 0
        self.last_result: PersistResult | None = None

    # -- retry plumbing ---------------------------------------------------

    def _run_with_retry(self, op: Callable[[], object]
                        ) -> tuple[bool, object, int, Exception | None]:
        """Run ``op`` under the retry policy.

        Returns ``(ok, value, attempts, error)``.  Only storage/OS
        errors are retried; a ``KeyError`` (missing key) is definitive
        and propagates to the caller.
        """
        deadline = self.clock.now() + self.retry.deadline
        attempts = 0
        while True:
            attempts += 1
            try:
                return True, op(), attempts, None
            except (StorageError, OSError) as exc:
                if attempts >= self.retry.max_attempts:
                    return False, None, attempts, exc
                delay = self.retry.delay(attempts - 1, self._retry_rng)
                if self.clock.now() + delay > deadline:
                    return False, None, attempts, exc
                self.clock.sleep(delay)

    # -- persist ----------------------------------------------------------

    def _persist(self, step: int, blob: bytes) -> PersistResult:
        """Write one generation with retries (+ optional replication).

        Never raises on storage failure: the outcome (and the updated
        :attr:`health`) is the interface.
        """
        key = _checkpoint_key(step)
        started = self.clock.now()
        ok, _, attempts, error = self._run_with_retry(
            lambda: self.storage.write(key, blob))
        replicated = None
        if ok and self.secondary is not None:
            replicated, _, extra, _ = self._run_with_retry(
                lambda: self.secondary.write(key, blob))
            attempts += extra - 1
            if not replicated:
                self.replication_failures += 1
        self.retries_total += max(attempts - 1, 0)
        result = PersistResult(
            key=key, ok=ok, attempts=attempts,
            elapsed=self.clock.now() - started, replicated=replicated,
            error=None if error is None
            else f"{type(error).__name__}: {error}")
        self.last_result = result
        self.tracer.complete(
            "checkpoint.persist", started, self.clock.now(),
            "checkpoint", step=step, ok=ok, attempts=attempts,
            replicated=replicated)
        if not ok:
            self.failed_saves += 1
            self.health = PersistHealth.FAILED
        elif attempts > 1 or replicated is False:
            self.health = PersistHealth.DEGRADED
        else:
            self.health = PersistHealth.HEALTHY
        return result

    # -- restore ----------------------------------------------------------

    def _sources(self) -> list:
        return [self.storage] + ([self.secondary]
                                 if self.secondary is not None else [])

    def _generation_steps(self, at_or_before: int | None) -> list[int]:
        """Candidate generation steps across all sources, newest first.

        Raises :class:`StorageError` when *no* backend can even list its
        keys — the caller should defer the restore, not conclude that
        nothing was ever persisted.
        """
        steps: set[int] = set()
        reachable = False
        last_error: Exception | None = None
        for source in self._sources():
            ok, keys, _, error = self._run_with_retry(source.keys)
            if ok:
                reachable = True
                for key in keys:
                    match = _CKPT_KEY_RE.fullmatch(key)
                    if match:
                        steps.add(int(match.group(1)))
            else:
                last_error = error
        if not reachable:
            raise StorageError(
                "no storage backend reachable for restore"
            ) from last_error
        return sorted((step for step in steps
                       if at_or_before is None or step <= at_or_before),
                      reverse=True)

    def _quarantine(self, step: int, reason: str) -> None:
        """Move a bad generation out of the restore path, keeping the
        evidence under a ``quarantine-`` key where possible."""
        self.quarantined.append((step, reason))
        key = _checkpoint_key(step)
        for source in self._sources():
            try:
                source.write("quarantine-" + key, source.read(key))
            except Exception:  # reprolint: disable=EXC001
                pass  # best effort: the backend may be down or key gone
            try:
                source.delete(key)
            except Exception:  # reprolint: disable=EXC001
                pass  # best effort, as above; quarantined[] records it

    def load_at_or_before(self, step: int | None = None
                          ) -> tuple[int, StateDict] | None:
        """Newest checksum-valid generation at or before ``step``.

        A generation that is corrupt (or missing) in every source is
        quarantined and the walk falls back to the previous one.  Raises
        :class:`StorageError` when the backend is unreachable — restoring
        *nothing* and restoring *an older generation* are different
        failures, and the caller should retry later rather than silently
        losing progress.  Returns None when no readable generation
        exists at all.
        """
        started = self.clock.now()
        quarantined_before = len(self.quarantined)
        try:
            loaded = self._restore_walk(step)
        except StorageError:
            self.tracer.complete(
                "checkpoint.restore", started, self.clock.now(),
                "checkpoint", planned=step, outcome="unreachable",
                quarantined=len(self.quarantined) - quarantined_before)
            raise
        self.tracer.complete(
            "checkpoint.restore", started, self.clock.now(),
            "checkpoint", planned=step,
            outcome="ok" if loaded is not None else "empty",
            restored=None if loaded is None else loaded[0],
            quarantined=len(self.quarantined) - quarantined_before)
        return loaded

    def _restore_walk(self, step: int | None
                      ) -> tuple[int, StateDict] | None:
        for candidate in self._generation_steps(step):
            key = _checkpoint_key(candidate)
            corrupt = 0
            unreachable = 0
            for source in self._sources():
                try:
                    ok, blob, _, _ = self._run_with_retry(
                        lambda src=source: src.read(key))
                except KeyError:
                    continue  # this source never got the replica
                if not ok:
                    unreachable += 1
                    continue
                try:
                    return _deserialize(blob)
                except CheckpointError:
                    corrupt += 1
            if unreachable:
                # a copy might still be good behind the outage: defer
                raise StorageError(
                    f"generation {candidate} unreachable during restore")
            if corrupt:
                self._quarantine(candidate, "checksum mismatch")
            # else: key vanished between keys() and read(); just fall back
            self.restore_fallbacks += 1
        return None

    def load_latest(self) -> tuple[int, StateDict] | None:
        """Load the newest durable checkpoint, or None."""
        return self.load_at_or_before(None)


# -- checkpointers ---------------------------------------------------------


class SyncCheckpointer(_CheckpointerBase):
    """Baseline: serialize and persist inline, blocking the caller."""

    def save(self, step: int, state: StateDict) -> float:
        """Persist now (with retries); returns blocking seconds.

        Raises :class:`CheckpointError` when the retry budget is
        exhausted — the generation was lost and :attr:`health` is FAILED.
        """
        started = self.clock.now()
        result = self._persist(step, _serialize(step, state))
        self.saves += 1
        if not result.ok:
            raise CheckpointError(
                f"persist of step {step} failed after {result.attempts} "
                f"attempts: {result.error}")
        return self.clock.now() - started

    def close(self) -> None:  # symmetry with AsyncCheckpointer
        """Flush pending work and stop the background thread."""
        pass


@dataclass
class _PendingSave:
    step: int
    blob: bytes


class AsyncCheckpointer(_CheckpointerBase):
    """The §6.1 strategy: snapshot to host memory, persist in background.

    ``save`` blocks only for the in-memory snapshot (deep copy +
    serialization); a worker thread drains the persist queue through the
    retrying pipeline.  The queue is bounded by ``buffer_slots`` — host
    memory holds only a few checkpoints (Fig. 7b observation) — and
    when it is full the oldest unpersisted snapshot is dropped in favor
    of the newer one, because recovery only ever wants the latest
    durable state.

    A persist that exhausts its retry budget does not kill the worker:
    the step lands in :attr:`failed_steps`, :attr:`health` flips to
    FAILED, the next :meth:`flush` (or :meth:`close`) raises, and the
    worker keeps draining newer snapshots.
    """

    def __init__(self, storage, buffer_slots: int = 2,
                 retry: RetryPolicy | None = None, secondary=None,
                 clock=None) -> None:
        if buffer_slots < 1:
            raise ValueError("buffer_slots must be >= 1")
        super().__init__(storage, retry=retry, secondary=secondary,
                         clock=clock)
        self.buffer_slots = buffer_slots
        self._queue: queue.Queue[_PendingSave | None] = queue.Queue()
        self._pending: list[_PendingSave] = []
        self._lock = threading.Lock()
        self._error: BaseException | None = None
        self.dropped = 0
        #: steps whose persist exhausted the retry budget
        self.failed_steps: list[int] = []
        self._failed_reported = 0
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    # -- worker ----------------------------------------------------------

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                if item.blob:  # dropped snapshots have been cleared
                    result = self._persist(item.step, item.blob)
                    if not result.ok:
                        self.failed_steps.append(item.step)
            except BaseException as exc:
                # Unexpected (non-storage) error: remember it for the
                # next save/flush, but keep the worker alive — a poisoned
                # snapshot must not strand every later one in memory.
                self._error = exc
            finally:
                with self._lock:
                    if item in self._pending:
                        self._pending.remove(item)

    # -- API --------------------------------------------------------------

    def save(self, step: int, state: StateDict) -> float:
        """Snapshot to host memory; returns blocking seconds."""
        if self._error is not None:
            raise CheckpointError(
                "background persist failed") from self._error
        started = self.clock.now()
        # The snapshot is the blocking part: copy tensors off the "GPU"
        # so training can mutate them immediately after we return.
        snapshot = {name: np.array(array, copy=True)
                    for name, array in state.items()}
        blob = _serialize(step, snapshot)
        pending = _PendingSave(step=step, blob=blob)
        with self._lock:
            while len(self._pending) >= self.buffer_slots:
                victim = min(self._pending, key=lambda p: p.step)
                self._pending.remove(victim)
                victim.blob = b""  # release memory; worker will skip it
                self.dropped += 1
            self._pending.append(pending)
        self._queue.put(pending)
        self.saves += 1
        return self.clock.now() - started

    def flush(self, timeout: float = 30.0) -> None:
        """Block until every queued snapshot has been attempted.

        Raises :class:`CheckpointError` if any persist attempted since
        the last flush exhausted its retries — those generations are
        lost.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending:
                    break
            time.sleep(0.001)
        else:
            raise CheckpointError("flush timed out")
        if self._error is not None:
            raise CheckpointError(
                "background persist failed") from self._error
        fresh = self.failed_steps[self._failed_reported:]
        self._failed_reported = len(self.failed_steps)
        if fresh:
            raise CheckpointError(
                f"persist failed for steps {fresh}; pipeline health "
                f"is {self.health.value}")

    def close(self, join_timeout: float = 10.0) -> None:
        """Flush pending work and stop the background thread.

        Raises :class:`CheckpointError` if the worker thread fails to
        terminate within ``join_timeout`` — a leaked worker holding a
        storage handle must never look like a clean shutdown.
        """
        try:
            self.flush()
        finally:
            self._queue.put(None)
            self._worker.join(timeout=join_timeout)
            if self._worker.is_alive():
                raise CheckpointError(
                    f"persist worker did not terminate within "
                    f"{join_timeout}s; thread leaked")

    def __enter__(self) -> "AsyncCheckpointer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the datacenter-scale cost model ------------------------------------------


@dataclass(frozen=True)
class CheckpointCost:
    """Blocking time per checkpoint under both modes, seconds."""

    snapshot: float
    persist: float

    @property
    def sync_blocking(self) -> float:
        return self.snapshot + self.persist

    @property
    def async_blocking(self) -> float:
        return self.snapshot

    @property
    def reduction(self) -> float:
        """sync blocking / async blocking — the §6.1 headline factor."""
        return self.sync_blocking / self.async_blocking

    def overhead_fraction(self, interval: float, asynchronous: bool
                          ) -> float:
        """Training-time overhead at a checkpoint interval (§6.1 uses
        interval = 30 min)."""
        blocking = self.async_blocking if asynchronous else \
            self.sync_blocking
        return blocking / (interval + blocking)


@dataclass
class CheckpointCostModel:
    """Blocking-time arithmetic for a model sharded over a cluster.

    Model state (16Ψ bytes) is spread across the job's nodes; every GPU
    snapshots its shard over PCIe in parallel, then each node persists its
    share through its storage NIC, all nodes contending on the backend.
    """

    storage: SharedStorage
    gpus_per_node: int = 8
    pcie_bandwidth: float = 20e9   # effective host-copy rate, bytes/s
    state_bytes_multiplier: float = 16.0

    def cost(self, model: TransformerConfig, world_size: int
             ) -> CheckpointCost:
        """Blocking-time cost of checkpointing ``model`` at this scale."""
        if world_size <= 0 or world_size % self.gpus_per_node:
            raise ValueError("world_size must be a multiple of "
                             f"{self.gpus_per_node}")
        nodes = world_size // self.gpus_per_node
        total_state = self.state_bytes_multiplier * model.param_count
        per_node = total_state / nodes
        per_gpu = per_node / self.gpus_per_node
        snapshot = per_gpu / self.pcie_bandwidth
        persist = self.storage.write_time(per_node,
                                          concurrent_writers=nodes)
        return CheckpointCost(snapshot=snapshot, persist=persist)
