"""Shared parallel file system model, plus injectable storage faults.

Acme uses an all-NVMe shared parallel file system (§2.2).  Two properties
matter for the paper's experiments:

* checkpoint writes see an aggregate backend bandwidth (async checkpointing,
  §6.1, amortizes this off the training critical path);
* model *reads* from many concurrent evaluation trials contend on each
  node's storage NIC (Fig. 16 left), collapsing per-trial load speed.

Both are bandwidth arithmetic, which this module models directly, plus a
discrete-event interface used by the evaluation coordinator simulation.

The second half of the module is the **storage fault domain**: Table 3
lists network-storage outages as a recurring Kalos failure class, so the
blob-storage protocol the checkpointers persist through (``write`` /
``read`` / ``keys`` / ``delete``) can be wrapped in fault decorators —
:class:`FlakyStorage` (outages), :class:`SlowStorage` (degraded
bandwidth), and :class:`CorruptingStorage` (silent bit rot) — each with
seeded randomness and/or schedulable fault windows measured against a
pluggable :class:`MonotonicClock` / :class:`VirtualClock` /
:class:`EngineClock`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cluster.network import FairShareLink
from repro.sim.engine import Engine, Event


class StorageError(OSError):
    """A storage-backend operation failed (possibly transiently)."""


class StorageUnavailableError(StorageError):
    """The storage backend is unreachable (outage window or flake)."""


@dataclass(frozen=True)
class LoadRequest:
    """A request to read ``size_bytes`` onto a node through its storage NIC."""

    node: str
    size_bytes: float


class SharedStorage:
    """Analytic model of the shared parallel FS.

    Parameters
    ----------
    backend_bandwidth:
        Aggregate backend bandwidth in bytes/s (NVMe array + fabric).
    node_nic_bandwidth:
        Per-node storage NIC bandwidth in bytes/s (25 Gb/s on Seren).
    """

    def __init__(self, backend_bandwidth: float,
                 node_nic_bandwidth: float) -> None:
        if backend_bandwidth <= 0 or node_nic_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        self.backend_bandwidth = backend_bandwidth
        self.node_nic_bandwidth = node_nic_bandwidth

    # -- steady-state arithmetic ------------------------------------------

    def per_trial_load_rate(self, trials_per_node: int,
                            total_trials: int | None = None) -> float:
        """Per-trial read bandwidth with contention.

        ``trials_per_node`` sharers contend on the node NIC; across the
        cluster all trials also share the backend.  The observed Fig. 16
        behaviour (collapse 1→8 trials on one node, flat 8→256 across
        nodes) falls out: the node NIC is the binding constraint.
        """
        if trials_per_node <= 0:
            raise ValueError("trials_per_node must be positive")
        node_share = self.node_nic_bandwidth / trials_per_node
        if total_trials:
            backend_share = self.backend_bandwidth / total_trials
            return min(node_share, backend_share)
        return node_share

    def load_time(self, size_bytes: float, trials_per_node: int = 1,
                  total_trials: int | None = None) -> float:
        """Seconds to load a checkpoint of ``size_bytes`` under contention."""
        return size_bytes / self.per_trial_load_rate(trials_per_node,
                                                     total_trials)

    def write_time(self, size_bytes: float, concurrent_writers: int = 1
                   ) -> float:
        """Seconds to persist ``size_bytes`` (checkpoint flush)."""
        if concurrent_writers <= 0:
            raise ValueError("concurrent_writers must be positive")
        rate = min(self.node_nic_bandwidth,
                   self.backend_bandwidth / concurrent_writers)
        return size_bytes / rate

    def stress_test(self, model_bytes: float, trial_counts: list[int],
                    gpus_per_node: int = 8) -> list[tuple[int, float]]:
        """Reproduce the Fig. 16 (left) sweep.

        For each total trial count, trials pack ``gpus_per_node`` per node
        (the paper sweeps 1..256 single-GPU trials); returns
        ``(trials, per-trial load rate in bytes/s)`` pairs.
        """
        results = []
        for trials in trial_counts:
            per_node = min(trials, gpus_per_node)
            rate = self.per_trial_load_rate(per_node, trials)
            results.append((trials, rate))
        return results


class StorageVolume:
    """Discrete-event storage endpoint for one node's NIC.

    Transfers time-share the NIC; for simplicity each transfer observes the
    contention level at the moment it starts (adequate because evaluation
    loads in the coordinator start in batches).
    """

    def __init__(self, engine: Engine, nic_bandwidth: float) -> None:
        self.engine = engine
        self.link = FairShareLink(nic_bandwidth)
        self.active_transfers = 0

    def read(self, size_bytes: float) -> Event:
        """Start a read; the returned event fires on completion."""
        self.active_transfers += 1
        duration = self.link.transfer_time(size_bytes,
                                           self.active_transfers)
        done = self.engine.event()

        def finish() -> None:
            self.active_transfers -= 1
            done.succeed(size_bytes)

        self.engine.call_after(duration, finish)
        return done

    def read_process(self, size_bytes: float) -> Iterator:
        """Generator form for use inside simulation processes."""
        yield self.read(size_bytes)


# -- clocks ----------------------------------------------------------------


class MonotonicClock:
    """Wall-clock time source: the default for real checkpointers."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class VirtualClock:
    """A clock whose ``sleep`` merely advances virtual time.

    Used by simulations (and tests) so retry backoff and fault windows
    consume *simulated* seconds deterministically instead of real ones.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds

    advance = sleep


class EngineClock:
    """A simulation engine's clock plus a virtual *stall offset*.

    ``sleep`` (retry backoff, injected slowdown delays) only grows the
    offset, so fault windows and retry deadlines see time advance while
    the single-threaded simulation never blocks.  Owners reset the
    offset around each persist/restore and charge it as stall time.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.offset = 0.0

    def now(self) -> float:
        return self.engine.now + self.offset

    def sleep(self, seconds: float) -> None:
        self.offset += seconds


# -- fault decorators -------------------------------------------------------


def _validated_windows(windows) -> tuple[tuple[float, float], ...] | None:
    if windows is None:
        return None
    parsed = tuple((float(start), float(end)) for start, end in windows)
    for start, end in parsed:
        if end <= start:
            raise ValueError(f"fault window [{start}, {end}) is empty")
    return parsed


class _FaultDecorator:
    """Base for fault wrappers over the blob-storage protocol.

    ``windows`` are half-open ``[start, end)`` intervals on ``clock``;
    a decorator's fault behaviour is *armed* inside any window.  With
    ``windows=None`` arming is left to the subclass's probabilistic
    trigger (seeded), so decorators compose for both deterministic
    chaos schedules and randomized unit tests.
    """

    def __init__(self, inner, windows=None, clock=None) -> None:
        self.inner = inner
        self.windows = _validated_windows(windows)
        self.clock = clock or MonotonicClock()

    def _in_window(self) -> bool:
        if self.windows is None:
            return False
        now = self.clock.now()
        return any(start <= now < end for start, end in self.windows)

    # pass-through protocol; subclasses override what they perturb
    def write(self, key: str, blob: bytes) -> None:
        self.inner.write(key, blob)

    def read(self, key: str) -> bytes:
        return self.inner.read(key)

    def keys(self) -> list[str]:
        return self.inner.keys()

    def delete(self, key: str) -> None:
        self.inner.delete(key)


class FlakyStorage(_FaultDecorator):
    """Fails every operation during outage windows, plus an optional
    seeded per-operation failure rate outside them."""

    def __init__(self, inner, windows=None, fail_rate: float = 0.0,
                 seed: int = 0, clock=None) -> None:
        super().__init__(inner, windows, clock)
        if not 0.0 <= fail_rate <= 1.0:
            raise ValueError("fail_rate must be in [0, 1]")
        self.fail_rate = fail_rate
        self._rng = np.random.default_rng(seed)
        self.faults_injected = 0

    def _maybe_fail(self, op: str) -> None:
        if self._in_window() or (self.fail_rate > 0.0
                                 and float(self._rng.uniform())
                                 < self.fail_rate):
            self.faults_injected += 1
            raise StorageUnavailableError(
                f"storage backend unavailable (injected, op={op})")

    def write(self, key: str, blob: bytes) -> None:
        self._maybe_fail("write")
        self.inner.write(key, blob)

    def read(self, key: str) -> bytes:
        self._maybe_fail("read")
        return self.inner.read(key)

    def keys(self) -> list[str]:
        self._maybe_fail("keys")
        return self.inner.keys()

    def delete(self, key: str) -> None:
        self._maybe_fail("delete")
        self.inner.delete(key)


class SlowStorage(_FaultDecorator):
    """Adds ``delay`` clock-seconds to reads and writes.

    With windows the slowdown applies only inside them; with
    ``windows=None`` every read/write is slow (a permanently saturated
    backend).  Against a :class:`VirtualClock` the delay consumes
    virtual time only — which is exactly how the chaos harness charges
    storage slowness against a persist deadline without real sleeps.
    """

    def __init__(self, inner, delay: float, windows=None,
                 clock=None) -> None:
        super().__init__(inner, windows, clock)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.delays_injected = 0
        self.total_delay = 0.0

    def _active(self) -> bool:
        return self._in_window() if self.windows is not None else True

    def _maybe_stall(self) -> None:
        if self.delay > 0.0 and self._active():
            self.delays_injected += 1
            self.total_delay += self.delay
            self.clock.sleep(self.delay)

    def write(self, key: str, blob: bytes) -> None:
        self._maybe_stall()
        self.inner.write(key, blob)

    def read(self, key: str) -> bytes:
        self._maybe_stall()
        return self.inner.read(key)


class CorruptingStorage(_FaultDecorator):
    """Silently flips bytes in blobs written during corruption windows
    (or, seeded, at a per-write ``corrupt_rate``).

    The write *succeeds* — the damage only surfaces when a restore
    checksums the generation, which is what forces the multi-generation
    fallback path.
    """

    def __init__(self, inner, windows=None, corrupt_rate: float = 0.0,
                 seed: int = 0, clock=None) -> None:
        super().__init__(inner, windows, clock)
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")
        self.corrupt_rate = corrupt_rate
        self._rng = np.random.default_rng(seed)
        self.corrupted_writes = 0
        self.corrupted_keys: set[str] = set()

    @staticmethod
    def _corrupt(blob: bytes) -> bytes:
        if not blob:
            return blob
        index = len(blob) // 2
        return (blob[:index] + bytes([blob[index] ^ 0xFF])
                + blob[index + 1:])

    def write(self, key: str, blob: bytes) -> None:
        if self._in_window() or (self.corrupt_rate > 0.0
                                 and float(self._rng.uniform())
                                 < self.corrupt_rate):
            self.corrupted_writes += 1
            self.corrupted_keys.add(key)
            blob = self._corrupt(blob)
        else:
            self.corrupted_keys.discard(key)
        self.inner.write(key, blob)
