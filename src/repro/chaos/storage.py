"""The checkpoint-storage fault domain of a chaos run.

The gang's checkpoints travel through the scenario's storage fault
windows, armed up front: corruption closest to the store (it poisons
what lands on disk), slowdown and outage layered above, all on the
engine's clock.  :class:`StorageDomain` owns that stack, persists and
restores through it, and keeps the storage counters the summary
reports; what the gang does when a restore cannot be served stays
with the harness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.chaos.invariants import InvariantChecker
from repro.chaos.scenario import ChaosScenario, InjectedFault
from repro.cluster.storage import (CorruptingStorage, EngineClock,
                                   FlakyStorage, SlowStorage, StorageError)
from repro.core.checkpoint import (CheckpointError, InMemoryStorage,
                                   RetryPolicy, SyncCheckpointer,
                                   _checkpoint_key)
from repro.core.recovery import CheckpointCatalog, RecoveryController
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.sim.engine import Engine

#: added clock-seconds per read/write inside a slowdown window
SLOWDOWN_DELAY = 20.0
#: total clock budget one persist may burn across retries
PERSIST_DEADLINE = 120.0


class StorageDomain:
    """Checkpoint persist and restore through armed storage faults."""

    def __init__(self, scenario: ChaosScenario,
                 faults: Sequence[InjectedFault], engine: Engine,
                 event_log: list[tuple[float, str, str]],
                 catalog: CheckpointCatalog,
                 controller: RecoveryController,
                 tracer: TracerLike | None = None) -> None:
        self.engine = engine
        self.tracer = tracer or NULL_TRACER
        self.event_log = event_log
        self.catalog = catalog
        self.controller = controller

        def windows(kind: str) -> list[tuple[float, float]]:
            return [(fault.time, fault.time + fault.duration)
                    for fault in faults if fault.kind == kind]

        #: [start, end) windows in which the backend is unreachable
        self.outage_windows = windows("storage_outage")
        self.clock = EngineClock(engine)
        self._corrupting = CorruptingStorage(
            InMemoryStorage(), windows=windows("ckpt_corruption") or (),
            clock=self.clock)
        slow = SlowStorage(
            self._corrupting, delay=SLOWDOWN_DELAY,
            windows=windows("storage_slowdown") or (), clock=self.clock)
        self.checkpointer = SyncCheckpointer(
            FlakyStorage(slow, windows=self.outage_windows or (),
                         clock=self.clock),
            retry=RetryPolicy(max_attempts=5, base_delay=5.0,
                              backoff=2.0, max_delay=120.0,
                              deadline=PERSIST_DEADLINE,
                              jitter=0.0),
            clock=self.clock, tracer=self.tracer)
        self.checkpoints_persisted = 0
        self.checkpoints_degraded = 0
        self.checkpoints_failed = 0
        self.restore_fallbacks = 0
        self.fallback_lost_iterations = 0
        self.storage_stall_seconds = 0.0
        self._quarantine_seen = 0

    def _log(self, kind: str, detail: str) -> None:
        self.event_log.append((self.engine.now, kind, detail))

    def open_window(self, index: int, fault: InjectedFault) -> None:
        """Narrate a window the stack armed at init (and its close), so
        checkpoint traffic hitting it shows up in context."""
        end = fault.time + fault.duration
        self._log("storage_fault_begin",
                  f"#{index} kind={fault.kind} until={end:.3f}")
        self.tracer.complete(f"window:{fault.kind}", fault.time, end,
                             "chaos.storage", index=index)
        self.engine.call_at(end, lambda: self._log(
            "storage_fault_end", f"#{index} kind={fault.kind}"))

    def _collect_stall(self) -> float:
        """Charge the clock's virtual stall to the run and reset it."""
        stall = self.clock.offset
        self.clock.offset = 0.0
        self.storage_stall_seconds += stall
        return stall

    def persist(self, step: int, checker: InvariantChecker) -> None:
        """Persist the gang's checkpoint at ``step`` through the stack."""
        self.clock.offset = 0.0
        state = {"iteration": np.array([step], dtype=np.int64)}
        try:
            self.checkpointer.save(step, state)
        except CheckpointError:
            self._collect_stall()
            self.checkpoints_failed += 1
            checker.record_persist(self.engine.now, step, False)
            health = self.checkpointer.health.value
            self.controller.record_storage_alert(
                step, f"persist failed (health={health})")
            self._log("checkpoint_failed",
                      f"step={step} health={health}")
            return
        stall = self._collect_stall()
        self.checkpoints_persisted += 1
        self.catalog.add(step)
        checker.record_persist(self.engine.now, step, True)
        if _checkpoint_key(step) in self._corrupting.corrupted_keys:
            # silent bit rot: the write "succeeded" but the generation
            # is poisoned; only a future restore's checksum can tell
            checker.record_corrupt_write(step)
        result = self.checkpointer.last_result
        attempts = result.attempts if result is not None else 1
        if attempts > 1 or stall > 0.0:
            self.checkpoints_degraded += 1
            self.controller.record_storage_alert(
                step, f"persist degraded (attempts={attempts}, "
                      f"stall={stall:.1f}s)")
            self._log("checkpoint_degraded",
                      f"step={step} attempts={attempts} "
                      f"stall={stall:.1f}")
        else:
            self._log("checkpoint", f"step={step}")

    def restore(self, step: int, checker: InvariantChecker) -> int | None:
        """Load the restart generation through the faulty backend.

        Returns the step actually restored (0 = from scratch; may be
        older than ``step`` after falling back past corrupt
        generations), or None when the backend is unreachable and the
        restore must be deferred.
        """
        self.clock.offset = 0.0
        try:
            loaded = self.checkpointer.load_at_or_before(step)
        except StorageError:
            return None
        finally:
            self._collect_stall()
            self._drain_quarantine(checker)
        if loaded is None:
            self._log("restore_scratch",
                      f"planned={step} (no readable generation)")
            checker.record_restore(self.engine.now, step, 0)
            return 0
        actual = loaded[0]
        if actual < step:
            self.restore_fallbacks += 1
            self.fallback_lost_iterations += step - actual
            self._log("restore_fallback",
                      f"planned={step} actual={actual} "
                      f"extra_lost={step - actual}")
        checker.record_restore(self.engine.now, step, actual)
        return actual

    def _drain_quarantine(self, checker: InvariantChecker) -> None:
        """Propagate fresh quarantines into the catalog and checker."""
        quarantined = self.checkpointer.quarantined
        fresh = quarantined[self._quarantine_seen:]
        self._quarantine_seen = len(quarantined)
        for qstep, reason in fresh:
            self.catalog.mark_bad(qstep)
            checker.record_quarantine(qstep)
            self.tracer.count("checkpoint.quarantined")
            self._log("ckpt_quarantined",
                      f"step={qstep} reason={reason}")
