"""A small deterministic discrete-event simulation engine.

The engine is a classic event-heap simulator: callbacks are scheduled at
absolute simulated times and executed in time order.  Ties are broken by a
monotonically increasing sequence number so that runs are fully
deterministic.  A batch of known future calls (a trace's arrivals) goes in
through :meth:`Engine.call_at_each`, which keeps only the next one in the
heap but orders every call as if all had been pushed up front.

The engine is intentionally single-threaded and has no wall-clock
dependency, which keeps every experiment in the repository reproducible.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass
from itertools import islice, repeat
from operator import le
from typing import Callable, Sequence

#: lazy-deletion compaction thresholds: the heap is rebuilt when at
#: least this many cancelled items are buried in it *and* they make up
#: at least half of it.  Compaction is pure bookkeeping — (time, seq)
#: is a strict total order, so heapify reproduces the exact pop order.
_COMPACT_MIN_CANCELLED = 256


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


class _ScheduledItem:
    """The handle of one scheduled callback.

    The heap holds ``(time, seq, item)`` triples, so sift operations
    compare tuples in C: ``seq`` is unique, so a comparison never
    reaches the item, which needs no ordering of its own.  A slotted
    plain class, so creating one per scheduled callback stays cheap.
    """

    __slots__ = ("callback", "cancelled", "in_heap")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False
        # Whether this item is physically buried in the heap.  The
        # garbage counter only tracks cancelled items that are *still
        # in the heap*; cancelling an item after it was popped (its
        # time was reached but another same-timestamp callback killed
        # it before dispatch) must not count as buried garbage, or
        # ``pending`` drifts negative.
        self.in_heap = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ScheduledItem(cancelled={self.cancelled!r})"


@dataclass(frozen=True)
class EngineSnapshot:
    """A picklable structural snapshot of an :class:`Engine`.

    Heap callbacks are arbitrary closures and cannot be serialized, so
    the snapshot captures the *restorable* scalars (clock, sequence
    counter, event count) plus the heap's structural identity: every
    buried item's ``(time, seq, cancelled)`` triple in canonical
    (time, seq) order.  Restoring is replay-based — the caller rebuilds
    the engine by replaying the operations that produced this snapshot,
    then :meth:`Engine.restore` proves the rebuilt heap is structurally
    identical and fast-forwards the scalars (see ``repro.service``).
    """

    now: float
    next_seq: int
    events_processed: int
    #: every live-or-cancelled heap entry as (time, seq, cancelled),
    #: sorted by the engine's strict (time, seq) total order so the
    #: snapshot is independent of internal heap-array layout
    heap: tuple[tuple[float, int, bool], ...]

    def digest(self) -> str:
        """Deterministic content digest (crc32 of the canonical repr)."""
        canonical = repr((self.now, self.next_seq,
                          self.events_processed, self.heap))
        return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


class Engine:
    """The event loop.

    Typical use::

        engine = Engine()
        engine.call_at(60.0, on_timer)
        engine.run()            # until the heap drains
        engine.run(until=3600)  # or until a simulated deadline
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: (time, seq, item) triples; (time, seq) is a strict total
        #: order, so heapq never compares two items
        self._heap: list[tuple[float, int, _ScheduledItem]] = []
        # plain int, not itertools.count(): the next sequence number is
        # part of the engine's restorable state (see snapshot())
        self._next_seq = 0
        self._events_processed = 0
        self._cancelled = 0
        #: calls of ``call_at_each`` batches not yet pushed to the heap
        self._deferred = 0
        self._listeners: list[Callable[[float], None]] = []

    # -- scheduling -------------------------------------------------------

    def call_at(self, time: float, callback: Callable[[], None]
                ) -> _ScheduledItem:
        """Schedule ``callback`` at absolute simulated ``time``."""
        # not ``time < now``: NaN compares false both ways, and a NaN
        # entry would pop ahead of every finite time
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time}: before now ({self.now}) "
                f"or NaN")
        item = _ScheduledItem(callback)
        heapq.heappush(self._heap, (time, self._next_seq, item))
        self._next_seq += 1
        return item

    def call_at_each(self, times: Sequence[float],
                     callback: Callable[[], None]) -> None:
        """Call ``callback`` once at each of ``times``.

        ``times`` must be finite, non-decreasing and none before
        ``now``; otherwise nothing is scheduled.  The calls run in
        exactly the order that one ``call_at(time, callback)`` per time,
        made now, would give: they take consecutive sequence numbers, so
        each wins every same-time tie against anything scheduled after
        it.  Only the next pending call sits in the heap.  The first
        goes through ``call_at`` (so a wrapper of ``call_at`` wraps
        ``callback`` once), the rest of the numbers are reserved, and
        each time the entry fires it is pushed back at the next time
        with the next number before ``callback`` runs.  ``pending``
        counts the calls not yet pushed; ``snapshot`` sees only the
        pushed one.
        """
        if not times:
            return
        if not (times[0] >= self.now and times[-1] < math.inf
                and all(map(le, times, islice(times, 1, None)))):
            raise SimulationError(
                "call_at_each needs finite, non-decreasing times, none "
                f"before now ({self.now})")
        item = self.call_at(times[0], callback)
        rest = len(times) - 1
        if not rest:
            return
        first = self._next_seq
        self._next_seq += rest
        self._deferred += rest
        # the heap entries themselves, built lazily in C
        entries = zip(islice(times, 1, None), range(first, first + rest),
                      repeat(item))
        inner = item.callback
        left = rest

        def feed() -> None:
            nonlocal left
            heapq.heappush(self._heap, next(entries))
            item.in_heap = True
            self._deferred -= 1
            left -= 1
            if not left:
                # the last push: drop the feed, and with it the
                # item -> feed -> item cycle
                item.callback = inner
            inner()

        item.callback = feed

    def call_after(self, delay: float, callback: Callable[[], None]
                   ) -> _ScheduledItem:
        """Schedule ``callback`` ``delay`` seconds from now."""
        return self.call_at(self.now + delay, callback)

    def cancel(self, item: _ScheduledItem) -> None:
        """Cancel a previously scheduled callback (lazy removal).

        Cancelled items stay buried in the heap until their time comes
        up; a cancel-heavy run (a chaos storm killing thousands of
        scheduled completions) used to grow the heap without bound.  A
        counter now tracks the buried garbage and compacts the heap
        once it dominates, keeping memory proportional to the *live*
        event count.
        """
        if item.cancelled:
            return
        item.cancelled = True
        if not item.in_heap:
            # Already popped (dispatched, or reached at the head of the
            # same timestamp): there is no buried garbage to account
            # for.  Counting it anyway let ``pending`` go negative once
            # a ``_compact()`` inside a callback zeroed the counter.
            return
        self._cancelled += 1
        if (self._cancelled >= _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled items and re-heapify (order-preserving)."""
        live = []
        for entry in self._heap:
            item = entry[2]
            if item.cancelled:
                item.in_heap = False
            else:
                live.append(entry)
        self._heap = live
        heapq.heapify(self._heap)
        self._cancelled = 0

    # -- observation -------------------------------------------------------

    def add_listener(self, listener: Callable[[float], None]) -> None:
        """Register a hook run after *every* executed callback.

        Listeners receive the current simulated time.  They observe, they
        do not schedule: raising from a listener aborts the run, which is
        exactly what an invariant checker wants.

        The listener list is copy-on-write: mutating it is safe at any
        point, including from inside a running callback or listener.  A
        listener attached mid-run starts firing from the *next* event;
        one detached mid-run stops immediately (it does not fire for
        the event being dispatched, even if it was about to).
        """
        self._listeners = self._listeners + [listener]

    def remove_listener(self, listener: Callable[[float], None]) -> None:
        """Unregister a previously added listener.

        Raises ``ValueError`` if the listener was never added, matching
        ``list.remove`` — a detach that silently no-ops would hide
        double-detach bugs in exit paths.
        """
        listeners = list(self._listeners)
        listeners.remove(listener)
        self._listeners = listeners

    # -- running -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run the loop; returns the final simulated time.

        Without ``until`` the loop runs until the heap drains.  ``until``
        stops the clock at a deadline (events at later times stay
        queued); it must be finite and not before ``now``, or the clock
        would end at infinity or move backwards.
        """
        if until is not None and not self.now <= until < math.inf:
            raise SimulationError(
                f"cannot run until {until}: before now ({self.now}) "
                f"or not finite")
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _, item = heap[0]
            if item.cancelled:
                heappop(heap)
                item.in_heap = False
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            heappop(heap)
            item.in_heap = False
            self.now = time
            # Per-event snapshot of the copy-on-write listener list,
            # taken *before* the callback: a listener attached inside
            # the callback (or inside another listener) is absent from
            # the snapshot and first fires on the next event; one
            # detached anywhere mid-event is skipped immediately.  When
            # nothing mutates, the identity check short-circuits and
            # the loop costs the same as iterating a cached list.
            snapshot = self._listeners
            item.callback()
            # compaction inside the callback may have replaced the heap
            heap = self._heap
            for listener in snapshot:
                if (self._listeners is not snapshot
                        and listener not in self._listeners):
                    continue
                listener(self.now)
            self._events_processed += 1
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        """Capture the engine's restorable state (see EngineSnapshot)."""
        heap = tuple(sorted((time, seq, item.cancelled)
                            for time, seq, item in self._heap))
        return EngineSnapshot(now=self.now, next_seq=self._next_seq,
                              events_processed=self._events_processed,
                              heap=heap)

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt ``snapshot``'s clock and sequence counter.

        Heap callbacks cannot be serialized, so this engine must first
        be rebuilt by replaying the operations that produced the
        snapshot; ``restore`` then *verifies* the rebuilt heap is
        structurally identical — same (time, seq, cancelled) triples —
        and fast-forwards the clock, next sequence number, and event
        counter.  A structural mismatch means the replay diverged and
        raises :class:`SimulationError` rather than resuming a run
        that could silently differ from the original.
        """
        current = self.snapshot()
        if current.heap != snapshot.heap:
            raise SimulationError(
                f"engine restore diverged: rebuilt heap has "
                f"{len(current.heap)} items (digest {current.digest()}) "
                f"but the snapshot recorded {len(snapshot.heap)} "
                f"(digest {snapshot.digest()})")
        self.now = snapshot.now
        self._next_seq = snapshot.next_seq
        self._events_processed = snapshot.events_processed

    @property
    def pending(self) -> int:
        return len(self._heap) - self._cancelled + self._deferred

    @property
    def heap_size(self) -> int:
        """Physical heap length, cancelled garbage included."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed
