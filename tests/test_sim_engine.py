"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.call_at(5.0, lambda: order.append("b"))
        engine.call_at(1.0, lambda: order.append("a"))
        engine.call_at(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for label in "abc":
            engine.call_at(1.0, lambda l=label: order.append(l))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.call_at(3.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.5]

    def test_call_after_is_relative(self):
        engine = Engine()
        seen = []
        engine.call_at(2.0, lambda: engine.call_after(
            3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_the_past(self):
        engine = Engine()
        engine.call_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        engine = Engine()
        fired = []
        item = engine.call_at(1.0, lambda: fired.append(1))
        engine.cancel(item)
        engine.run()
        assert not fired

    def test_run_until_stops_clock_at_deadline(self):
        engine = Engine()
        fired = []
        engine.call_at(10.0, lambda: fired.append(1))
        end = engine.run(until=4.0)
        assert end == 4.0
        assert not fired
        engine.run()
        assert fired

    def test_run_until_with_empty_heap_advances_clock(self):
        engine = Engine()
        assert engine.run(until=7.0) == 7.0

    def test_pending_counts_uncancelled(self):
        engine = Engine()
        item = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.cancel(item)
        assert engine.pending == 1


class TestListeners:
    def test_listener_runs_after_every_event(self):
        engine = Engine()
        seen = []
        engine.add_listener(seen.append)
        for time in (1.0, 2.0, 5.0):
            engine.call_at(time, lambda: None)
        engine.run()
        assert seen == [1.0, 2.0, 5.0]

    def test_listener_observes_callback_effects(self):
        engine = Engine()
        state = []
        engine.add_listener(lambda now: state.append(len(state)))
        engine.call_at(1.0, lambda: None)
        engine.run()
        assert state == [0]

    def test_removed_listener_stops_firing(self):
        engine = Engine()
        seen = []
        engine.add_listener(seen.append)
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: engine.remove_listener(seen.append))
        engine.call_at(3.0, lambda: None)
        engine.run()
        assert seen == [1.0]  # t=2 removes it before its own check

    def test_cancelled_events_do_not_trigger_listener(self):
        engine = Engine()
        seen = []
        engine.add_listener(seen.append)
        item = engine.call_at(1.0, lambda: None)
        engine.cancel(item)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert seen == [2.0]


_times = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=40)


class TestEngineProperties:
    @given(times=_times)
    @settings(max_examples=80, deadline=None)
    def test_execution_order_total_and_deterministic(self, times):
        """Any schedule runs in (time, insertion) order, every time."""

        def run_once():
            engine = Engine()
            fired = []
            for index, time in enumerate(times):
                engine.call_at(time,
                               lambda t=time, i=index: fired.append((t, i)))
            engine.run()
            return fired

        first = run_once()
        assert first == run_once()          # deterministic replay
        assert first == sorted(first)       # total order, stable ties
        assert len(first) == len(times)     # nothing dropped

    @given(times=_times, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_cancelled_events_never_fire(self, times, data):
        engine = Engine()
        fired = []
        items = [engine.call_at(time, lambda i=index: fired.append(i))
                 for index, time in enumerate(times)]
        cancelled = {index for index in range(len(items))
                     if data.draw(st.booleans(), label=f"cancel[{index}]")}
        for index in cancelled:
            engine.cancel(items[index])
        engine.run()
        assert set(fired) == set(range(len(items))) - cancelled

class TestLazyDeletionCompaction:
    """Cancelled-event pileup: the heap must stay proportional to the
    *live* event count, and compaction must never change pop order."""

    def test_cancel_heavy_storm_pins_heap_size(self):
        """Regression: a cancel-heavy run used to grow the heap without
        bound; lazy-deletion compaction keeps it near the live count."""
        from repro.sim.engine import _COMPACT_MIN_CANCELLED

        engine = Engine()
        live = [engine.call_at(1e9 + i, lambda: None)
                for i in range(100)]
        for wave in range(50):
            items = [engine.call_at(1e6 + wave, lambda: None)
                     for _ in range(400)]
            for item in items:
                engine.cancel(item)
        # 20,000 cancellations later the physical heap must be bounded
        # by the live count plus one un-compacted garbage allowance
        assert engine.pending == len(live)
        assert engine.heap_size <= 2 * (len(live)
                                        + _COMPACT_MIN_CANCELLED)

    def test_cancelled_counter_tracks_popped_garbage(self):
        engine = Engine()
        keep = []
        item = engine.call_at(1.0, lambda: keep.append(engine.now))
        stale = engine.call_at(2.0, lambda: keep.append(-1.0))
        engine.cancel(stale)
        engine.cancel(stale)  # double-cancel is a no-op
        engine.run()
        assert keep == [1.0]
        assert engine.pending == 0
        assert engine.heap_size == 0
        assert item.cancelled is False

    def test_compaction_preserves_pop_order(self):
        """Interleave schedule/cancel so compaction fires mid-run, then
        assert callbacks still execute in exact (time, seq) order."""
        engine = Engine()
        order = []

        def record(tag):
            return lambda: order.append((engine.now, tag))

        expected = []
        for i in range(600):
            time = float(i % 7) + 10.0
            item = engine.call_at(time, record(i))
            if i % 3 == 0:
                engine.cancel(item)
            else:
                expected.append((time, i))
        expected.sort(key=lambda pair: (pair[0],))
        engine.run()
        # stable by seq within equal times: sort expectation the same way
        assert [tag for _, tag in order] == sorted(
            (tag for _, tag in expected),
            key=lambda tag: (float(tag % 7), tag))

    def test_cancel_inside_callback_during_run(self):
        """A callback cancelling enough items to trigger compaction must
        not derail the running loop (the loop re-reads the heap)."""
        engine = Engine()
        victims = [engine.call_at(100.0 + i, lambda: None)
                   for i in range(1000)]
        fired = []

        def purge():
            for victim in victims:
                engine.cancel(victim)
            fired.append("purge")

        engine.call_at(1.0, purge)
        engine.call_at(2.0, lambda: fired.append("after"))
        engine.run()
        assert fired == ["purge", "after"]
        assert engine.pending == 0

    def test_pending_is_live_count(self):
        engine = Engine()
        items = [engine.call_at(float(i), lambda: None)
                 for i in range(10)]
        assert engine.pending == 10
        for item in items[:4]:
            engine.cancel(item)
        assert engine.pending == 6
        assert engine.heap_size == 10  # garbage not yet collected


class TestListenerMutationDuringRun:
    """Listeners attached/detached from inside callbacks or other
    listeners: the run loop iterates a per-event snapshot of the
    copy-on-write list, so mid-run mutation is always safe."""

    def test_attach_inside_callback_fires_from_next_event(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, lambda: engine.add_listener(seen.append))
        engine.call_at(2.0, lambda: None)
        engine.call_at(3.0, lambda: None)
        engine.run()
        # not for the attaching event itself, every event after it
        assert seen == [2.0, 3.0]

    def test_detach_inside_callback_skips_current_event(self):
        engine = Engine()
        first, second = [], []
        engine.add_listener(first.append)
        engine.add_listener(second.append)
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: engine.remove_listener(second.append))
        engine.call_at(3.0, lambda: None)
        engine.run()
        assert first == [1.0, 2.0, 3.0]
        assert second == [1.0]  # detached before its t=2 firing

    def test_detach_of_currently_firing_listener(self):
        engine = Engine()
        seen = []

        def detach_b(now):
            seen.append(("a", now))
            if now == 1.0:
                engine.remove_listener(listener_b)

        def listener_b(now):
            seen.append(("b", now))

        engine.add_listener(detach_b)
        engine.add_listener(listener_b)
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run()
        # listener A detaches B while firing at t=1: B never fires,
        # and A keeps firing alone afterwards
        assert seen == [("a", 1.0), ("a", 2.0)]

    def test_listener_removing_itself_stops_immediately(self):
        engine = Engine()
        seen = []

        def one_shot(now):
            seen.append(now)
            engine.remove_listener(one_shot)

        engine.add_listener(one_shot)
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert seen == [1.0]

    def test_attach_inside_listener_fires_from_next_event(self):
        engine = Engine()
        seen = []

        def attach_once(now):
            if not seen:
                engine.add_listener(seen.append)

        engine.add_listener(attach_once)
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert seen == [2.0]

    def test_remove_unknown_listener_raises(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.remove_listener(lambda now: None)


class TestCancelAccounting:
    """Cancelling an item whose time was already reached (popped for
    dispatch, or already dispatched) must not count as buried heap
    garbage — ``pending`` and ``_cancelled`` never go negative."""

    def test_cancel_after_dispatch_keeps_pending_nonnegative(self):
        engine = Engine()
        item = engine.call_at(1.0, lambda: None)
        engine.run()
        engine.cancel(item)  # time reached, callback already ran
        assert engine.pending == 0
        assert engine.heap_size == 0

    def test_cancel_of_currently_firing_item(self):
        engine = Engine()
        box = {}

        def self_cancel():
            engine.cancel(box["item"])

        box["item"] = engine.call_at(1.0, self_cancel)
        engine.call_at(1.0, lambda: None)  # same-timestamp follower
        engine.run()
        assert engine.pending == 0

    def test_post_dispatch_cancel_survives_compaction(self):
        """A phantom garbage count used to linger across _compact()
        (which zeroes the counter) and drive ``pending`` negative once
        real garbage was popped."""
        from repro.sim.engine import _COMPACT_MIN_CANCELLED
        engine = Engine()
        victims = [engine.call_at(100.0 + i, lambda: None)
                   for i in range(2 * _COMPACT_MIN_CANCELLED + 10)]
        box = {}

        def purge():
            engine.cancel(box["item"])  # currently firing: not garbage
            for victim in victims:
                engine.cancel(victim)   # forces _compact() mid-callback

        box["item"] = engine.call_at(1.0, purge)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert engine.pending == 0
        assert engine.heap_size == 0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pending_equals_live_items_across_interleavings(self, data):
        """pending == live (uncancelled, still-queued) items after any
        interleaving of schedule / cancel / re-cancel / run / storm."""
        from repro.sim.engine import _COMPACT_MIN_CANCELLED
        engine = Engine()
        handles = []
        ops = data.draw(st.lists(
            st.sampled_from(["schedule", "cancel", "run", "storm"]),
            min_size=1, max_size=25), label="ops")
        for op in ops:
            if op == "schedule":
                delay = data.draw(st.floats(0.0, 10.0, allow_nan=False))
                handles.append(
                    engine.call_at(engine.now + delay, lambda: None))
            elif op == "cancel" and handles:
                index = data.draw(
                    st.integers(0, len(handles) - 1), label="victim")
                engine.cancel(handles[index])  # may be fired/cancelled
            elif op == "run":
                delay = data.draw(st.floats(0.0, 10.0, allow_nan=False))
                engine.run(until=engine.now + delay)
            elif op == "storm":
                storm = [engine.call_at(engine.now + 100.0 + i,
                                        lambda: None)
                         for i in range(_COMPACT_MIN_CANCELLED + 1)]
                for item in storm:
                    engine.cancel(item)  # crosses compaction threshold
            live = sum(1 for _, _, item in engine._heap
                       if not item.cancelled)
            assert engine.pending == live
            assert engine._cancelled >= 0
        engine.run()
        assert engine.pending == 0


class TestEngineSnapshot:
    def _build(self):
        engine = Engine()
        engine.call_at(1.0, lambda: None)
        engine.call_at(5.0, lambda: None)
        doomed = engine.call_at(3.0, lambda: None)
        engine.cancel(doomed)
        engine.call_at(4.0, lambda: None)
        engine.run(until=2.0)
        return engine

    def test_snapshot_captures_clock_seq_and_heap(self):
        engine = self._build()
        snap = engine.snapshot()
        assert snap.now == 2.0
        assert snap.next_seq == 4
        assert snap.events_processed == 1
        # the cancelled t=3 item was popped as garbage when it reached
        # the heap head during run(until=2.0)
        assert snap.heap == ((4.0, 3, False), (5.0, 1, False))

    def test_restore_after_identical_replay(self):
        snap = self._build().snapshot()
        rebuilt = self._build()
        rebuilt.restore(snap)
        assert rebuilt.snapshot() == snap
        assert rebuilt.snapshot().digest() == snap.digest()

    def test_restore_rejects_divergent_heap(self):
        snap = self._build().snapshot()
        diverged = self._build()
        diverged.call_at(9.0, lambda: None)
        with pytest.raises(SimulationError):
            diverged.restore(snap)

    def test_snapshot_is_picklable_and_digest_stable(self):
        import pickle
        snap = self._build().snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.digest() == snap.digest()

    def test_restored_engine_resumes_identically(self):
        fired_a, fired_b = [], []

        def run_to_end(engine, fired):
            for time, _, item in list(engine._heap):
                if not item.cancelled:
                    item.callback = (
                        lambda t=time: fired.append(t))
            engine.run()
            return fired

        original = self._build()
        snap = original.snapshot()
        rebuilt = self._build()
        rebuilt.restore(snap)
        assert run_to_end(original, fired_a) == run_to_end(
            rebuilt, fired_b)


def _drive(script, batched: bool) -> tuple:
    """Run ``script`` with its batch through ``call_at_each`` or through
    one ``call_at`` per time; returns everything the run shows."""
    pre, batch, post, actions, horizons = script
    engine = Engine()
    fired: list[tuple[str, float]] = []
    handles: list = []
    per_event: list[tuple[float, int]] = []

    def make(label):
        def callback():
            fired.append((label, engine.now))
            index = len(fired) - 1
            for kind, arg in (actions[index] if index < len(actions)
                              else ()):
                if kind == "schedule":
                    schedule(engine.now + arg)
                elif handles:
                    engine.cancel(handles[arg % len(handles)])
        return callback

    def schedule(time):
        handles.append(engine.call_at(time, make(f"e{len(handles)}")))

    engine.add_listener(lambda now: per_event.append((now, engine.pending)))
    for time in pre:
        schedule(time)
    on_batch = make("batch")
    if batched:
        engine.call_at_each(batch, on_batch)
    else:
        for time in batch:
            engine.call_at(time, on_batch)
    for time in post:
        schedule(time)
    runs = []
    for until in (*horizons, None):
        engine.run(until=until)
        runs.append((engine.now, engine.events_processed, engine.pending,
                     engine._next_seq))
    return fired, per_event, runs


_tie_times = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_scripts = st.tuples(
    st.lists(_tie_times, max_size=6),
    st.lists(_tie_times, max_size=8).map(sorted),
    st.lists(_tie_times, max_size=6),
    # per fired event: schedule at now + delay, or cancel a handle
    st.lists(st.lists(st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0])),
        st.tuples(st.just("cancel"), st.integers(0, 20))), max_size=3),
        max_size=20),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0]),
             max_size=4).map(sorted))


class TestCallAtEach:
    """``call_at_each`` against one ``call_at`` per time."""

    @given(script=_scripts)
    @settings(max_examples=400, deadline=None)
    def test_matches_one_call_at_per_time(self, script):
        """Fired order, events, ``pending`` after every event and every
        run, and the sequence numbers consumed are the same."""
        assert _drive(script, batched=True) == _drive(script, batched=False)

    def test_batch_wins_ties_against_later_calls_only(self):
        """A re-push keeps its reserved number: a call scheduled after
        the batch at the same time runs after every batch call, and
        one scheduled before runs before them."""
        engine = Engine()
        order = []
        engine.call_at(1.0, lambda: order.append("before"))
        engine.call_at_each([1.0, 1.0, 1.0], lambda: order.append("batch"))
        engine.call_at(1.0, lambda: order.append("after"))
        assert engine.pending == 5
        engine.run()
        assert order == ["before", "batch", "batch", "batch", "after"]
        assert engine._next_seq == 5

    def test_only_the_next_call_is_in_the_heap(self):
        engine = Engine()
        engine.call_at_each([float(t) for t in range(100)], lambda: None)
        assert (engine.heap_size, engine.pending) == (1, 100)
        engine.run(until=49.5)
        assert (engine.heap_size, engine.pending) == (1, 50)
        assert engine.events_processed == 50

    def test_a_wrapper_of_call_at_wraps_the_callback_once(self,
                                                          monkeypatch):
        wrapped, fired = [], []
        call_at = Engine.call_at

        def wrapping(engine, time, callback):
            wrapped.append(time)
            return call_at(engine, time,
                           lambda: fired.append(("wrapped", callback())))

        monkeypatch.setattr(Engine, "call_at", wrapping)
        engine = Engine()
        engine.call_at_each([1.0, 2.0, 2.0], lambda: engine.now)
        engine.run()
        assert wrapped == [1.0]
        assert fired == [("wrapped", 1.0), ("wrapped", 2.0),
                         ("wrapped", 2.0)]

    def test_empty_batch_is_a_no_op(self):
        engine = Engine()
        engine.call_at_each([], lambda: None)
        assert (engine.pending, engine._next_seq) == (0, 0)
        assert engine.run() == 0.0
        assert engine.events_processed == 0

    @pytest.mark.parametrize("times", [
        [2.0, 1.0], [1.0, float("nan")], [float("nan"), 1.0],
        [float("nan")], [1.0, float("inf")], [float("-inf"), 1.0],
        [4.0, 6.0]])
    def test_bad_times_raise_and_schedule_nothing(self, times):
        engine = Engine()
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.call_at_each(times, lambda: None)
        assert (engine.pending, engine.heap_size, engine._next_seq) == (
            0, 0, 0)


class TestBadTimes:
    """A time that breaks the heap's order is rejected where it enters."""

    def test_nan_is_not_scheduled(self):
        """NaN compares false both ways, so ``time < now`` let it in
        and it popped ahead of every finite time."""
        engine = Engine()
        order = []
        with pytest.raises(SimulationError):
            engine.call_at(float("nan"), lambda: order.append("nan"))
        engine.call_at(5.0, lambda: order.append(5.0))
        engine.call_at(1.0, lambda: order.append(1.0))
        engine.run()
        assert order == [1.0, 5.0]

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), 3.0])
    def test_run_to_non_finite_or_past_horizon_raises(self, until):
        """A past horizon set the clock backwards, a NaN one never
        stopped the loop, and an infinite one left the clock at
        infinity once the heap drained."""
        engine = Engine()
        engine.call_at(10.0, lambda: None)
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.run(until=until)
        assert engine.now == 5.0
        assert engine.pending == 1

    def test_run_to_the_current_time_is_allowed(self):
        engine = Engine()
        engine.run(until=5.0)
        assert engine.run(until=5.0) == 5.0
