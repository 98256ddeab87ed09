"""The service's rolling log digests and its coalesced journal.

``RollingDigest`` folds only newly appended log lines into a running
crc32, so ``gauges()`` and ``checkpoint()`` cost O(new lines) instead of
O(age).  These tests diff it against the full-text oracle in
``tests/oracles/service.py``, pin that every line is rendered exactly
once, and drive an admission-armed service on flaky storage through
random submit / advance / checkpoint / restore sequences: after every
step the digests equal the oracle's, the journal never holds two
adjacent ``advance`` entries, and a restored service equals the live
one before and after both advance.  Snapshots in the older journal
format (one ``advance`` entry per horizon) must still restore.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.chaos import BUNDLED_SCENARIOS
from repro.chaos.harness import event_log_line
from repro.cluster.storage import FlakyStorage, StorageError
from repro.core.checkpoint import (CheckpointError, InMemoryStorage,
                                   RetryPolicy, SyncCheckpointer)
from repro.scheduler.job import Job, JobType
from repro.service import (ClusterService, OverloadConfig,
                           QueueDepthCapPolicy, ServiceStateError)
from repro.service.cluster import admission_log_line
from repro.service.state import (RollingDigest, encode_state,
                                 job_to_dict, text_digest)
from repro.sim.engine import SimulationError
from repro.workload.streams import (EvalBurstConfig, EvalBurstStream,
                                    PoissonJobStream,
                                    PoissonStreamConfig)

from .oracles.service import full_text_digest

SMOKE = BUNDLED_SCENARIOS["smoke"]
#: tight watermarks so a few simulated hours visit the overload ladder
TIGHT = OverloadConfig(
    healthy_depth=4, pressured_depth=8, saturated_depth=12,
    shedding_depth=18, defer_seconds=120.0, shed_max_age_s=900.0,
    sweep_interval_s=300.0, escalate_after_s=600.0)
RETRY = RetryPolicy(max_attempts=8, deadline=600.0, jitter=0.0)


def armed_service(storage=None):
    """An admission-armed ``smoke`` service under saturating load."""
    return ClusterService(
        SMOKE, storage=storage, retry=RETRY,
        admission=QueueDepthCapPolicy(max_depth=10), overload=TIGHT,
        streams=[
            PoissonJobStream(PoissonStreamConfig(
                name="debug", seed=5, rate_per_hour=100.0,
                job_type="debug", gpu_choices=(1, 2, 4),
                duration_median_s=900.0)),
            EvalBurstStream(EvalBurstConfig(
                name="evals", seed=7, bursts_per_hour=4.0,
                batch_size=4)),
        ])


# -- the helper against the full-text oracle ------------------------------

entries = st.tuples(
    st.floats(0.0, 1e7, allow_nan=False),
    st.text(max_size=20),
    # the default alphabet reaches far past ASCII
    st.text(max_size=40))


class TestRollingDigest:
    def test_empty_log_is_the_crc_of_empty_text(self):
        rolling = RollingDigest([], event_log_line)
        assert rolling.hexdigest() == text_digest("") == "00000000"
        assert rolling.hexdigest() == full_text_digest(rolling)

    @given(render=st.sampled_from([event_log_line, admission_log_line]),
           batches=st.lists(st.lists(entries, max_size=6), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_reads_interleaved_with_appends_equal_the_oracle(
            self, render, batches):
        """Property: after any batch of appends (empty batches are
        repeated reads with nothing new) the rolling digest equals the
        digest of the log's full text."""
        log = []
        rolling = RollingDigest(log, render)
        for batch in batches:
            log.extend(batch)
            assert rolling.hexdigest() == full_text_digest(rolling)
        assert rolling.hexdigest() == text_digest(
            "\n".join(map(render, log)))

    def test_each_line_is_rendered_exactly_once(self):
        rendered = Counter()

        def render(entry):
            rendered[entry] += 1
            return f"line {entry} é"

        log = []
        rolling = RollingDigest(log, render)
        for read in range(200):
            log.extend(range(len(log), len(log) + read % 4))
            rolling.hexdigest()
            rolling.hexdigest()
        assert len(log) == 300
        assert rendered == Counter(range(len(log)))

    def test_service_renders_each_log_line_once(self, monkeypatch):
        """Gauges on every horizon and a checkpoint on every fourth
        render each admission and event line once, not once per read."""
        rendered = Counter()

        def counting(name, formatter):
            def render(entry):
                rendered[name, entry] += 1
                return formatter(entry)
            return render

        monkeypatch.setattr("repro.service.cluster.admission_log_line",
                            counting("admission", admission_log_line))
        monkeypatch.setattr("repro.service.cluster.event_log_line",
                            counting("event", event_log_line))
        service = armed_service()
        for step in range(1, 25):
            service.advance(SMOKE.duration * step / 24)
            if step % 4 == 0:
                service.checkpoint()
        expected = Counter(
            [("admission", entry) for entry in service.admission_log]
            + [("event", entry) for entry in service.harness.event_log])
        assert len(service.admission_log) > 100
        assert rendered == expected


# -- the coalesced journal -------------------------------------------------


class TestCoalescedJournal:
    def test_back_to_back_advances_share_one_entry(self):
        service = armed_service()
        for until in (600.0, 1200.0, 1800.0):
            service.advance(until)
        service.submit(Job(job_id="manual-0", cluster="service",
                           job_type=JobType.DEBUG, submit_time=1800.0,
                           duration=120.0, gpu_demand=2))
        service.advance(2400.0)
        service.advance(3000.0)
        assert [entry[0] for entry in service._journal] == [
            "attach", "attach", "advance", "submit", "advance"]
        assert service._journal[2] == ["advance", 1800.0]
        assert service._journal[4] == ["advance", 3000.0]

    def test_per_horizon_journal_of_older_snapshots_restores(self):
        """A snapshot whose journal holds one ``advance`` per horizon
        (the format before coalescing) restores to the live gauges, and
        the restored journal is coalesced."""
        storage = InMemoryStorage()
        service = armed_service(storage)
        per_horizon = [list(entry) for entry in service._journal]
        for step in range(1, 13):
            until = SMOKE.duration * step / 24
            service.advance(until)
            per_horizon.append(["advance", until])
            if step == 6:
                job = Job(job_id="manual-0", cluster="service",
                          job_type=JobType.EVALUATION,
                          submit_time=until, duration=300.0,
                          gpu_demand=1)
                service.submit(job)
                per_horizon.append(["submit", job_to_dict(job)])
        payload = service._state_payload()
        assert len(payload["journal"]) == 5
        payload["journal"] = per_horizon
        SyncCheckpointer(storage).save(0, encode_state(payload))
        restored = ClusterService.restore(storage)
        assert restored.gauges() == service.gauges()
        assert restored._journal == service._journal
        until = SMOKE.duration * 13 / 24
        assert restored.advance(until) == service.advance(until)


# -- random operation sequences on flaky storage ---------------------------


class RestoreMachine(RuleBasedStateMachine):
    """Random submit / advance / checkpoint / restore on an armed
    service whose snapshots go through flaky storage.

    A save whose retries run out raises ``CheckpointError`` and writes
    nothing, and a restore that cannot reach the newest generation
    raises ``StorageError``: both are the pipeline's documented
    outcomes, so the machine accepts them and checks what follows.
    """

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        self.storage = FlakyStorage(InMemoryStorage(), fail_rate=0.3,
                                    seed=seed)
        self.service = armed_service(self.storage)
        self.submitted = 0
        #: generation -> the live gauges when it was saved
        self.saved = {}

    def _checkpoint(self):
        """The generation saved, or None when the save failed."""
        try:
            generation = self.service.checkpoint()
        except CheckpointError:
            return None
        self.saved[generation] = self.service.gauges()
        return generation

    @rule(gpus=st.sampled_from([1, 2, 4]),
          job_type=st.sampled_from([JobType.DEBUG, JobType.EVALUATION,
                                    JobType.SFT]))
    def submit(self, gpus, job_type):
        self.submitted += 1
        now = self.service.engine.now
        self.service.submit(Job(
            job_id=f"manual-{self.submitted}", cluster="service",
            job_type=job_type, submit_time=now, duration=600.0,
            gpu_demand=gpus))

    @rule(step=st.floats(0.0, 3600.0))
    def advance(self, step):
        until = min(self.service.engine.now + step, SMOKE.duration)
        self.service.advance(until)

    @rule(back=st.floats(1.0, 600.0))
    def advance_backwards(self, back):
        now = self.service.engine.now
        journal = [list(entry) for entry in self.service._journal]
        with pytest.raises(SimulationError):
            self.service.advance(now - back)
        assert self.service._journal == journal

    @rule()
    def checkpoint(self):
        self._checkpoint()

    @rule(step=st.floats(0.0, 1800.0), adopt=st.booleans())
    def restore_and_compare(self, step, adopt):
        generation = self._checkpoint()
        try:
            restored = ClusterService.restore(self.storage, retry=RETRY)
        except StorageError:
            return
        except ServiceStateError:
            assert not self.saved  # nothing was ever saved
            return
        # the newest saved generation, or an older one after a failed
        # save: either way the gauges it was saved with
        loaded = restored._next_generation - 1
        assert loaded == max(self.saved)
        assert restored.gauges() == self.saved[loaded]
        if loaded != generation:
            return
        until = min(self.service.engine.now + step, SMOKE.duration)
        assert restored.advance(until) == self.service.advance(until)
        assert restored.event_log_text() == self.service.event_log_text()
        assert (restored.admission_log_text()
                == self.service.admission_log_text())
        if adopt:
            # later steps run on the restored service
            self.service = restored

    @invariant()
    def digests_match_the_oracle(self):
        service = self.service
        assert (service.gauges().admission_digest
                == full_text_digest(service._admission_digest))
        assert (service._event_log_digest.hexdigest()
                == full_text_digest(service._event_log_digest))

    @invariant()
    def journal_is_coalesced(self):
        ops = [op for op, _ in self.service._journal]
        assert ["advance", "advance"] not in map(list, zip(ops, ops[1:]))


RestoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)
TestRestoreMachine = RestoreMachine.TestCase
