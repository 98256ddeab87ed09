"""Storage-fault chaos tests: the storage-storm scenario end to end,
the storage-fault schedule builder, and the teeth of invariants 6–8."""

from dataclasses import replace

import pytest

from repro.chaos import (BUNDLED_SCENARIOS, STORAGE_FAULT_KINDS,
                         ChaosScenario, InvariantViolation, run_scenario)
from repro.chaos.invariants import InvariantChecker
from repro.chaos.scenario import (STORAGE_OUTAGE_DURATION,
                                  STORAGE_SLOWDOWN_DURATION)
from repro.failures.taxonomy import STORAGE_CHAOS_REASON


@pytest.fixture(scope="module")
def storm():
    return run_scenario(BUNDLED_SCENARIOS["storage-storm"])


class TestStorageStorm:
    def test_demonstrates_a_fallback_restore(self, storm):
        """The headline requirement: a corrupt generation is quarantined
        and recovery falls back to an older checkpoint."""
        summary = storm.summary
        assert summary.restore_fallbacks >= 1
        assert summary.ckpt_quarantined >= 1
        assert summary.fallback_lost_iterations > 0
        assert any(kind == "restore_fallback"
                   for _, kind, _ in storm.event_log)

    def test_exercises_outage_and_slowdown_paths(self, storm):
        summary = storm.summary
        assert summary.storage_faults == 5
        assert summary.restores_deferred >= 1   # outage parked a restore
        assert summary.checkpoints_failed >= 1  # persist deadline blown
        assert summary.checkpoints_degraded >= 1  # retries or slowdown

    def test_every_deferred_restore_resolves(self, storm):
        assert storm.checker.deferred_unresolved == 0

    def test_fallback_loss_identity(self, storm):
        """Invariant 8 holds on the real run, not just in unit tests."""
        assert (storm.summary.fallback_lost_iterations
                == storm.checker.fallback_lost)

    def test_run_is_deterministic(self, storm):
        again = run_scenario(BUNDLED_SCENARIOS["storage-storm"])
        assert again.event_log == storm.event_log
        assert again.summary.to_json() == storm.summary.to_json()

    def test_disabling_storage_faults_silences_the_storage_path(self):
        quiet = replace(BUNDLED_SCENARIOS["storage-storm"],
                        n_storage_faults=0)
        result = run_scenario(quiet)
        assert result.summary.storage_faults == 0
        assert result.summary.restore_fallbacks == 0
        assert result.summary.checkpoints_failed == 0
        assert not any(kind.startswith("storage_fault")
                       for _, kind, _ in result.event_log)


class TestStorageFaultSchedule:
    def test_schedule_is_deterministic_and_sorted(self):
        scenario = BUNDLED_SCENARIOS["storage-storm"]
        first = scenario.build_storage_faults()
        second = scenario.build_storage_faults()
        assert first == second
        assert [f.time for f in first] == sorted(f.time for f in first)
        assert len(first) == scenario.n_storage_faults

    def test_faults_carry_storage_metadata(self):
        scenario = BUNDLED_SCENARIOS["storage-storm"]
        durations = {
            "storage_outage": STORAGE_OUTAGE_DURATION,
            "storage_slowdown": STORAGE_SLOWDOWN_DURATION,
            "ckpt_corruption": scenario.ckpt_corruption_duration,
        }
        for fault in scenario.build_storage_faults():
            assert fault.kind in STORAGE_FAULT_KINDS
            assert fault.target == "storage"
            assert fault.reason == STORAGE_CHAOS_REASON
            assert fault.duration == durations[fault.kind]

    def test_storage_faults_do_not_perturb_node_faults(self):
        """Storage sampling uses its own rng stream (seed + 2), so the
        node-fault schedule is byte-identical with or without it."""
        storm = BUNDLED_SCENARIOS["storage-storm"]
        quiet = replace(storm, n_storage_faults=0)
        node_faults = [f for f in storm.build_faults()
                       if f.target != "storage"]
        assert node_faults == quiet.build_faults()

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChaosScenario(name="x", n_storage_faults=-1)
        with pytest.raises(ValueError):
            ChaosScenario(name="x", storage_fault_mix=(1.0, 1.0))
        with pytest.raises(ValueError):
            ChaosScenario(name="x", storage_fault_mix=(0.0, 0.0, 0.0))


def make_checker(**context):
    # record_restore / final_check never touch the scheduler state, so a
    # bare checker is enough to test the storage invariants' teeth.
    return InvariantChecker(scheduler=None, nodes={}, placements={},
                            **context)


class TestInvariantTeeth:
    def test_restore_ahead_of_plan_rejected(self):
        checker = make_checker()
        checker.record_persist(10.0, 500, ok=True)
        with pytest.raises(InvariantViolation, match="moved forward"):
            checker.record_restore(20.0, planned=400, actual=500)

    def test_restore_of_corrupt_generation_rejected(self):
        checker = make_checker()
        checker.record_persist(10.0, 300, ok=True)
        checker.record_corrupt_write(300)
        with pytest.raises(InvariantViolation,
                           match="corrupt/quarantined"):
            checker.record_restore(20.0, planned=300, actual=300)

    def test_restore_of_quarantined_generation_rejected(self):
        checker = make_checker()
        checker.record_persist(10.0, 300, ok=True)
        checker.record_quarantine(300)
        with pytest.raises(InvariantViolation,
                           match="corrupt/quarantined"):
            checker.record_restore(20.0, planned=300, actual=300)

    def test_restore_of_unpersisted_step_rejected(self):
        checker = make_checker()
        with pytest.raises(InvariantViolation,
                           match="never durably persisted"):
            checker.record_restore(20.0, planned=300, actual=120)

    def test_scratch_restore_is_always_allowed(self):
        checker = make_checker()
        checker.record_restore(20.0, planned=300, actual=0)
        assert checker.fallback_lost == 300

    def test_fallback_loss_accumulates(self):
        checker = make_checker()
        for step in (100, 200, 300):
            checker.record_persist(float(step), step, ok=True)
        checker.record_restore(400.0, planned=300, actual=200)
        checker.record_restore(500.0, planned=200, actual=100)
        assert checker.fallback_lost == 200

    def test_unresolved_deferral_without_outage_is_a_violation(self):
        checker = make_checker()
        checker.record_restore_deferred()
        with pytest.raises(InvariantViolation,
                           match="no storage outage"):
            checker.final_check()

    def test_deferral_past_outage_plus_slack_is_wedged(self):
        checker = make_checker(outage_windows=[(100.0, 200.0)],
                               horizon=10_000.0, wedge_slack=300.0)
        checker.record_restore_deferred()
        with pytest.raises(InvariantViolation, match="wedged"):
            checker.final_check()

    def test_deferral_inside_the_last_outage_window_is_tolerated(self):
        """An outage still in flight at the horizon may legitimately
        leave a restore parked — that is not a wedge."""
        checker = make_checker(outage_windows=[(9_500.0, 9_900.0)],
                               horizon=10_000.0, wedge_slack=300.0)
        checker.record_restore_deferred()
        checker.final_check()  # no raise

    def test_resolved_deferral_passes(self):
        checker = make_checker()
        checker.record_restore_deferred()
        checker.record_restore_resolved()
        checker.final_check()

    def test_fallback_loss_mismatch_is_a_violation(self):
        checker = make_checker()
        checker.record_persist(10.0, 200, ok=True)
        checker.record_restore(20.0, planned=300, actual=200)
        with pytest.raises(InvariantViolation, match="loss mismatch"):
            checker.final_check(fallback_lost_iterations=0)
        checker.final_check(fallback_lost_iterations=100)  # identity holds
