"""Tests for the live fault-injection (chaos) harness."""

import json
from dataclasses import replace

import pytest

from repro.analysis.tables import chaos_recovery_table
from repro.chaos import (BUNDLED_SCENARIOS, ChaosHarness, ChaosScenario,
                         GPUS_PER_NODE, InvariantChecker,
                         InvariantViolation, PRETRAIN_JOB_ID,
                         run_scenario)
from repro.cli import main
from repro.cluster.machine import Node, NodeHealth, seren_node_spec
from repro.core.recovery.controller import HotSparePool, RecoveryPlan
from repro.failures.taxonomy import FailureCategory
from repro.scheduler.job import JobState
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator
from repro.sim.engine import Engine
from repro.training.pretrain import PretrainProcess

from .test_invariant_oracle import PairedRun


@pytest.fixture(scope="module")
def smoke_result():
    return run_scenario(BUNDLED_SCENARIOS["smoke"])


class TestScenario:
    def test_build_faults_is_deterministic(self):
        scenario = BUNDLED_SCENARIOS["mixed"]
        assert scenario.build_faults() == scenario.build_faults()

    def test_background_jobs_are_deterministic(self):
        scenario = BUNDLED_SCENARIOS["mixed"]
        first = scenario.build_background_jobs()
        second = scenario.build_background_jobs()
        assert [(j.job_id, j.submit_time, j.gpu_demand) for j in first] \
            == [(j.job_id, j.submit_time, j.gpu_demand) for j in second]

    def test_fault_times_sorted_and_inside_horizon(self):
        for scenario in BUNDLED_SCENARIOS.values():
            times = [f.time for f in scenario.build_faults()]
            assert times == sorted(times)
            assert all(0.0 < t < scenario.duration for t in times)

    def test_script_faults_never_target_the_gang(self):
        for seed in range(6):
            scenario = BUNDLED_SCENARIOS["mixed"].with_seed(seed)
            for fault in scenario.build_faults():
                if fault.category is FailureCategory.SCRIPT:
                    assert fault.target == "scheduler"

    def test_category_filter_restricts_taxonomy(self):
        for fault in BUNDLED_SCENARIOS["infra-storm"].build_faults():
            if fault.kind == "failure":
                assert fault.category is FailureCategory.INFRASTRUCTURE

    def test_pin_node_pins_every_fault(self):
        faults = BUNDLED_SCENARIOS["flaky-node"].build_faults()
        assert faults
        assert all(f.node_index == 1 for f in faults)

    def test_with_seed_changes_the_schedule(self):
        scenario = BUNDLED_SCENARIOS["mixed"]
        assert scenario.build_faults() \
            != scenario.with_seed(99).build_faults()

    def test_gpu_counts_must_be_node_multiples(self):
        with pytest.raises(ValueError):
            ChaosScenario(name="bad", pretrain_gpus=30)

    def test_fleet_must_leave_a_spare(self):
        with pytest.raises(ValueError):
            ChaosScenario(name="bad", n_nodes=12, pretrain_gpus=32,
                          scheduler_gpus=64)

    @pytest.mark.parametrize("overrides, message", [
        ({"n_faults": -1}, "n_faults must be non-negative"),
        ({"n_background_jobs": -1},
         "n_background_jobs must be non-negative"),
        ({"pin_node": 16}, "pin_node=16 is not a node index"),
        ({"pin_node": -1}, "pin_node=-1 is not a node index"),
        ({"category_filter": "bogus"}, "unknown category_filter"),
        ({"loss_spike_fraction": -0.1},
         r"loss_spike_fraction must be in \[0, 1\]"),
        ({"hang_fraction": 1.5}, r"hang_fraction must be in \[0, 1\]"),
        ({"pretrain_target_fraction": 2.0},
         r"pretrain_target_fraction must be in \[0, 1\]"),
        ({"loss_spike_fraction": 0.6, "hang_fraction": 0.5},
         "must not exceed 1"),
    ])
    def test_validation_rejects_bad_overrides(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            replace(BUNDLED_SCENARIOS["mixed"], **overrides)

    def test_validation_accepts_the_edges(self):
        scenario = replace(BUNDLED_SCENARIOS["mixed"], n_faults=0,
                           n_background_jobs=0, pin_node=15,
                           category_filter="script",
                           loss_spike_fraction=0.5, hang_fraction=0.5)
        assert scenario.build_faults() == []
        assert scenario.build_background_jobs() == []


class TestStreamRegistry:
    def test_stream_seed_matches_registered_offset(self):
        from repro.chaos.streams import STREAM_OFFSETS, stream_seed
        for subsystem, offset in STREAM_OFFSETS.items():
            assert stream_seed(1234, subsystem) == 1234 + offset

    def test_stream_rng_is_byte_identical_to_manual_derivation(self):
        import numpy as np
        from repro.chaos.streams import STREAM_OFFSETS, stream_rng
        for subsystem, offset in STREAM_OFFSETS.items():
            registered = stream_rng(7, subsystem)
            manual = np.random.default_rng(7 + offset)
            assert registered.random(8).tolist() \
                == manual.random(8).tolist()

    def test_offsets_are_collision_free(self):
        from repro.chaos.streams import STREAM_OFFSETS
        offsets = list(STREAM_OFFSETS.values())
        assert len(offsets) == len(set(offsets))

    def test_unregistered_subsystem_is_an_error(self):
        from repro.chaos.streams import stream_seed
        with pytest.raises(KeyError, match="STREAM_OFFSETS"):
            stream_seed(7, "cosmic_rays")


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
    def test_seeded_run_is_byte_identical(self, name):
        """Same scenario, two fresh harnesses: identical log + summary."""
        scenario = BUNDLED_SCENARIOS[name]
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.event_log_text() == second.event_log_text()
        assert first.summary.to_json() == second.summary.to_json()
        assert first.checker.checks_run > 0

    def test_different_seeds_diverge(self):
        scenario = BUNDLED_SCENARIOS["smoke"]
        first = run_scenario(scenario)
        second = run_scenario(scenario.with_seed(17))
        assert first.event_log_text() != second.event_log_text()


class _LeakyScheduler(SchedulerSimulator):
    """Deliberately broken: finishing a job conjures a phantom GPU."""

    def _on_finish(self, job):
        super()._on_finish(job)
        self.free_shared += 1


#: when the scheduled defects strike: the smoke gang holds node-000 and
#: node-001, bg-0005 runs, and node-007 is the one hot spare
DEFECT_AT = 3600.0


def _at_defect_time(action):
    """A defect that ``action(harness)`` applies at ``DEFECT_AT``."""
    def defect(harness):
        harness.engine.call_at(DEFECT_AT, lambda: action(harness))
    return defect


def _leak_gpus(harness):
    harness.scheduler.__class__ = _LeakyScheduler


def _cordon_gang_node(harness):
    harness._by_name[min(harness.placements)].cordon()


def _cordon_two_gang_nodes_in_reverse(harness):
    # an unsorted scan meets the second first; the message names the first
    first, second = sorted(harness.placements)[:2]
    for name in (second, first):
        harness.placements[name] = harness.placements.pop(name)
        harness._by_name[name].cordon()


def _roll_forward(harness):
    # the forward record is not the newest one
    harness.checker.record_restart(DEFECT_AT, step_at_failure=100,
                                   restored_step=110)
    harness.checker.record_restart(DEFECT_AT, step_at_failure=100,
                                   restored_step=90)


def _double_book_spare(harness):
    pool = harness.spare_pool
    pool.allocated[pool.available[0]] = min(harness.placements)


def _requeue_allocated_job(harness):
    allocation = next(iter(harness.scheduler._allocations.values()))
    allocation.job.state = JobState.PENDING


#: name -> (defect, the message it must raise) on smoke with one spare
AT = f"t={DEFECT_AT:.3f}: "
DEFECTS = {
    "phantom-gpu": (
        _leak_gpus, "t=17012.549: GPU accounting broken: free 8+4 "
                    "+ cordoned 0 + allocated 21 != total 32"),
    "cordoned-gang-node": (
        _at_defect_time(_cordon_gang_node),
        AT + "cordoned node node-000 still hosts pretrain-main"),
    "two-cordoned-gang-nodes-reversed": (
        _at_defect_time(_cordon_two_gang_nodes_in_reverse),
        AT + "cordoned node node-000 still hosts pretrain-main"),
    "forward-rollback": (
        _at_defect_time(_roll_forward),
        AT + "rollback moved forward — restored step 110 is past the "
             "failure at step 100"),
    "spare-available-and-allocated": (
        _at_defect_time(_double_book_spare),
        AT + "spare(s) both available and allocated: ['node-007']"),
    "allocated-job-pending": (
        _at_defect_time(_requeue_allocated_job),
        AT + "job bg-0005 holds GPUs but is pending"),
}


class TestInvariants:
    def make_checker(self, total_gpus=8):
        scheduler = SchedulerSimulator(
            SchedulerConfig(total_gpus=total_gpus, reserved_fraction=0.5))
        nodes = {f"n{i}": Node(name=f"n{i}", spec=seren_node_spec())
                 for i in range(2)}
        placements = {"n0": PRETRAIN_JOB_ID}
        return InvariantChecker(scheduler=scheduler, nodes=nodes,
                                placements=placements), nodes

    def test_clean_state_passes(self):
        checker, _ = self.make_checker()
        checker.check(0.0)
        assert checker.checks_run == 1

    def test_negative_counter_detected(self):
        checker, _ = self.make_checker()
        checker.scheduler.free_shared = -1
        with pytest.raises(InvariantViolation):
            checker.check(1.0)

    def test_phantom_capacity_detected(self):
        checker, _ = self.make_checker()
        checker.scheduler.free_shared += 1
        with pytest.raises(InvariantViolation):
            checker.check(1.0)

    def test_cordoned_node_hosting_gang_detected(self):
        checker, nodes = self.make_checker()
        nodes["n0"].cordon()
        with pytest.raises(InvariantViolation):
            checker.check(2.0)

    def test_forward_rollback_detected(self):
        checker, _ = self.make_checker()
        checker.record_restart(5.0, step_at_failure=100, restored_step=90)
        checker.check(5.0)  # backward rollback is fine
        checker.record_restart(6.0, step_at_failure=100, restored_step=110)
        with pytest.raises(InvariantViolation):
            checker.check(6.0)

    def test_final_check_requires_a_plan(self):
        checker, _ = self.make_checker()
        checker.record_infra_plan(0, None)
        with pytest.raises(InvariantViolation):
            checker.final_check()

    def test_final_check_requires_restart_or_cordon(self):
        checker, _ = self.make_checker()
        checker.record_infra_plan(0, RecoveryPlan(
            diagnosis=None, restart=False, restart_checkpoint_step=None))
        with pytest.raises(InvariantViolation):
            checker.final_check()

    def test_bundled_scenarios_satisfy_all_invariants(self, smoke_result):
        # run_scenario raises InvariantViolation on the first bad state,
        # so a returned result means every per-event check passed
        assert smoke_result.summary.invariant_checks > 0

    def test_broken_scheduler_trips_the_checker(self):
        harness = ChaosHarness(BUNDLED_SCENARIOS["smoke"])
        harness.scheduler.__class__ = _LeakyScheduler
        with pytest.raises(InvariantViolation):
            harness.run()

    @pytest.mark.parametrize("name", sorted(DEFECTS))
    def test_defect_trips_production_and_oracle_alike(self, name):
        """Production and the oracle in ``tests/oracles/invariants.py``
        raise the same message on the same event; ``PairedRun`` fails
        at the first event where they disagree."""
        defect, expected = DEFECTS[name]
        run = PairedRun(replace(BUNDLED_SCENARIOS["smoke"], hot_spares=1),
                        defect)
        assert run.violation == (run.events, expected)
        assert run.error == expected


class TestHarness:
    def test_log_starts_and_ends_with_scenario_markers(self, smoke_result):
        assert smoke_result.event_log[0][1] == "scenario_start"
        assert smoke_result.event_log[-1][1] == "scenario_end"

    def test_every_fault_is_logged(self, smoke_result):
        injected = [entry for entry in smoke_result.event_log
                    if entry[1] == "fault_injected"]
        assert len(injected) == smoke_result.summary.faults_injected

    def test_log_timestamps_monotonic(self, smoke_result):
        times = [entry[0] for entry in smoke_result.event_log]
        assert times == sorted(times)

    def test_summary_headline_numbers(self, smoke_result):
        summary = smoke_result.summary
        assert summary.scenario == "smoke"
        assert summary.faults_injected == 4
        assert summary.mttf_hours > 0
        assert 0.0 <= summary.recovery_success_rate <= 1.0
        assert 0.0 < summary.pretrain_goodput <= 1.0
        assert summary.pretrain_iterations > 0

    def test_summary_render_and_json(self, smoke_result):
        text = smoke_result.summary.render()
        assert "recovery (compare §6.1.2)" in text
        parsed = json.loads(smoke_result.summary.to_json())
        assert parsed["scenario"] == "smoke"

    def test_flaky_node_escalates_to_faulty(self):
        harness = ChaosHarness(BUNDLED_SCENARIOS["flaky-node"])
        result = harness.run()
        assert result.summary.nodes_escalated >= 1
        kinds = {entry[1] for entry in result.event_log}
        assert "recovery_escalate" in kinds
        assert "node_repaired" in kinds
        faulty = [node for node in harness.nodes
                  if node.health is NodeHealth.FAULTY]
        assert faulty
        for node in faulty:
            with pytest.raises(RuntimeError):
                node.uncordon()

    def test_script_failures_are_not_resubmitted(self):
        # seeds until a script fault lands on a running job, then check
        # the harness refused to restart it
        for seed in range(30):
            scenario = BUNDLED_SCENARIOS["mixed"].with_seed(seed)
            if not any(f.category is FailureCategory.SCRIPT
                       for f in scenario.build_faults()):
                continue
            result = run_scenario(scenario)
            kinds = {entry[1] for entry in result.event_log}
            if "job_not_restarted" in kinds:
                return
        pytest.fail("no seed produced a script fault on a running job")

    def test_chaos_recovery_table_rows(self, smoke_result):
        rows = chaos_recovery_table([smoke_result.summary])
        assert len(rows) == 1
        assert rows[0]["scenario"] == "smoke"
        assert rows[0]["faults"] == 4


class TestPretrainProcess:
    def make_process(self, **overrides):
        engine = Engine()
        checkpoints = []
        kwargs = dict(engine=engine, name="job", step_time=10.0,
                      total_iterations=100, steps_per_checkpoint=5,
                      on_checkpoint=checkpoints.append)
        kwargs.update(overrides)
        return PretrainProcess(**kwargs), engine, checkpoints

    def test_steps_and_checkpoints_are_deterministic(self):
        process, engine, checkpoints = self.make_process()
        process.start()
        engine.run(until=100.0)
        assert process.iteration == 10
        assert checkpoints == [5, 10]

    def test_finishes_and_reports_done(self):
        done = []
        process, engine, _ = self.make_process(total_iterations=8,
                                               on_done=done.append)
        process.start()
        engine.run()
        assert done == [8]
        assert process.done_at == 80.0
        assert not process.running

    def test_interrupt_stops_stepping(self):
        process, engine, _ = self.make_process()
        process.start()
        engine.run(until=35.0)
        step = process.interrupt("NVLinkError")
        assert step == 3
        engine.run(until=100.0)
        assert process.iteration == 3  # no ticks after the interrupt

    def test_restart_accounts_lost_iterations(self):
        process, engine, _ = self.make_process()
        process.start()
        engine.run(until=73.0)
        step = process.interrupt("fault")
        assert step == 7
        process.restart_from(5, delay=20.0)
        assert process.lost_iterations == 2
        assert process.restarts == 1
        engine.run(until=113.0)  # resumes at t=93, steps at 103, 113
        assert process.iteration == 7

    def test_restart_cannot_move_forward(self):
        process, engine, _ = self.make_process()
        process.start()
        engine.run(until=30.0)
        process.interrupt("fault")
        with pytest.raises(ValueError):
            process.restart_from(5)
        with pytest.raises(ValueError):
            process.restart_from(-1)

    def test_lifecycle_guards(self):
        process, engine, _ = self.make_process()
        with pytest.raises(RuntimeError):
            process.interrupt("not running")
        process.start()
        with pytest.raises(RuntimeError):
            process.start()
        with pytest.raises(RuntimeError):
            process.restart_from(0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            self.make_process(step_time=0.0)
        with pytest.raises(ValueError):
            self.make_process(total_iterations=0)
        with pytest.raises(ValueError):
            self.make_process(steps_per_checkpoint=0)


class TestChaosCli:
    def test_smoke_scenario_runs(self, capsys):
        assert main(["chaos", "--scenario", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "chaos run" in out
        assert "recovery (compare §6.1.2)" in out

    def test_overrides_and_log(self, capsys):
        assert main(["chaos", "--scenario", "smoke", "--seed", "3",
                     "--faults", "2", "--log"]) == 0
        out = capsys.readouterr().out
        assert "scenario_start" in out
        assert "faults injected" in out

    def test_json_out_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--scenario", "smoke",
                     "--json-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["scenario"] == "smoke"
        assert payload["event_log"]

    def test_network_faults_flag_selects_scenario(self, capsys):
        assert main(["chaos", "--network-faults", "network-storm"]) == 0
        out = capsys.readouterr().out
        assert "network-storm" in out
        assert "network fabric" in out

    def test_network_faults_flag_overrides_count(self, capsys):
        assert main(["chaos", "--scenario", "smoke",
                     "--network-faults", "0"]) == 0
        out = capsys.readouterr().out
        assert "network faults: 0" in out

    def test_failure_domain_flags_override(self, capsys):
        assert main(["chaos", "--scenario", "smoke",
                     "--straggler-faults", "1", "--power-faults", "1",
                     "--hot-spares", "1"]) == 0
        out = capsys.readouterr().out
        assert "stragglers injected: 1" in out
        assert "power caps: 1" in out

    def test_negative_hot_spares_rejected(self, capsys):
        assert main(["chaos", "--scenario", "smoke",
                     "--hot-spares", "-1"]) == 2

    def test_negative_faults_rejected(self, capsys):
        assert main(["chaos", "--scenario", "smoke",
                     "--faults", "-1"]) == 2
        out = capsys.readouterr().out
        assert "invalid override: n_faults must be non-negative" in out

    def test_network_faults_flag_rejects_garbage(self, capsys):
        assert main(["chaos", "--network-faults", "not-a-thing"]) == 2
        out = capsys.readouterr().out
        assert "--network-faults expects" in out


class TestFailureDomainInvariants:
    """Invariants 12-14: straggler accounting, spare-pool coherence,
    and partial-partition conviction discipline."""

    def make_checker(self, **context):
        scheduler = SchedulerSimulator(
            SchedulerConfig(total_gpus=8, reserved_fraction=0.5))
        nodes = {f"n{i}": Node(name=f"n{i}", spec=seren_node_spec())
                 for i in range(2)}
        placements = {"n0": PRETRAIN_JOB_ID}
        return InvariantChecker(scheduler=scheduler, nodes=nodes,
                                placements=placements, **context)

    # -- invariant 12: stragglers detected or flagged --

    def test_loud_straggler_detected_in_bound_passes(self):
        checker = self.make_checker(horizon=10_000.0,
                                    straggler_detect_bound=3_000.0)
        checker.record_straggler(0, 100.0, "straggler", "n0")
        checker.record_straggler_detected(0, 2_000.0)
        checker.final_check()

    def test_detection_past_bound_is_a_violation(self):
        checker = self.make_checker(straggler_detect_bound=3_000.0)
        checker.record_straggler(0, 100.0, "straggler", "n0")
        with pytest.raises(InvariantViolation):
            checker.record_straggler_detected(0, 5_000.0)

    def test_undetected_loud_straggler_inside_horizon_is_a_violation(
            self):
        checker = self.make_checker(horizon=10_000.0,
                                    straggler_detect_bound=3_000.0)
        checker.record_straggler(0, 100.0, "straggler", "n0")
        with pytest.raises(InvariantViolation):
            checker.final_check()

    def test_silent_degrader_must_be_flagged_as_waste(self):
        checker = self.make_checker(horizon=10_000.0,
                                    straggler_detect_bound=3_000.0)
        checker.record_straggler(0, 100.0, "silent_degrader", "n1")
        with pytest.raises(InvariantViolation):
            checker.final_check()
        checker.record_silent_waste(0, 1.5)
        checker.final_check()

    def test_bound_landing_past_horizon_tolerates_no_detection(self):
        checker = self.make_checker(horizon=2_000.0,  # bound does not fit
                                    straggler_detect_bound=3_000.0)
        checker.record_straggler(0, 100.0, "straggler", "n0")
        checker.record_silent_waste(0, 0.2)
        checker.final_check()

    # -- invariant 13: spare-pool coherence --

    def test_clean_pool_passes_per_event_check(self):
        checker = self.make_checker(spare_pool=HotSparePool(["s0", "s1"]))
        checker.check(1.0)

    def test_spare_both_available_and_allocated_detected(self):
        pool = HotSparePool(["s0"])
        checker = self.make_checker(spare_pool=pool)
        pool.allocated["s0"] = "victim"  # corrupt: never removed
        with pytest.raises(InvariantViolation):
            checker.check(1.0)

    def test_reserved_spare_hosting_the_gang_detected(self):
        # n0 is placed
        checker = self.make_checker(spare_pool=HotSparePool(["n0"]))
        with pytest.raises(InvariantViolation):
            checker.check(1.0)

    def test_swap_record_must_match_pool_allocation(self):
        pool = HotSparePool(["s0"])
        checker = self.make_checker(spare_pool=pool)
        with pytest.raises(InvariantViolation):
            checker.record_spare_swap(1.0, "victim", "s0")  # not acquired
        pool.acquire("victim")
        checker.record_spare_swap(2.0, "victim", "s0")

    def test_spare_covering_itself_detected(self):
        checker = self.make_checker()
        with pytest.raises(InvariantViolation):
            checker.record_spare_swap(1.0, "s0", "s0")

    # -- invariant 14: convictions need a degraded path --

    def test_conviction_with_degraded_path_passes(self):
        checker = self.make_checker()
        checker.record_node_conviction(1.0, "n0", 0.2)

    def test_conviction_of_healthy_path_is_a_violation(self):
        checker = self.make_checker()
        with pytest.raises(InvariantViolation):
            checker.record_node_conviction(1.0, "n0", 1.0)

    def test_conviction_at_threshold_is_a_violation(self):
        checker = self.make_checker()
        with pytest.raises(InvariantViolation):
            checker.record_node_conviction(1.0, "n0",
                                           checker.network_min_factor)
