"""Tests for network fault injection, localization, and recovery."""

from dataclasses import replace

import pytest

from repro.chaos import (BUNDLED_SCENARIOS, ChaosHarness,
                         InvariantViolation, run_scenario)
from repro.chaos.fabric import MIN_FACTOR
from repro.chaos.invariants import InvariantChecker
from repro.chaos.scenario import (NETWORK_FAULT_DURATIONS,
                                  PARTITION_HIGH_FACTOR,
                                  PARTITION_LOW_FACTOR)
from repro.cluster.linkhealth import LinkHealth
from repro.failures.taxonomy import (NETWORK_CHAOS_REASONS,
                                     NETWORK_FAULT_KINDS)


def storm(**overrides):
    return replace(BUNDLED_SCENARIOS["network-storm"], **overrides)


class TestScenarioGeneration:
    def test_network_faults_are_deterministic(self):
        scenario = storm()
        assert (scenario.build_network_faults()
                == scenario.build_network_faults())

    def test_kinds_reasons_and_targets_are_valid(self):
        for fault in storm().build_network_faults():
            assert fault.kind in NETWORK_FAULT_KINDS
            assert fault.reason == NETWORK_CHAOS_REASONS[fault.kind]
            assert fault.target == "network"
            assert fault.link is not None
            tier, _, index = fault.link.partition(":")
            assert tier in ("nic", "leaf")
            assert index.isdigit()

    def test_windows_close_before_the_horizon(self):
        scenario = storm()
        longest = max(NETWORK_FAULT_DURATIONS.values())
        for fault in scenario.build_network_faults():
            assert 0.0 < fault.time <= 0.8 * scenario.duration
            assert fault.time + longest < scenario.duration

    def test_stream_isolation_from_other_faults(self):
        """Adding network faults must not perturb the node-fault or
        storage schedules (they draw from different seeded streams)."""
        with_network = storm()
        without = replace(with_network, n_network_faults=0)
        keep = [f for f in with_network.build_faults()
                if f.target != "network"]
        assert keep == without.build_faults()

    def test_switch_down_always_targets_a_leaf(self):
        faults = storm(n_network_faults=40,
                       network_fault_mix=(0.0, 0.0, 1.0),
                       ).build_network_faults()
        assert faults
        assert all(f.link.startswith("leaf:") for f in faults)

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            storm(network_fault_mix=(1.0, 0.0))
        with pytest.raises(ValueError):
            storm(network_fault_mix=(-1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            storm(n_network_faults=-1)

    def test_partition_factors_straddle_the_pass_threshold(self):
        """Some partition links fail the NCCL probe and some pass it —
        the asymmetry localization has to untangle."""
        assert (0.0 < PARTITION_LOW_FACTOR < MIN_FACTOR
                <= PARTITION_HIGH_FACTOR < 1.0)


class TestHarnessWiring:
    def test_faults_arm_the_link_health_overlay(self):
        harness = ChaosHarness(storm())
        network = [f for f in harness.faults if f.target == "network"]
        assert network
        assert not harness.fabric.link_health.empty
        for fault in network:
            # every fault window is live on its link at its midpoint
            if fault.kind == "link_degraded":
                mid = fault.time + 1.0
                assert harness.fabric.link_health.factor(
                    fault.link, mid) < 1.0
            else:
                assert harness.fabric.link_health.is_down(
                    fault.link, fault.time + 1.0)

    def test_switch_down_expands_to_member_nics(self):
        scenario = storm(n_network_faults=40,
                         network_fault_mix=(0.0, 0.0, 1.0))
        harness = ChaosHarness(scenario)
        fault = next(f for f in harness.faults if f.target == "network")
        leaf = int(fault.link.split(":", 1)[1])
        first = leaf * scenario.nodes_per_leaf
        assert harness.fabric.link_health.is_down(f"nic:{first}",
                                                  fault.time + 1.0)

    def test_disabled_network_faults_leave_no_overlay(self):
        harness = ChaosHarness(storm(n_network_faults=0))
        assert harness.fabric.link_health.empty
        assert not harness.fabric.armed

    def test_summary_counts_zero_when_disabled(self):
        result = run_scenario(storm(n_network_faults=0))
        summary = result.summary
        assert summary.network_faults == 0
        assert summary.segment_convictions == 0
        assert summary.gang_migrations == 0
        assert summary.network_slowdown_hours == 0.0

    def test_run_is_byte_identical(self):
        first = run_scenario(storm())
        second = run_scenario(storm())
        assert first.event_log_text() == second.event_log_text()
        assert first.summary.to_json() == second.summary.to_json()


class TestStormOutcome:
    @pytest.fixture(scope="class")
    def harness(self):
        harness = ChaosHarness(BUNDLED_SCENARIOS["network-storm"])
        harness.run()
        return harness

    @pytest.fixture(scope="class")
    def result(self, harness):
        from repro.chaos.report import summarize
        return summarize(harness)

    def test_conviction_followed_by_migration(self, harness):
        kinds = [kind for _, kind, _ in harness.event_log]
        assert "recovery_cordon_segment" in kinds
        conviction = kinds.index("recovery_cordon_segment")
        assert "gang_migrated" in kinds[conviction:]

    def test_fabric_heals_by_the_horizon(self, harness, result):
        assert result.segments_cordoned_end == 0
        assert harness.pretrain.step_factor == 1.0
        assert not harness.fabric.cordoned_segments

    def test_degraded_window_accrues_slowdown(self, harness, result):
        assert result.network_slowdown_hours > 0.0
        assert any(kind == "gang_step_factor"
                   for _, kind, _ in harness.event_log)

    def test_slowdown_counts_as_waste(self, harness, result):
        scenario = BUNDLED_SCENARIOS["network-storm"]
        floor = (harness.pretrain.slowdown_seconds
                 * scenario.pretrain_gpus / 3600.0)
        assert result.wasted_gpu_hours >= floor

    def test_many_seeds_hold_every_invariant(self):
        for seed in range(20, 26):
            run_scenario(storm(seed=seed))  # raises on violation


class TestNetworkInvariants:
    def make_checker(self):
        checker = InvariantChecker.__new__(InvariantChecker)
        # minimal fields for the network checks only
        checker.network_health = None
        checker.network_min_factor = 0.5
        checker.cordoned_segments = set()
        return checker

    def test_placement_across_downed_link_raises(self):
        checker = self.make_checker()
        with pytest.raises(InvariantViolation, match="downed link"):
            checker.record_gang_placement(10.0, ("leaf:1",))

    def test_clean_placement_is_recorded(self):
        checker = self.make_checker()
        checker.record_gang_placement(10.0, ())

    def test_convicting_a_healthy_segment_raises(self):
        checker = self.make_checker()
        checker.network_health = LinkHealth()  # all links healthy
        with pytest.raises(InvariantViolation, match="at or above"):
            checker.record_segment_conviction(10.0, "leaf:0")

    def test_convicting_a_sick_segment_is_recorded(self):
        checker = self.make_checker()
        health = LinkHealth()
        health.link_down("leaf:0", start=0.0, end=100.0)
        checker.network_health = health
        checker.record_segment_conviction(10.0, "leaf:0")


class TestPretrainStepFactor:
    def make_process(self):
        from repro.sim.engine import Engine
        from repro.training.pretrain import PretrainProcess

        engine = Engine()
        process = PretrainProcess(engine, name="pretrain",
                                  step_time=10.0,
                                  total_iterations=100_000,
                                  steps_per_checkpoint=1000)
        return engine, process

    def test_stretch_slows_steps_and_accrues_slowdown(self):
        engine, process = self.make_process()
        process.set_step_factor(2.0)
        process.start(0.0)
        engine.run(until=100.0)
        assert process.iteration == 5  # 20s per step, not 10s
        # slowdown accrues as each step is *scheduled*, so the step in
        # flight at the horizon is counted too: 6 x (20 - 10) seconds
        assert process.slowdown_seconds == pytest.approx(60.0)

    def test_factor_one_is_exact_noop(self):
        engine, process = self.make_process()
        process.start(0.0)
        engine.run(until=100.0)
        assert process.iteration == 10
        assert process.slowdown_seconds == 0.0

    def test_rejects_speedup(self):
        _, process = self.make_process()
        with pytest.raises(ValueError):
            process.set_step_factor(0.5)
