"""Tests for fault detection and recovery (§6.1, design 3)."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Node, NodeHealth, seren_node_spec
from repro.core.diagnosis import DiagnosisSystem
from repro.core.recovery import (AnomalyEvent, CheckpointCatalog,
                                 CollectiveTester, FabricCollectiveTester,
                                 HotSparePool, LossSpikeDetector,
                                 RecoveryController,
                                 StepTimeDeviationDetector, leaf_segment,
                                 localize_network_faults, pod_segment,
                                 two_round_nccl_test, World)
from repro.failures.logs import LogGenerator


class TestNcclTest:
    def test_single_faulty_node_identified(self):
        nodes = [f"n{i}" for i in range(8)]
        tester = CollectiveTester({"n3"})
        result = two_round_nccl_test(nodes, tester)
        assert result.faulty == {"n3"}
        assert "n3" not in result.cleared

    def test_faulty_pair_in_same_world(self):
        nodes = [f"n{i}" for i in range(8)]
        tester = CollectiveTester({"n0", "n1"})  # paired together
        result = two_round_nccl_test(nodes, tester)
        assert result.faulty == {"n0", "n1"}

    def test_odd_node_count_uses_world_of_three(self):
        nodes = [f"n{i}" for i in range(7)]
        tester = CollectiveTester({"n6"})
        result = two_round_nccl_test(nodes, tester)
        assert result.faulty == {"n6"}
        assert result.cleared == set(nodes) - {"n6"}

    def test_exactly_three_nodes_form_one_world(self):
        nodes = ["a", "b", "c"]
        tester = CollectiveTester({"b"})
        result = two_round_nccl_test(nodes, tester)
        # The lone world of three fails; with no passing world there is
        # no trusted partner, so all three are conservatively convicted.
        assert result.suspects_after_round1 == set(nodes)
        assert result.faulty == set(nodes)

    def test_exactly_three_healthy_nodes_all_clear(self):
        nodes = ["a", "b", "c"]
        result = two_round_nccl_test(nodes, CollectiveTester(set()))
        assert result.faulty == set()
        assert result.cleared == set(nodes)

    def test_no_faults_clears_everyone_in_one_round(self):
        nodes = [f"n{i}" for i in range(10)]
        tester = CollectiveTester(set())
        result = two_round_nccl_test(nodes, tester)
        assert result.faulty == set()
        assert result.cleared == set(nodes)
        assert tester.tests_run == 5  # round 1 only

    def test_all_faulty_convicts_all(self):
        nodes = ["a", "b", "c", "d"]
        tester = CollectiveTester(set(nodes))
        result = two_round_nccl_test(nodes, tester)
        assert result.faulty == set(nodes)

    def test_empty_input(self):
        result = two_round_nccl_test([], CollectiveTester(set()))
        assert result.faulty == set()

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            two_round_nccl_test(["a", "a"], CollectiveTester(set()))

    def test_far_fewer_tests_than_pairwise(self):
        nodes = [f"n{i}" for i in range(64)]
        tester = CollectiveTester({"n10", "n40"})
        two_round_nccl_test(nodes, tester)
        assert tester.tests_run < 64  # vs 64*63/2 exhaustive pairs

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            CollectiveTester(set()).run_allgather(World(()))

    @given(n=st.integers(2, 40), faulty=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_identification_property(self, n, faulty):
        """Whenever a healthy world survives round 1, the procedure
        convicts exactly the faulty set."""
        nodes = [f"n{i}" for i in range(n)]
        k = faulty.draw(st.integers(0, n - 2))
        faulty_set = set(faulty.draw(st.permutations(nodes))[:k])
        tester = CollectiveTester(faulty_set)
        result = two_round_nccl_test(nodes, tester)
        if result.suspects_after_round1 and not (
                set(nodes) - result.suspects_after_round1):
            # no trusted partner existed: conservative conviction
            assert faulty_set <= result.faulty
        else:
            assert result.faulty == faulty_set


class TestDetectors:
    def test_persistent_spike_detected(self):
        detector = LossSpikeDetector(window=20, patience=3)
        step = 0
        for step in range(30):
            assert detector.observe(step, 2.0) is None
        event = None
        for offset in range(1, 6):
            event = detector.observe(step + offset, 8.0)
            if event:
                break
        assert event is not None
        assert event.kind == "loss_spike"

    def test_transient_spike_ignored(self):
        detector = LossSpikeDetector(window=20, patience=5)
        for step in range(30):
            detector.observe(step, 2.0)
        assert detector.observe(30, 8.0) is None  # single blip
        assert detector.observe(31, 2.0) is None  # recovered
        for step in range(32, 40):
            assert detector.observe(step, 2.0) is None

    def test_gradual_descent_never_flags(self):
        detector = LossSpikeDetector()
        events = [detector.observe(step, 5.0 - step * 0.01)
                  for step in range(200)]
        assert not any(events)

    def test_spike_stats_not_polluted_by_spikes(self):
        detector = LossSpikeDetector(window=20, patience=2)
        for step in range(30):
            detector.observe(step, 2.0)
        detector.observe(30, 50.0)
        event = detector.observe(31, 50.0)
        assert event is not None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LossSpikeDetector(window=1)

    def test_warmup_shorter_than_window_never_flags(self):
        """With fewer than window // 2 samples the stats are untrusted."""
        detector = LossSpikeDetector(window=20, patience=1)
        for step in range(9):
            assert detector.observe(step, 2.0) is None
        assert detector.observe(9, 1000.0) is None  # still warming up

    def test_spike_exactly_at_relative_floor_is_not_elevated(self):
        """The bound is strict: loss == mean * (1 + floor) stays healthy."""
        at_bound = LossSpikeDetector(window=20, patience=1)
        above_bound = LossSpikeDetector(window=20, patience=1)
        for step in range(20):
            at_bound.observe(step, 2.0)
            above_bound.observe(step, 2.0)
        bound = 2.0 + 0.15 * 2.0  # std == 0, so the relative floor rules
        assert at_bound.observe(20, bound) is None
        assert above_bound.observe(20, bound + 1e-9) is not None

    def test_recovery_on_step_before_patience_resets_the_run(self):
        detector = LossSpikeDetector(window=20, patience=3)
        for step in range(20):
            detector.observe(step, 2.0)
        assert detector.observe(20, 8.0) is None
        assert detector.observe(21, 8.0) is None  # patience - 1 elevated
        assert detector.observe(22, 2.0) is None  # recovers just in time
        assert detector.observe(23, 8.0) is None  # old run must not carry
        assert detector.observe(24, 8.0) is None
        assert detector.observe(25, 8.0) is not None  # fresh full run


class TestCheckpointCatalog:
    def test_latest(self):
        catalog = CheckpointCatalog([100, 300, 200])
        assert catalog.latest() == 300

    def test_earlier_healthy_rolls_back(self):
        catalog = CheckpointCatalog([100, 200, 300, 400, 500])
        assert catalog.earlier_healthy(before_step=520, back=2) == 300

    def test_earlier_healthy_clamps_at_first(self):
        catalog = CheckpointCatalog([100])
        assert catalog.earlier_healthy(before_step=150, back=5) == 100

    def test_empty_catalog(self):
        assert CheckpointCatalog().latest() is None
        assert CheckpointCatalog().earlier_healthy(100) is None

    def test_mark_bad_quarantines_a_generation(self):
        catalog = CheckpointCatalog([100, 200, 300])
        catalog.mark_bad(300)
        assert catalog.latest() == 200
        assert catalog.quarantined == [300]
        assert catalog.earlier_healthy(before_step=310, back=0) == 200

    def test_mark_bad_is_idempotent_and_tolerates_unknown_steps(self):
        catalog = CheckpointCatalog([100])
        catalog.mark_bad(100)
        catalog.mark_bad(100)
        catalog.mark_bad(999)  # never persisted; nothing to remove
        assert catalog.quarantined == [100, 999]
        assert catalog.latest() is None


class TestRecoveryController:
    def make_controller(self, steps=(100, 200, 300)):
        nodes = [Node(name=f"n{i}", spec=seren_node_spec())
                 for i in range(6)]
        controller = RecoveryController(
            DiagnosisSystem(), CheckpointCatalog(list(steps)), nodes)
        return controller, nodes

    def test_infrastructure_failure_cordons_and_restarts(self):
        controller, nodes = self.make_controller()
        log = LogGenerator(seed=1).failed_log("NVLinkError", n_steps=30)
        tester = CollectiveTester({"n2"})
        plan = controller.handle_failure(log.lines, tester)
        assert plan.restart
        assert plan.restart_checkpoint_step == 300
        assert plan.cordoned_nodes == {"n2"}
        assert not nodes[2].schedulable

    def test_script_failure_never_restarts(self):
        controller, _ = self.make_controller()
        log = LogGenerator(seed=2).failed_log("TypeError", n_steps=20)
        plan = controller.handle_failure(log.lines)
        assert not plan.restart
        assert any(action.kind == "notify" for action in plan.actions)

    def test_framework_failure_restarts_and_notifies(self):
        controller, _ = self.make_controller()
        log = LogGenerator(seed=3).failed_log("OutOfMemoryError",
                                              n_steps=20)
        plan = controller.handle_failure(log.lines)
        assert plan.restart
        assert any(action.kind == "notify" for action in plan.actions)

    def test_loss_spike_rolls_back_and_skips_data(self):
        controller, _ = self.make_controller()
        event = AnomalyEvent(kind="loss_spike", step=310, detail="")
        plan = controller.handle_anomaly(event)
        assert plan.restart
        assert plan.skip_batches
        assert plan.restart_checkpoint_step == 100  # two saves earlier

    def test_hang_treated_as_infrastructure(self):
        controller, _ = self.make_controller()
        event = AnomalyEvent(kind="hang", step=42, detail="")
        plan = controller.handle_anomaly(event,
                                         CollectiveTester({"n1"}))
        assert plan.restart
        assert plan.cordoned_nodes == {"n1"}

    def test_unknown_anomaly_rejected(self):
        controller, _ = self.make_controller()
        with pytest.raises(ValueError):
            controller.handle_anomaly(AnomalyEvent("alien", 1, ""))

    def test_automation_rate_tracks_script_errors(self):
        controller, _ = self.make_controller()
        generator = LogGenerator(seed=4)
        controller.handle_failure(
            generator.failed_log("CUDAError", n_steps=20).lines)
        controller.handle_failure(
            generator.failed_log("TypeError", n_steps=20).lines)
        assert controller.manual_interventions() == 1
        assert controller.automation_rate() == pytest.approx(0.5)

    def test_no_checkpoint_restarts_from_scratch(self):
        nodes = [Node(name="n0", spec=seren_node_spec())]
        controller = RecoveryController(DiagnosisSystem(),
                                        CheckpointCatalog(), nodes)
        log = LogGenerator(seed=5).failed_log("ECCError", n_steps=20)
        plan = controller.handle_failure(log.lines)
        assert plan.restart
        assert plan.restart_checkpoint_step == 0

    def test_storage_alerts_do_not_count_as_interventions(self):
        controller, _ = self.make_controller()
        controller.record_storage_alert(120, "persist degraded: 3 attempts")
        controller.record_storage_alert(240, "persist failed: outage")
        assert controller.storage_alerts == [
            (120, "persist degraded: 3 attempts"),
            (240, "persist failed: outage")]
        assert controller.manual_interventions() == 0

    def test_loss_spike_without_checkpoint_does_not_restart(self):
        """No rollback target -> notify, never a blind restart."""
        nodes = [Node(name="n0", spec=seren_node_spec())]
        controller = RecoveryController(DiagnosisSystem(),
                                        CheckpointCatalog(), nodes)
        event = AnomalyEvent(kind="loss_spike", step=50, detail="")
        plan = controller.handle_anomaly(event)
        assert not plan.restart
        assert not plan.skip_batches
        assert any(action.kind == "notify" for action in plan.actions)


class TestCordonEscalation:
    def make_controller(self):
        nodes = [Node(name=f"n{i}", spec=seren_node_spec())
                 for i in range(6)]
        controller = RecoveryController(
            DiagnosisSystem(), CheckpointCatalog([100]), nodes)
        return controller, nodes

    def infra_failure(self, controller, seed):
        log = LogGenerator(seed=seed).failed_log("NVLinkError", n_steps=20)
        return controller.handle_failure(log.lines, CollectiveTester({"n3"}))

    def test_first_conviction_cordons(self):
        controller, nodes = self.make_controller()
        plan = self.infra_failure(controller, seed=31)
        assert nodes[3].health is NodeHealth.CORDONED
        assert controller.conviction_counts == {"n3": 1}
        assert not any(a.kind == "escalate" for a in plan.actions)

    def test_repeat_offender_escalates_to_faulty(self):
        controller, nodes = self.make_controller()
        self.infra_failure(controller, seed=32)
        nodes[3].uncordon()  # repaired and returned to service
        plan = self.infra_failure(controller, seed=33)
        assert nodes[3].health is NodeHealth.FAULTY
        assert controller.conviction_counts == {"n3": 2}
        assert any(a.kind == "escalate" for a in plan.actions)

    def test_cordoned_node_is_excluded_until_repaired(self):
        """While cordoned, the node is out of the NCCL test world, so it
        cannot accumulate a second conviction."""
        controller, nodes = self.make_controller()
        self.infra_failure(controller, seed=34)
        plan = self.infra_failure(controller, seed=35)
        assert controller.conviction_counts == {"n3": 1}
        assert plan.cordoned_nodes == set()
        assert nodes[3].health is NodeHealth.CORDONED

    def test_faulty_node_cannot_be_uncordoned(self):
        node = Node(name="n0", spec=seren_node_spec())
        node.mark_faulty()
        assert not node.schedulable
        with pytest.raises(RuntimeError):
            node.uncordon()

    def test_cordon_does_not_demote_faulty(self):
        node = Node(name="n0", spec=seren_node_spec())
        node.mark_faulty()
        node.cordon()
        assert node.health is NodeHealth.FAULTY


class TestLinkLocalization:
    """Topology-aware localization: nodes vs leaf-uplink segments."""

    def setup_method(self):
        # 12 nodes, 6 leaves of 2 — the network-storm shape.
        self.nodes = [f"n{i}" for i in range(12)]
        self.leaf_of = {f"n{i}": i // 2 for i in range(12)}

    def make_tester(self, node_factors=None, segment_factors=None,
                    faulty=()):
        return FabricCollectiveTester(
            self.leaf_of, node_factors=node_factors,
            segment_factors=segment_factors, faulty_nodes=faulty)

    def test_healthy_fabric_clears_everyone(self):
        tester = self.make_tester()
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of)
        assert result.cleared == set(self.nodes)
        assert not result.faulty_nodes
        assert not result.faulty_segments
        assert not result.ambiguous_segments

    def test_degraded_uplink_convicts_the_segment_not_nodes(self):
        tester = self.make_tester(segment_factors={"leaf:2": 0.3})
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of)
        assert result.faulty_segments == {"leaf:2"}
        assert not result.faulty_nodes
        # intra-leaf traffic never crosses the uplink, so the members
        # themselves test clean
        assert {"n4", "n5"} <= result.cleared

    def test_degraded_nic_convicts_the_node_not_its_uplink(self):
        tester = self.make_tester(node_factors={"n5": 0.2})
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of)
        assert result.faulty_nodes == {"n5"}
        assert not result.faulty_segments
        assert "n5" not in result.cleared

    def test_mixed_nic_and_uplink_faults_both_pinned(self):
        tester = self.make_tester(node_factors={"n0": 0.0},
                                  segment_factors={"leaf:4": 0.0})
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of)
        assert result.faulty_nodes == {"n0"}
        assert result.faulty_segments == {"leaf:4"}
        # n0's partner is exonerated via the cross-leaf probe
        assert "n1" in result.cleared

    def test_two_leaf_world_is_never_convicted_on_one_witness(self):
        nodes = ["n0", "n1", "n2", "n3"]
        leaf_of = {"n0": 0, "n1": 0, "n2": 1, "n3": 1}
        tester = FabricCollectiveTester(
            leaf_of, segment_factors={"leaf:1": 0.1})
        result = localize_network_faults(nodes, tester, leaf_of)
        # One cross-leaf witness cannot tell which uplink is sick:
        # both stay ambiguous, neither is convicted (invariant 11).
        assert not result.faulty_segments
        assert result.ambiguous_segments == {"leaf:0", "leaf:1"}

    def test_lone_rep_cannot_convict_its_uplink(self):
        """Regression: a leaf with a single schedulable member has an
        untested NIC; a cycle double-failure must convict the node, not
        the (possibly healthy) uplink."""
        nodes = ["n0", "n1", "n2", "n4", "n5", "n6", "n7"]  # n3 gone
        tester = FabricCollectiveTester(
            self.leaf_of, node_factors={"n2": 0.2})
        result = localize_network_faults(nodes, tester, self.leaf_of)
        assert result.faulty_nodes == {"n2"}
        assert not result.faulty_segments
        assert leaf_segment(1) in result.ambiguous_segments

    def test_injected_faulty_node_detected(self):
        tester = self.make_tester(faulty=("n7",))
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of)
        assert "n7" in result.faulty_nodes

    def test_empty_input(self):
        result = localize_network_faults([], self.make_tester(),
                                         self.leaf_of)
        assert not result.faulty_nodes and not result.faulty_segments

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            localize_network_faults(["n0", "n0"], self.make_tester(),
                                    self.leaf_of)

    def test_single_node_world_moves_no_fabric_bytes(self):
        tester = self.make_tester(node_factors={"n0": 0.0})
        assert tester.run_allgather(World(("n0",)))  # NIC not exercised
        assert not tester.run_allgather(World(("n0", "n1")))


class TestHandleNetworkFault:
    def make_controller(self):
        nodes = [Node(name=f"n{i}", spec=seren_node_spec())
                 for i in range(8)]
        leaf_of = {f"n{i}": i // 2 for i in range(8)}
        controller = RecoveryController(
            DiagnosisSystem(), CheckpointCatalog([100, 200]), nodes,
            leaf_of=leaf_of)
        return controller, nodes, leaf_of

    def test_requires_topology_map(self):
        nodes = [Node(name="n0", spec=seren_node_spec())]
        controller = RecoveryController(
            DiagnosisSystem(), CheckpointCatalog(), nodes)
        tester = FabricCollectiveTester({"n0": 0})
        with pytest.raises(ValueError, match="topology"):
            controller.handle_network_fault("link_down on nic:0", tester)

    def test_segment_conviction_cordons_and_restarts(self):
        controller, nodes, leaf_of = self.make_controller()
        tester = FabricCollectiveTester(
            leaf_of, segment_factors={"leaf:1": 0.0})
        plan = controller.handle_network_fault("link_down on leaf:1",
                                               tester)
        assert plan.cordoned_segments == {"leaf:1"}
        assert controller.segment_convictions == {"leaf:1": 1}
        assert not plan.cordoned_nodes
        kinds = [a.kind for a in plan.actions]
        assert "localize" in kinds and "cordon_segment" in kinds
        assert plan.restart and plan.restart_checkpoint_step == 200
        # nodes stay schedulable: the fabric is sick, not the hosts
        assert all(node.schedulable for node in nodes)

    def test_node_conviction_goes_through_cordon_path(self):
        controller, nodes, leaf_of = self.make_controller()
        tester = FabricCollectiveTester(leaf_of,
                                        node_factors={"n3": 0.1})
        plan = controller.handle_network_fault("link_degraded on nic:3",
                                               tester, restart=False)
        assert plan.cordoned_nodes == {"n3"}
        assert controller.conviction_counts == {"n3": 1}
        assert not nodes[3].schedulable
        assert not plan.restart  # degraded path resumes in place

    def test_ambiguous_segment_notifies_instead_of_cordoning(self):
        controller, nodes, leaf_of = self.make_controller()
        # cordon leaf 0's partner so its lone rep cannot pin the uplink
        nodes[1].cordon()
        tester = FabricCollectiveTester(
            leaf_of, segment_factors={"leaf:0": 0.0})
        plan = controller.handle_network_fault("link_down on leaf:0",
                                               tester)
        assert "leaf:0" not in plan.cordoned_segments
        assert any(a.kind == "notify" and "leaf:0" in a.detail
                   for a in plan.actions)

    def test_incidents_are_recorded(self):
        controller, _, leaf_of = self.make_controller()
        tester = FabricCollectiveTester(leaf_of)
        controller.handle_network_fault("link flap", tester)
        assert len(controller.incidents) == 1


class TestStepTimeDeviationDetector:
    def test_sustained_deviation_fires_after_patience(self):
        detector = StepTimeDeviationDetector(threshold=1.15, patience=2)
        assert detector.observe(10, 1.3) is None
        event = detector.observe(11, 1.3)
        assert event is not None and event.kind == "straggler"

    def test_single_elevated_probe_is_ignored(self):
        detector = StepTimeDeviationDetector(threshold=1.15, patience=2)
        assert detector.observe(10, 1.5) is None
        assert detector.observe(11, 1.0) is None  # streak reset
        assert detector.observe(12, 1.5) is None

    def test_below_threshold_never_fires(self):
        detector = StepTimeDeviationDetector(threshold=1.15, patience=1)
        for step in range(50):
            assert detector.observe(step, 1.1) is None

    def test_rearms_after_reporting(self):
        detector = StepTimeDeviationDetector(threshold=1.15, patience=2)
        detector.observe(0, 1.3)
        assert detector.observe(1, 1.3) is not None
        assert detector.observe(2, 1.3) is None  # streak restarted
        assert detector.observe(3, 1.3) is not None

    def test_threshold_boundary_counts(self):
        detector = StepTimeDeviationDetector(threshold=1.15, patience=1)
        assert detector.observe(0, 1.15) is not None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StepTimeDeviationDetector(threshold=1.0)
        with pytest.raises(ValueError):
            StepTimeDeviationDetector(patience=0)


class TestHotSparePool:
    def test_acquires_in_name_order(self):
        pool = HotSparePool(["s2", "s0", "s1"])
        assert pool.acquire("victim-a") == "s0"
        assert pool.acquire("victim-b") == "s1"
        assert pool.available == ("s2",)
        assert pool.allocated == {"s0": "victim-a", "s1": "victim-b"}

    def test_dry_pool_returns_none(self):
        pool = HotSparePool(["s0"])
        assert pool.acquire("a") == "s0"
        assert pool.dry
        assert pool.acquire("b") is None

    def test_eligibility_filter_skips_spares(self):
        pool = HotSparePool(["s0", "s1"])
        assert pool.acquire("a", eligible=lambda s: s != "s0") == "s1"
        assert pool.available == ("s0",)

    def test_reclaim_rotates_victim_in_as_standby(self):
        pool = HotSparePool(["s0"])
        pool.acquire("victim")
        assert pool.reclaim("victim") == "s0"
        # the spare stays in service; the repaired victim is the new
        # standby capacity
        assert pool.available == ("victim",)
        assert not pool.allocated

    def test_reclaimed_spare_hands_its_coverage_on(self):
        """F→S→T: when S is repaired, T covers F and S is only standby."""
        pool = HotSparePool(["S", "T"])
        assert pool.acquire("F") == "S"
        assert pool.acquire("S") == "T"
        assert pool.reclaim("S") == "T"
        assert pool.available == ("S",)
        assert pool.allocated == {"T": "F"}
        assert pool.reclaim("F") == "T"
        assert pool.allocated == {}

    def test_reclaim_unknown_victim_is_none(self):
        pool = HotSparePool(["s0"])
        assert pool.reclaim("never-swapped") is None
        assert pool.available == ("s0",)

    def test_swap_costs_scale_with_gang(self):
        pool = HotSparePool(["s0"], swap_delay=120.0,
                            reschedule_delay=300.0, gang_gpus=32)
        assert pool.swap_cost_gpu_hours() == pytest.approx(
            120.0 * 32 / 3600.0)
        assert pool.reschedule_cost_gpu_hours() == pytest.approx(
            300.0 * 32 / 3600.0)
        assert (pool.swap_cost_gpu_hours()
                < pool.reschedule_cost_gpu_hours())

    def test_duplicate_spares_rejected(self):
        with pytest.raises(ValueError):
            HotSparePool(["s0", "s0"])

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            HotSparePool(["s0"], swap_delay=-1.0)


class TestPodLocalization:
    """Pod-tier (core-uplink) localization: worlds that span pods also
    exercise ``pod:{p}`` segments, and partial partitions must never
    convict a fully-healthy segment."""

    def setup_method(self):
        # 24 nodes, 12 leaves of 2, 3 pods of 4 leaves — three pods so
        # the pod cycle gives every core uplink two witnesses.
        self.nodes = [f"n{i}" for i in range(24)]
        self.leaf_of = {f"n{i}": i // 2 for i in range(24)}
        self.pod_of_leaf = {leaf: leaf // 4 for leaf in range(12)}

    def localize(self, node_factors=None, segment_factors=None):
        tester = FabricCollectiveTester(
            self.leaf_of, node_factors=node_factors,
            segment_factors=segment_factors,
            pod_of_leaf=self.pod_of_leaf)
        return localize_network_faults(self.nodes, tester, self.leaf_of,
                                       pod_of_leaf=self.pod_of_leaf)

    def test_healthy_two_pod_fabric_clears_everyone(self):
        result = self.localize()
        assert result.cleared == set(self.nodes)
        assert not result.faulty_segments

    def test_degraded_core_uplink_convicts_the_pod_segment(self):
        result = self.localize(segment_factors={pod_segment(1): 0.3})
        assert pod_segment(1) in result.faulty_segments
        assert not result.faulty_nodes
        # intra-pod traffic never crosses the core, so no leaf segment
        # (and no node) of pod 1 is swept up in the conviction
        assert not any(seg.startswith("leaf:")
                       for seg in result.faulty_segments)

    def test_two_pod_fabric_is_never_convicted_on_one_witness(self):
        # With two pods the single cross-pod world cannot tell which
        # core uplink is sick: both stay ambiguous, neither convicted.
        nodes = [f"n{i}" for i in range(16)]
        leaf_of = {f"n{i}": i // 2 for i in range(16)}
        pod_of_leaf = {leaf: leaf // 4 for leaf in range(8)}
        tester = FabricCollectiveTester(
            leaf_of, segment_factors={pod_segment(1): 0.3},
            pod_of_leaf=pod_of_leaf)
        result = localize_network_faults(nodes, tester, leaf_of,
                                         pod_of_leaf=pod_of_leaf)
        assert not result.faulty_segments
        assert result.ambiguous_segments == {pod_segment(0),
                                             pod_segment(1)}

    def test_partial_partition_convicts_only_the_sick_links(self):
        # invariant 14: a degraded NIC pair must not drag its healthy
        # leaf, pod, or partner nodes into the conviction
        result = self.localize(node_factors={"n3": 0.2, "n9": 0.15})
        assert result.faulty_nodes == {"n3", "n9"}
        assert not result.faulty_segments
        assert "n2" in result.cleared and "n8" in result.cleared

    def test_single_pod_mapping_matches_leaf_only_procedure(self):
        pod_of_leaf = {leaf: 0 for leaf in range(12)}
        tester = FabricCollectiveTester(
            self.leaf_of, segment_factors={"leaf:2": 0.3},
            pod_of_leaf=pod_of_leaf)
        result = localize_network_faults(self.nodes, tester,
                                         self.leaf_of,
                                         pod_of_leaf=pod_of_leaf)
        assert result.faulty_segments == {"leaf:2"}


class _RecordingTester(FabricCollectiveTester):
    """A fabric tester that logs every world it runs with its verdict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def run_allgather(self, world):
        ok = super().run_allgather(world)
        self.log.append((world.members, ok))
        return ok


#: health factors a random fabric draws from (the threshold is 0.5)
_FACTORS = (0.0, 0.2, 0.45, 0.5, 0.7, 1.0)


def random_fabric(rng):
    """One random fabric: 1-18 nodes, leaves of 1-4 nodes, no pod map
    or pods of 1-4 leaves, sick NICs, uplinks and core uplinks, faulty
    nodes, and a shuffled subset of the nodes to localize over.

    Returns ``(nodes, leaf_of, pod_of_leaf, tester_kwargs)``.
    """
    count = rng.choice((rng.randint(1, 18), rng.randint(12, 18)))
    names = [f"n{index}" for index in range(count)]
    leaf_of = {}
    start = leaves = 0
    while start < count:
        size = rng.choice((rng.randint(1, 4), 2))
        for name in names[start:start + size]:
            leaf_of[name] = leaves
        start += size
        leaves += 1
    pod_of_leaf = None
    if rng.random() < 0.5:
        pod_of_leaf = {}
        start = pods = 0
        while start < leaves:
            size = rng.choice((rng.randint(1, 4), rng.randint(2, 3)))
            for leaf in range(start, min(start + size, leaves)):
                pod_of_leaf[leaf] = pods
            start += size
            pods += 1
    rate = rng.choice((0.03, 0.1, 0.25))
    node_factors = {name: rng.choice(_FACTORS) for name in names
                    if rng.random() < rate}
    segment_factors = {leaf_segment(leaf): rng.choice(_FACTORS)
                       for leaf in range(leaves) if rng.random() < rate}
    # drawn with or without a pod map: without one they must not matter
    segment_factors.update({pod_segment(pod): rng.choice(_FACTORS)
                            for pod in range(6) if rng.random() < 0.3})
    faulty = [name for name in names if rng.random() < rate / 2]
    nodes = rng.sample(names, rng.choice((count, rng.randint(1, count))))
    return nodes, leaf_of, pod_of_leaf, {
        "node_factors": node_factors, "segment_factors": segment_factors,
        "faulty_nodes": faulty}


def localization_trace(nodes, leaf_of, pod_of_leaf, tester_kwargs):
    """The worlds one localization runs, with verdicts, and its result."""
    tester = _RecordingTester(leaf_of, pod_of_leaf=pod_of_leaf,
                              **tester_kwargs)
    result = localize_network_faults(nodes, tester, leaf_of,
                                     pod_of_leaf=pod_of_leaf)
    sets = (result.faulty_nodes, result.faulty_segments,
            result.ambiguous_segments, result.cleared, result.unresolved,
            result.suspects_after_round1)
    return tester.log, [sorted(each) for each in sets], result.tests_run


#: sha256 over ``repr(localization_trace(...))`` of ``random_fabric``
#: at seeds 0-1999, recorded before the cycle sweeps of both tiers were
#: folded into one.  A changed world, verdict, order or result moves it.
LOCALIZATION_PIN = (
    "a6201072ba33d6d8d463c400516098cc581791c8913cd760aac956e96e7c207b")


class TestLocalizationPin:
    """Localization over random fabrics, pinned and with and without a
    pod map."""

    def test_random_fabrics_match_the_pin(self):
        digest = hashlib.sha256()
        for seed in range(2000):
            fabric = random_fabric(random.Random(seed))
            digest.update(repr(localization_trace(*fabric)).encode())
        assert digest.hexdigest() == LOCALIZATION_PIN

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_no_pod_map_is_one_pod(self, rng):
        nodes, leaf_of, _, tester_kwargs = random_fabric(rng)
        one_pod = dict.fromkeys(leaf_of.values(), 0)
        assert (localization_trace(nodes, leaf_of, None, tester_kwargs)
                == localization_trace(nodes, leaf_of, one_pod,
                                      tester_kwargs))
        testers = [FabricCollectiveTester(leaf_of, pod_of_leaf=pods,
                                          **tester_kwargs)
                   for pods in (None, one_pod)]
        for _ in range(8):
            world = World(tuple(rng.sample(nodes,
                                           rng.randint(1, len(nodes)))))
            verdicts = {tester.run_allgather(world) for tester in testers}
            assert len(verdicts) == 1
