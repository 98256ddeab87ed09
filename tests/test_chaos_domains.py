"""Unit tests for the chaos fault domains, with no engine run.

The fabric domain's gang choice and the slowdown domain's stretch
composition are otherwise reached only through full network-storm,
partition-storm and straggler-storm runs.  Here each domain is built
straight from a bundled scenario's shape, and time is moved by hand.
"""

from types import SimpleNamespace

import pytest

from repro.chaos import BUNDLED_SCENARIOS, InjectedFault, InvariantChecker
from repro.chaos.fabric import FabricDomain
from repro.chaos.harness import STEP_TIME
from repro.chaos.slowdown import SlowdownDomain

NOW = 10.0


def node_names(count):
    return [f"node-{i:03d}" for i in range(count)]


def nodes(*indices):
    return [f"node-{i:03d}" for i in indices]


def window(kind, target, link=None, factor=None):
    """A fault window open over the whole test."""
    return InjectedFault(time=0.0, kind=kind, reason=None, target=target,
                         node_index=0, log_seed=0, duration=1e9,
                         link=link, factor=factor)


def fabric(scenario_name, *faults):
    scenario = BUNDLED_SCENARIOS[scenario_name]
    return FabricDomain(scenario, list(faults),
                        node_names(scenario.n_nodes))


def place(domain, need, exclude=()):
    candidates = [name for name in sorted(domain.node_index)
                  if name not in exclude]
    return domain.place(candidates, need, NOW)


class TestLeafFirstPlacement:
    """network-storm's fabric: twelve nodes, three per leaf, one pod."""

    def test_one_leaf_first(self):
        domain = fabric("network-storm")
        assert domain.pod_of_leaf is None
        assert place(domain, 3) == nodes(0, 1, 2)
        # leaf 0 one node short: a whole other leaf beats spanning two
        assert place(domain, 3, exclude={"node-001"}) == nodes(3, 4, 5)

    def test_across_leaves_in_leaf_order(self):
        assert place(fabric("network-storm"), 4) == nodes(0, 1, 2, 3)

    def test_across_leaves_skips_a_cordoned_uplink(self):
        domain = fabric("network-storm")
        domain.cordoned_segments.add("leaf:1")
        assert place(domain, 4) == nodes(0, 1, 2, 6)

    def test_across_leaves_skips_a_sick_uplink(self):
        # link_degraded runs at 0.35, below the 0.5 pass threshold
        domain = fabric("network-storm",
                        window("link_degraded", "network", link="leaf:0"))
        assert place(domain, 4) == nodes(3, 4, 5, 6)

    def test_a_sick_nic_is_never_placed(self):
        domain = fabric("network-storm",
                        window("link_down", "network", link="nic:1"))
        assert place(domain, 3) == nodes(3, 4, 5)

    def test_no_group_without_healthy_uplinks(self):
        domain = fabric("network-storm")
        domain.cordoned_segments.update({"leaf:1", "leaf:2", "leaf:3"})
        assert place(domain, 4) is None


class TestPodFirstPlacement:
    """partition-storm's fabric: two nodes per leaf, two leaves per pod."""

    def test_one_pod_first(self):
        domain = fabric("partition-storm")
        assert domain.pod_of_leaf is not None
        assert place(domain, 3) == nodes(0, 1, 2)
        # pod 0 loses leaf 1's uplink: pod 1 alone beats spanning pods
        domain.cordoned_segments.add("leaf:1")
        assert place(domain, 3) == nodes(4, 5, 6)

    def test_across_pods_skips_a_cordoned_pod_uplink(self):
        domain = fabric("partition-storm")
        assert place(domain, 6) == nodes(0, 1, 2, 3, 4, 5)
        domain.cordoned_segments.add("pod:0")
        assert place(domain, 6) == nodes(4, 5, 6, 7, 8, 9)


class TestFabricQueries:
    def test_fewer_than_two_hosts_have_no_path(self):
        domain = fabric("network-storm",
                        window("link_down", "network", link="nic:0"))
        assert domain.factor(nodes(0), NOW) == 1.0
        assert domain.down_links(nodes(0), NOW) == []
        assert domain.factor(nodes(0, 1), NOW) == 0.0
        assert domain.down_links(nodes(0, 1), NOW) == ["nic:0"]

    def test_heal_uncordons_only_recovered_segments(self):
        domain = fabric("network-storm",
                        window("link_down", "network", link="leaf:2"))
        domain.cordoned_segments.update({"leaf:1", "leaf:2"})
        assert domain.heal(NOW) == ["leaf:1"]
        assert domain.cordoned_segments == {"leaf:2"}


class TestStretchComposition:
    """straggler-storm's gang of four on one leaf, under a power cap."""

    def make(self, *fabric_faults):
        scenario = BUNDLED_SCENARIOS["straggler-storm"]
        names = node_names(scenario.n_nodes)
        # stand-ins for the engine and the gang, moved by hand
        self.clock = SimpleNamespace(now=0.0)
        self.gang = SimpleNamespace(running=True, iteration=0,
                                    step_time=STEP_TIME)
        placements = {name: "pretrain-main" for name in names[:4]}
        self.checker = InvariantChecker(scheduler=None, nodes={},
                                        placements=placements)
        self.log = []
        self.domain = SlowdownDomain(
            scenario, [], self.clock, self.log, placements, self.gang,
            FabricDomain(scenario, list(fabric_faults), names))
        self.domain.open_power_cap(
            0, window("power_cap", "power", factor=0.5))
        return self.domain

    def add_straggler(self, node, factor):
        state = self.domain.add_straggler(
            1, window("straggler", "pretrain"), node, self.checker)
        state.factor = factor
        return state

    def test_residual_is_straggler_times_power_cap(self):
        domain = self.make()
        assert domain.stretch() == 2.0
        state = self.add_straggler("node-001", 0.8)
        assert domain.stretch() == pytest.approx(1 / (0.8 * 0.5))
        assert domain.stretch(0.35) == pytest.approx(
            1 / (0.35 * 0.8 * 0.5))
        # a detected straggler no longer stretches the gang ...
        state.detected_at = NOW
        assert domain.stretch() == 2.0
        # ... and neither does one off the gang
        state.detected_at = None
        domain.placements.pop("node-001")
        assert domain.stretch() == 2.0

    def test_probe_divides_out_fabric_and_power_but_not_stragglers(self):
        domain = self.make(window("link_degraded", "network",
                                  link="nic:0"))
        def sample(stretch):
            """Ten steps at ``stretch`` since the last probe."""
            self.clock.now += 10 * STEP_TIME * stretch
            self.gang.iteration += 10
            return domain.probe()

        explained = 1 / (0.35 * 0.5)
        assert not sample(explained)  # the first sample sets a baseline
        assert not any(sample(explained) for _ in range(5))
        self.add_straggler("node-002", 0.8)
        # patience 2: one elevated probe is not yet a deviation
        assert not sample(explained / 0.8)
        assert sample(explained / 0.8)
        assert [kind for _, kind, _ in self.log] == [
            "power_cap_begin", "deviation_detected"]
