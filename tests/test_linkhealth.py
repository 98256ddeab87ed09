"""Tests for the time-windowed link health overlay."""

import pytest

from repro.cluster.fattree import FatTreeConfig
from repro.cluster.linkhealth import (LinkFault, LinkHealth, leaf_link,
                                      nic_link, pod_link)


class TestLinkNaming:
    def test_tiers(self):
        assert nic_link(3) == "nic:3"
        assert leaf_link(1) == "leaf:1"
        assert pod_link(0) == "pod:0"


class TestLinkFault:
    def test_window_is_half_open(self):
        fault = LinkFault("nic:0", start=10.0, end=20.0)
        assert not fault.active_at(9.999)
        assert fault.active_at(10.0)
        assert fault.active_at(19.999)
        assert not fault.active_at(20.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            LinkFault("nic:0", start=10.0, end=10.0)

    def test_rejects_noop_factor(self):
        with pytest.raises(ValueError):
            LinkFault("nic:0", start=0.0, end=1.0, factor=1.0)

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            LinkFault("nic:0", start=0.0, end=1.0, factor=-0.1)


class TestLinkHealth:
    def test_empty_overlay_is_healthy_everywhere(self):
        health = LinkHealth()
        assert health.empty
        assert health.factor("nic:0", 0.0) == 1.0
        assert not health.is_down("nic:0", 0.0)
        assert health.down_links(0.0) == ()
        assert health.last_end() == 0.0

    def test_down_window(self):
        health = LinkHealth()
        health.link_down("nic:2", start=5.0, end=15.0)
        assert health.is_down("nic:2", 10.0)
        assert health.factor("nic:2", 10.0) == 0.0
        assert health.factor("nic:2", 15.0) == 1.0
        assert health.down_links(10.0) == ("nic:2",)

    def test_degraded_window(self):
        health = LinkHealth()
        health.link_degraded("leaf:0", start=0.0, end=10.0, factor=0.4)
        assert health.factor("leaf:0", 5.0) == pytest.approx(0.4)
        assert not health.is_down("leaf:0", 5.0)

    def test_degraded_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            LinkHealth().link_degraded("leaf:0", 0.0, 1.0, factor=0.0)

    def test_overlapping_windows_take_the_minimum(self):
        health = LinkHealth()
        health.link_degraded("nic:0", start=0.0, end=20.0, factor=0.5)
        health.link_down("nic:0", start=5.0, end=10.0)
        assert health.factor("nic:0", 2.0) == pytest.approx(0.5)
        assert health.factor("nic:0", 7.0) == 0.0
        assert health.factor("nic:0", 15.0) == pytest.approx(0.5)

    def test_group_factor_is_worst_link(self):
        health = LinkHealth()
        health.link_degraded("nic:0", start=0.0, end=10.0, factor=0.7)
        health.link_degraded("leaf:0", start=0.0, end=10.0, factor=0.3)
        factor = health.group_factor(["nic:0", "leaf:0", "nic:1"], 5.0)
        assert factor == pytest.approx(0.3)

    def test_last_end_tracks_latest_window(self):
        health = LinkHealth()
        health.link_down("nic:0", start=0.0, end=10.0)
        health.link_degraded("leaf:1", start=2.0, end=30.0, factor=0.5)
        assert health.last_end() == 30.0


class TestSwitchDown:
    def test_derives_member_nics_and_uplink(self):
        config = FatTreeConfig(nodes=8, nodes_per_leaf=4)
        health = LinkHealth()
        derived = health.switch_down(config, leaf=1, start=0.0, end=10.0)
        assert derived == ("nic:4", "nic:5", "nic:6", "nic:7", "leaf:1")
        assert set(health.down_links(5.0)) == set(derived)
        assert health.down_links(10.0) == ()

    def test_partial_last_leaf(self):
        # 6 nodes in 4-wide leaves: leaf 1 holds only nodes 4 and 5.
        config = FatTreeConfig(nodes=6, nodes_per_leaf=4)
        health = LinkHealth()
        derived = health.switch_down(config, leaf=1, start=0.0, end=1.0)
        assert derived == ("nic:4", "nic:5", "leaf:1")

    def test_rejects_out_of_range_leaf(self):
        config = FatTreeConfig(nodes=8, nodes_per_leaf=4)
        with pytest.raises(ValueError):
            LinkHealth().switch_down(config, leaf=2, start=0.0, end=1.0)


class TestZeroDurationWindows:
    """Zero-duration chaos faults must be strict no-ops (boundary
    regression: a degenerate ``[t, t)`` window must never leak into
    timelines or ``last_end``)."""

    def test_link_down_zero_duration_is_noop(self):
        health = LinkHealth()
        health.link_down("nic:0", start=5.0, end=5.0)
        assert health.empty
        assert health.faults == ()
        assert health.factor("nic:0", 5.0) == 1.0
        assert health.last_end() == 0.0

    def test_link_down_inverted_window_is_noop(self):
        health = LinkHealth()
        health.link_down("nic:0", start=5.0, end=4.0)
        assert health.empty

    def test_link_degraded_zero_duration_is_noop(self):
        health = LinkHealth()
        health.link_degraded("leaf:0", start=5.0, end=5.0, factor=0.5)
        assert health.empty
        assert health.factor("leaf:0", 5.0) == 1.0

    def test_link_degraded_still_validates_factor(self):
        # the no-op path must not swallow invalid factors
        with pytest.raises(ValueError):
            LinkHealth().link_degraded("leaf:0", start=5.0, end=5.0,
                                       factor=0.0)

    def test_switch_down_zero_duration_registers_nothing(self):
        config = FatTreeConfig(nodes=8, nodes_per_leaf=4)
        health = LinkHealth()
        assert health.switch_down(config, leaf=1, start=3.0,
                                  end=3.0) == ()
        assert health.empty

    def test_tiny_positive_window_still_registers(self):
        health = LinkHealth()
        health.link_down("pod:0", start=5.0, end=5.0 + 1e-9)
        assert not health.empty
        assert health.is_down("pod:0", 5.0)
        assert not health.is_down("pod:0", 5.0 + 1e-9)
