"""Tests for the bandwidth-sharing network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import (Flow, allreduce_time, alltoall_time,
                                   max_min_fair_rates)


class TestMaxMinFairness:
    def test_single_bottleneck_equal_share(self):
        links = {"l": 90.0}
        flows = [Flow("a", ("l",)), Flow("b", ("l",)), Flow("c", ("l",))]
        rates = max_min_fair_rates(links, flows)
        assert all(rate == pytest.approx(30.0) for rate in rates.values())

    def test_uncontended_flow_gets_its_link(self):
        links = {"x": 10.0, "y": 100.0}
        flows = [Flow("a", ("x",)), Flow("b", ("y",))]
        rates = max_min_fair_rates(links, flows)
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(100.0)

    def test_multi_hop_takes_worst_link(self):
        links = {"fast": 100.0, "slow": 10.0}
        flows = [Flow("a", ("fast", "slow"))]
        rates = max_min_fair_rates(links, flows)
        assert rates["a"] == pytest.approx(10.0)

    def test_rate_cap_frees_bandwidth_for_others(self):
        links = {"l": 100.0}
        flows = [Flow("capped", ("l",), rate_cap=10.0),
                 Flow("greedy", ("l",))]
        rates = max_min_fair_rates(links, flows)
        assert rates["capped"] == pytest.approx(10.0)
        assert rates["greedy"] == pytest.approx(90.0)

    def test_unknown_link_raises_value_error(self):
        # A clear ValueError naming flow and link, not a bare KeyError.
        with pytest.raises(ValueError, match="flow a .* 'ghost'"):
            max_min_fair_rates({"l": 1.0}, [Flow("a", ("ghost",))])

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8),
           st.floats(10.0, 1000.0))
    @settings(max_examples=40, deadline=None)
    def test_no_link_oversubscribed(self, paths, bandwidth):
        """Property: total allocated rate on any link <= its capacity."""
        links = {f"l{i}": bandwidth for i in range(5)}
        flows = [Flow(f"f{j}", tuple(f"l{i % 5}"
                                     for i in range(path)))
                 for j, path in enumerate(paths)]
        rates = max_min_fair_rates(links, flows)
        usage: dict[str, float] = {}
        for flow in flows:
            for link in flow.links:
                usage[link] = usage.get(link, 0.0) + rates[flow.flow_id]
        for link, used in usage.items():
            assert used <= links[link] * (1 + 1e-9)

    @given(st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_equal_flows_get_equal_rates(self, n_flows):
        links = {"l": 100.0}
        flows = [Flow(f"f{i}", ("l",)) for i in range(n_flows)]
        rates = max_min_fair_rates(links, flows)
        values = list(rates.values())
        assert max(values) - min(values) < 1e-9

    @given(st.lists(st.floats(0.5, 50.0), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_caps_respected_and_order_invariant(self, caps, rng):
        """Properties: no flow exceeds its rate_cap, and the allocation
        does not depend on the order flows are presented in."""
        links = {"l": 40.0, "m": 60.0}
        flows = [Flow(f"f{i}", ("l", "m") if i % 2 else ("l",),
                      rate_cap=cap)
                 for i, cap in enumerate(caps)]
        rates = max_min_fair_rates(links, flows)
        for flow in flows:
            assert rates[flow.flow_id] <= flow.rate_cap + 1e-9
        shuffled = list(flows)
        rng.shuffle(shuffled)
        again = max_min_fair_rates(links, shuffled)
        for flow_id, rate in rates.items():
            assert again[flow_id] == pytest.approx(rate)


class TestCollectiveModels:
    def test_allreduce_zero_for_single_worker(self):
        assert allreduce_time(1e9, 1, 1e9) == 0.0

    def test_allreduce_volume_scales_with_world(self):
        # 2*(w-1)/w converges to 2x the buffer over the link.
        small = allreduce_time(1e9, 2, 1e9, latency=0.0)
        large = allreduce_time(1e9, 64, 1e9, latency=0.0)
        assert small == pytest.approx(1.0)
        assert large == pytest.approx(2 * 63 / 64)

    def test_alltoall_zero_for_single_worker(self):
        assert alltoall_time(1e9, 1, 1e9) == 0.0

    def test_alltoall_grows_with_world(self):
        assert (alltoall_time(1e9, 16, 1e9)
                > alltoall_time(1e9, 2, 1e9))
