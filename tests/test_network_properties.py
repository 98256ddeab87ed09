"""Property tests: the fabric's hot paths against their oracles.

Hypothesis drives random fabrics through production max-min fair
water-filling and LinkHealth lookups and diffs them against the
reference bodies in ``tests/oracles/``:

* below ``_VECTOR_MIN_FLOWS`` flows, dispatch equals the pure-python
  oracle exactly, on every call; from there up, the numpy filling
  agrees to 1e-9 relative (float summation order is the only
  permitted difference);
* classic max-min invariants hold on whichever path dispatch picks:
  no link oversubscribed, caps respected, uncapped flows sharing one
  bottleneck link equally;
* flow-order invariance: the rate a flow receives does not depend on
  its position in the input sequence;
* LinkHealth's bisect timeline and memo equal the linear window scan
  exactly — including on window boundaries (half-open semantics) and
  after every ``add``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.linkhealth import LinkFault, LinkHealth
from repro.cluster.network import (_VECTOR_MIN_FLOWS, Flow, _fill_vector,
                                   max_min_fair_rates)

from .oracles.linkhealth import factor_scan
from .oracles.network import max_min_fair_rates_scalar

# -- strategies ------------------------------------------------------------

link_names = st.lists(
    st.sampled_from([f"l{i}" for i in range(10)]),
    min_size=1, max_size=10, unique=True)

capacities = st.floats(min_value=0.0, max_value=1e9,
                       allow_nan=False, allow_infinity=False)

rate_caps = st.one_of(
    st.just(float("inf")),
    st.floats(min_value=1e-3, max_value=1e9,
              allow_nan=False, allow_infinity=False))


@st.composite
def fabrics(draw, min_flows=1, max_flows=60):
    """(links, flows) with random topology, caps, and duplicates."""
    names = draw(link_names)
    links = {name: draw(capacities) for name in names}
    n_flows = draw(st.integers(min_flows, max_flows))
    flows = []
    for index in range(n_flows):
        path = draw(st.lists(st.sampled_from(names),
                             min_size=1, max_size=4))
        flows.append(Flow(f"f{index}", tuple(path),
                          rate_cap=draw(rate_caps)))
    return links, flows


def assert_close(reference, candidate, tolerance=1e-9):
    assert reference.keys() == candidate.keys()
    for flow_id, want in reference.items():
        got = candidate[flow_id]
        if want == got:
            continue
        scale = max(abs(want), abs(got), 1.0)
        assert abs(want - got) / scale < tolerance, (
            f"{flow_id}: scalar={want!r} vector={got!r}")


# -- water-filling ---------------------------------------------------------

class TestWaterFilling:
    @given(fabrics())
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_scalar(self, fabric):
        links, flows = fabric
        scalar = max_min_fair_rates_scalar(links, flows)
        vector = _fill_vector(links, flows)
        assert_close(scalar, vector)

    @given(fabrics(min_flows=_VECTOR_MIN_FLOWS))
    @settings(max_examples=60, deadline=None)
    def test_dispatch_matches_reference(self, fabric):
        """From ``_VECTOR_MIN_FLOWS`` flows, dispatch fills with numpy."""
        links, flows = fabric
        assert_close(max_min_fair_rates_scalar(links, flows),
                     max_min_fair_rates(links, flows))

    @given(fabrics(max_flows=_VECTOR_MIN_FLOWS - 1))
    @settings(max_examples=60, deadline=None)
    def test_small_n_cache_matches_reference_exactly(self, fabric):
        """Below it, every call equals the oracle exactly.

        The second call would catch state one call leaves behind.
        """
        links, flows = fabric
        reference = max_min_fair_rates_scalar(links, flows)
        assert max_min_fair_rates(links, flows) == reference
        assert max_min_fair_rates(links, flows) == reference

    @given(fabrics())
    @settings(max_examples=60, deadline=None)
    def test_no_link_oversubscribed(self, fabric):
        links, flows = fabric
        rates = max_min_fair_rates(links, flows)
        load = dict.fromkeys(links, 0.0)
        for flow in flows:
            for link in flow.links:
                load[link] += rates[flow.flow_id]
        for name, total in load.items():
            assert total <= links[name] * (1.0 + 1e-6) + 1e-6

    @given(fabrics())
    @settings(max_examples=60, deadline=None)
    def test_caps_respected(self, fabric):
        links, flows = fabric
        rates = max_min_fair_rates(links, flows)
        for flow in flows:
            assert rates[flow.flow_id] <= flow.rate_cap * (1.0 + 1e-9)
            assert rates[flow.flow_id] >= 0.0

    @given(st.floats(1.0, 1e9, allow_nan=False, allow_infinity=False),
           st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_single_link_equal_shares(self, bandwidth, n_flows):
        """Uncapped flows through one link split it exactly evenly."""
        links = {"l": bandwidth}
        flows = [Flow(f"f{i}", ("l",)) for i in range(n_flows)]
        rates = max_min_fair_rates(links, flows)
        share = bandwidth / n_flows
        for flow in flows:
            assert abs(rates[flow.flow_id] - share) <= share * 1e-9

    @given(fabrics(max_flows=20), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_order_invariance(self, fabric, rng):
        """A flow's rate does not depend on input order."""
        links, flows = fabric
        shuffled = list(flows)
        rng.shuffle(shuffled)
        assert_close(max_min_fair_rates(links, flows),
                     max_min_fair_rates(links, shuffled))

    def test_unknown_link_message_identical_on_both_paths(self):
        """Small and vector dispatch raise the oracle's message."""
        messages = []
        for n_flows in (4, 64):
            flows = [Flow(f"f{i}", ("missing",)) for i in range(n_flows)]
            for fill in (max_min_fair_rates, max_min_fair_rates_scalar):
                try:
                    fill({"l": 1.0}, flows)
                except ValueError as error:
                    messages.append(str(error))
        assert len(messages) == 4
        assert len(set(messages)) == 1
        assert "unknown link" in messages[0]

    def test_small_n_cache_returns_fresh_dicts(self):
        """Mutating a returned result must not poison later calls."""
        links = {"l": 10.0}
        flows = [Flow("a", ("l",)), Flow("b", ("l",))]
        for _ in range(3):
            rates = max_min_fair_rates(links, flows)
            assert rates == {"a": 5.0, "b": 5.0}
            rates["a"] = -1.0


# -- link health -----------------------------------------------------------

fault_windows = st.lists(
    st.tuples(
        st.sampled_from(["nic:0", "nic:1", "leaf:0"]),
        st.floats(0.0, 1e4, allow_nan=False),
        st.floats(1e-3, 1e4, allow_nan=False),
        st.one_of(st.just(0.0), st.floats(0.01, 0.99))),
    min_size=0, max_size=12)

probe_times = st.lists(st.floats(-10.0, 2e4, allow_nan=False),
                       min_size=1, max_size=20)


class TestLinkHealthTimeline:
    @given(fault_windows, probe_times)
    @settings(max_examples=80, deadline=None)
    def test_bisect_equals_linear_scan(self, windows, times):
        health = LinkHealth()
        for link, start, duration, factor in windows:
            health.add(LinkFault(link=link, start=start,
                                 end=start + duration, factor=factor))
        probes = set(times)
        # boundaries are where bisect bugs live: probe every window
        # edge and its neighbourhood too
        for _, start, duration, _ in windows:
            for edge in (start, start + duration):
                probes.update((edge, edge - 1e-9, edge + 1e-9))
        for link in ("nic:0", "nic:1", "leaf:0", "never-faulted"):
            for at in sorted(probes):
                assert health.factor(link, at) == \
                    factor_scan(health, link, at), (link, at)

    @given(fault_windows, probe_times)
    @settings(max_examples=40, deadline=None)
    def test_add_invalidates_timeline(self, windows, times):
        """Queries interleaved with add() never see stale answers.

        After every ``add`` the same fixed probes are asked again, so
        each one is a memo hit unless ``add`` dropped the memo.
        """
        health = LinkHealth()
        probes = sorted(set(times))
        for link, start, duration, factor in windows:
            health.add(LinkFault(link=link, start=start,
                                 end=start + duration, factor=factor))
            for at in probes + [start + duration / 2.0]:
                assert health.factor(link, at) == \
                    factor_scan(health, link, at), (link, at)

    def test_add_invalidates_memo(self):
        health = LinkHealth()
        assert health.factor("nic:0", 15.0) == 1.0  # memoized
        health.link_down("nic:0", 10.0, 20.0)
        assert health.factor("nic:0", 15.0) == 0.0

    def test_memo_hits_return_same_value(self):
        health = LinkHealth()
        health.link_down("nic:0", 10.0, 20.0)
        first = health.factor("nic:0", 15.0)
        second = health.factor("nic:0", 15.0)  # memo hit
        assert first == second == 0.0
        assert health.factor("nic:0", 20.0) == 1.0  # half-open end
