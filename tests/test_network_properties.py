"""Property tests: LinkHealth's lookup against its oracle.

Hypothesis drives random fault windows through production
``LinkHealth.factor`` and diffs it against the linear window scan in
``tests/oracles/linkhealth.py``: the bisect timeline must equal the
scan exactly, including on window boundaries (half-open semantics) and
after every ``add``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.linkhealth import LinkFault, LinkHealth

from .oracles.linkhealth import factor_scan

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
        each one reads a stale timeline unless ``add`` dropped it.
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
        assert health.factor("nic:0", 15.0) == 1.0  # builds a timeline
        health.link_down("nic:0", 10.0, 20.0)
        assert health.factor("nic:0", 15.0) == 0.0

    def test_memo_hits_return_same_value(self):
        health = LinkHealth()
        health.link_down("nic:0", 10.0, 20.0)
        first = health.factor("nic:0", 15.0)
        second = health.factor("nic:0", 15.0)  # reuses the timeline
        assert first == second == 0.0
        assert health.factor("nic:0", 20.0) == 1.0  # half-open end
