"""Reference max-min fair water-filling: pure python.

``max_min_fair_rates_scalar`` is the plain progressive filling that
``repro.cluster.network.max_min_fair_rates`` must reproduce: exactly
for the small flow sets it fills in python, and to float summation
noise (1e-9 relative) for the numpy filling it uses from
``_VECTOR_MIN_FLOWS`` flows up.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.network import Flow


def max_min_fair_rates_scalar(links: dict[str, float],
                              flows: Sequence[Flow]) -> dict[str, float]:
    """Progressive filling, one bottleneck round at a time."""
    for flow in flows:
        for link in flow.links:
            if link not in links:
                raise ValueError(f"flow {flow.flow_id} uses unknown "
                                 f"link {link!r}")
    remaining = dict(links)
    active: dict[str, Flow] = {flow.flow_id: flow for flow in flows}
    rates: dict[str, float] = {}
    while active:
        link_users: dict[str, int] = {}
        for flow in active.values():
            for link in flow.links:
                link_users[link] = link_users.get(link, 0) + 1
        bottleneck_rate = float("inf")
        for link, users in link_users.items():
            bottleneck_rate = min(bottleneck_rate, remaining[link] / users)
        bottleneck_rate = max(bottleneck_rate, 0.0)
        capped = [flow for flow in active.values()
                  if flow.rate_cap <= bottleneck_rate]
        if capped:
            for flow in capped:
                rates[flow.flow_id] = flow.rate_cap
                for link in flow.links:
                    remaining[link] -= flow.rate_cap
                del active[flow.flow_id]
            continue
        frozen = [flow for flow in active.values()
                  if any(remaining[link] / link_users[link] <=
                         bottleneck_rate + 1e-12
                         for link in flow.links)]
        for flow in frozen:
            rates[flow.flow_id] = bottleneck_rate
            for link in flow.links:
                remaining[link] -= bottleneck_rate
            del active[flow.flow_id]
    return rates
