"""Bandwidth-sharing network model.

Transfers through a shared link receive a max-min fair share of its
capacity.  This is the contention model behind the model-loading stress
test (Fig. 16 left): N concurrent single-GPU evaluation trials on one node
share the node's 25 Gb/s storage NIC, so per-trial loading speed collapses
roughly as 1/N until trials spread across nodes.

The model is analytic (progressive filling) rather than packet-level: the
paper's observations are about steady-state throughput, not transport
dynamics.

:func:`max_min_fair_rates` runs the filling in pure python for small
flow sets and as numpy array ops over the flow/link incidence matrix
once the flow count justifies the array setup cost; both agree to
float-summation noise (≤1e-9 relative).  Small flow sets also hit a
bounded result cache keyed by the used-link capacities and flow tuples
— the model-loading stress test asks for the same handful of
configurations thousands of times per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.cluster.linkhealth import LinkHealth


@dataclass(frozen=True)
class Link:
    """A named capacity: bytes/s."""

    name: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class Flow:
    """A transfer traversing an ordered list of links."""

    flow_id: str
    links: tuple[str, ...]
    #: optional per-flow cap (e.g. a single GPU's PCIe ingest rate)
    rate_cap: float = float("inf")


#: flow count at which the vectorized filling beats the scalar loop
_VECTOR_MIN_FLOWS = 32
#: bounded small-N result cache (cleared wholesale when full)
_RATE_CACHE_MAX = 4096
_rate_cache: dict[tuple, dict[str, float]] = {}


def clear_rate_cache() -> None:
    """Drop all cached small-N results (test isolation hook)."""
    _rate_cache.clear()


def _validate_links(links: dict[str, float],
                    flows: Sequence[Flow]) -> None:
    for flow in flows:
        for link in flow.links:
            if link not in links:
                raise ValueError(f"flow {flow.flow_id} uses unknown "
                                 f"link {link!r}")


def max_min_fair_rates(links: dict[str, float],
                       flows: Sequence[Flow]) -> dict[str, float]:
    """Compute max-min fair flow rates over shared links.

    Progressive filling: repeatedly find the bottleneck link (smallest
    equal-share rate among unfrozen flows), freeze its flows at that rate,
    and subtract.  Per-flow ``rate_cap`` is treated as a virtual one-flow
    link.  A link capacity of zero (e.g. a downed link under a
    :class:`~repro.cluster.linkhealth.LinkHealth` overlay) pins every
    flow crossing it to rate 0.

    Flow sets of at least ``_VECTOR_MIN_FLOWS`` flows are filled with
    numpy; smaller ones are filled in pure python and memoized.

    Returns a mapping flow_id -> bytes/s.
    """
    _validate_links(links, flows)
    if len(flows) >= _VECTOR_MIN_FLOWS:
        return _fill_vector(links, flows)
    used = sorted({link for flow in flows for link in flow.links})
    key = (tuple((name, links[name]) for name in used),
           tuple((flow.flow_id, flow.links, flow.rate_cap)
                 for flow in flows))
    cached = _rate_cache.get(key)
    if cached is not None:
        return dict(cached)
    rates = _fill_scalar(links, flows)
    if len(_rate_cache) >= _RATE_CACHE_MAX:
        _rate_cache.clear()
    _rate_cache[key] = dict(rates)
    return rates


def _fill_scalar(links: dict[str, float],
                 flows: Sequence[Flow]) -> dict[str, float]:
    remaining = dict(links)
    active: dict[str, Flow] = {flow.flow_id: flow for flow in flows}
    rates: dict[str, float] = {}
    while active:
        # Share each link equally among the active flows crossing it.
        link_users: dict[str, int] = {}
        for flow in active.values():
            for link in flow.links:
                link_users[link] = link_users.get(link, 0) + 1
        bottleneck_rate = float("inf")
        for link, users in link_users.items():
            share = remaining[link] / users
            bottleneck_rate = min(bottleneck_rate, share)
        # Float subtraction can leave a link epsilon-negative; a share
        # below zero is physically zero (downed-link flows freeze at 0).
        bottleneck_rate = max(bottleneck_rate, 0.0)
        # Per-flow caps can bind before any link does.
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


def _fill_vector(links: dict[str, float],
                 flows: Sequence[Flow]) -> dict[str, float]:
    """Numpy progressive filling over the flow/link incidence matrix.

    Mirrors :func:`_fill_scalar` round for round — equal shares,
    cap-before-freeze, the same ``1e-12`` freeze tolerance, duplicate
    links in a flow counted per occurrence — but each round is a
    handful of array ops instead of per-flow python loops.
    """
    used = sorted({link for flow in flows for link in flow.links})
    index = {name: position for position, name in enumerate(used)}
    n_flows, n_links = len(flows), len(used)
    incidence = np.zeros((n_flows, n_links))
    caps = np.empty(n_flows)
    for row, flow in enumerate(flows):
        for link in flow.links:
            incidence[row, index[link]] += 1.0
        caps[row] = flow.rate_cap
    remaining = np.array([links[name] for name in used], dtype=float)
    crosses = incidence > 0.0
    active = np.ones(n_flows, dtype=bool)
    rates = np.zeros(n_flows)
    while active.any():
        users = incidence[active].sum(axis=0)
        shared = users > 0.0
        shares = np.full(n_links, np.inf)
        np.divide(remaining, users, out=shares, where=shared)
        bottleneck = (max(float(shares[shared].min()), 0.0)
                      if shared.any() else float("inf"))
        capped = active & (caps <= bottleneck)
        if capped.any():
            rates[capped] = caps[capped]
            remaining -= caps[capped] @ incidence[capped]
            active &= ~capped
            continue
        frozen = active & (crosses
                           & (shares <= bottleneck + 1e-12)).any(axis=1)
        rates[frozen] = bottleneck
        remaining -= bottleneck * incidence[frozen].sum(axis=0)
        active &= ~frozen
    return {flow.flow_id: float(rates[row])
            for row, flow in enumerate(flows)}


class FairShareLink:
    """A single link shared equally by concurrent transfers.

    Convenience wrapper used where only one bottleneck matters (the storage
    NIC).  ``rate_for(n)`` gives the per-transfer rate with ``n`` sharers.
    """

    def __init__(self, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth

    def rate_for(self, concurrent: int, per_flow_cap: float = float("inf")
                 ) -> float:
        """Per-transfer rate with ``concurrent`` equal sharers."""
        if concurrent <= 0:
            raise ValueError("concurrent must be positive")
        return min(self.bandwidth / concurrent, per_flow_cap)

    def transfer_time(self, size_bytes: float, concurrent: int = 1,
                      per_flow_cap: float = float("inf")) -> float:
        """Seconds to move ``size_bytes`` at the fair-share steady rate."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if size_bytes == 0:
            # An empty transfer completes instantly even when the fair
            # share is zero (per_flow_cap 0 / fully contended link).
            return 0.0
        return size_bytes / self.rate_for(concurrent, per_flow_cap)


class NetworkFabric:
    """The cluster interconnect as a set of named links.

    Links follow the paper's architecture: per-node application NIC(s),
    per-node storage NIC, per-GPU PCIe, per-GPU NVLink, and an aggregate
    storage backend.

    An optional :class:`~repro.cluster.linkhealth.LinkHealth` overlay
    makes capacities time-dependent: pass the sim clock via ``at`` to
    :meth:`rates` / :meth:`transfer_times` and downed or degraded links
    shrink accordingly.  An absent or empty overlay is a strict no-op.
    """

    def __init__(self, health: Optional[LinkHealth] = None) -> None:
        self._links: dict[str, Link] = {}
        self.health = health

    def add_link(self, link: Link) -> None:
        """Register a named link; duplicate names are rejected."""
        if link.name in self._links:
            raise ValueError(f"duplicate link {link.name!r}")
        self._links[link.name] = link

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        return self._links[name]

    def has_link(self, name: str) -> bool:
        """Whether a link with this name exists."""
        return name in self._links

    def rates(self, flows: Sequence[Flow],
              at: float = 0.0) -> dict[str, float]:
        """Max-min fair rates for the given flows at sim time ``at``."""
        capacities = {name: link.bandwidth
                      for name, link in self._links.items()}
        if self.health is not None and not self.health.empty:
            capacities = {name: bandwidth * self.health.factor(name, at)
                          for name, bandwidth in capacities.items()}
        return max_min_fair_rates(capacities, flows)

    def transfer_times(self, flows: Sequence[Flow],
                       sizes: dict[str, float],
                       at: float = 0.0) -> dict[str, float]:
        """Steady-state completion time per flow (no rate re-negotiation).

        A flow pinned to rate 0 (downed link) never completes: inf.
        """
        rates = self.rates(flows, at=at)
        return {flow_id: (sizes[flow_id] / rate if rate > 0.0
                          else float("inf"))
                for flow_id, rate in rates.items()}

    @property
    def link_names(self) -> Iterable[str]:
        return self._links.keys()


def allreduce_time(size_bytes: float, world: int, bandwidth: float,
                   latency: float = 15e-6) -> float:
    """Ring all-reduce time for ``size_bytes`` across ``world`` workers.

    Standard model: 2*(w-1)/w chunks traverse the slowest inter-worker
    bandwidth, plus per-step latency.  Used by the training step model for
    tensor-parallel all-reduce and ZeRO gradient reduce-scatter/all-gather.
    """
    if world <= 1:
        return 0.0
    if bandwidth <= 0:
        return float("inf")
    steps = 2 * (world - 1)
    volume = 2.0 * (world - 1) / world * size_bytes
    return volume / bandwidth + steps * latency


def alltoall_time(size_bytes: float, world: int, bandwidth: float,
                  latency: float = 15e-6) -> float:
    """All-to-all exchange time (MoE dispatch/combine).

    Each worker sends (w-1)/w of its buffer through its NIC; with a single
    NIC per node this serializes heavily — the effect behind the paper's
    Fig. 22 (MoE utilization collapse on Seren's 1-NIC nodes).
    """
    if world <= 1:
        return 0.0
    if bandwidth <= 0:
        return float("inf")
    volume = (world - 1) / world * size_bytes
    return volume / bandwidth + (world - 1) * latency
