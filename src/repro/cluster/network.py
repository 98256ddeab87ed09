"""Bandwidth-sharing network model.

Transfers through shared links receive a max-min fair share of their
capacity: :func:`max_min_fair_rates` fills flows crossing several named
links, each given by its capacity (scaled by its
:class:`~repro.cluster.linkhealth.LinkHealth` factor when faulted).  The
one-link case behind the model-loading stress test (Fig. 16 left) is an
equal split that :class:`repro.cluster.storage.SharedStorage` computes
itself.

The model is analytic (progressive filling) rather than packet-level: the
paper's observations are about steady-state throughput, not transport
dynamics.

:func:`max_min_fair_rates` runs the filling in pure python for small
flow sets and as numpy array ops over the flow/link incidence matrix
once the flow count justifies the array setup cost; both agree to
float-summation noise (≤1e-9 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class Flow:
    """A transfer traversing an ordered list of links."""

    flow_id: str
    links: tuple[str, ...]
    #: optional per-flow cap (e.g. a single GPU's PCIe ingest rate)
    rate_cap: float = float("inf")


#: flow count at which the vectorized filling beats the scalar loop
_VECTOR_MIN_FLOWS = 32


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
    numpy; smaller ones are filled in pure python.

    Returns a mapping flow_id -> bytes/s.
    """
    _validate_links(links, flows)
    if len(flows) >= _VECTOR_MIN_FLOWS:
        return _fill_vector(links, flows)
    return _fill_scalar(links, flows)


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
