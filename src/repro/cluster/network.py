"""Collective-communication time models.

:func:`allreduce_time` is the ring all-reduce the training step model
charges for tensor-parallel reductions and ZeRO gradient
reduce-scatter/all-gather; :func:`alltoall_time` is the MoE
dispatch/combine exchange behind Fig. 22's utilization collapse on
Seren's one-NIC nodes.

Both are analytic (bytes over the slowest link plus per-step latency)
rather than packet-level: the paper's observations are about
steady-state throughput, not transport dynamics.
"""

from __future__ import annotations


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
