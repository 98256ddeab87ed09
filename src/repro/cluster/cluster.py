"""Cluster objects and the Seren/Kalos factories (Table 1).

A :class:`Cluster` owns its nodes and the shared storage; it exposes the
aggregate GPU pool the scheduler allocates from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import (Node, NodeSpec, kalos_node_spec,
                                   seren_node_spec)
from repro.cluster.storage import SharedStorage


@dataclass
class Cluster:
    """A homogeneous GPU cluster."""

    name: str
    nodes: list[Node]
    storage: SharedStorage
    scheduler_kind: str = "slurm"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster must have nodes")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(node.gpu_count for node in self.nodes)

    @property
    def free_gpus(self) -> int:
        return sum(node.free_gpu_count for node in self.nodes
                   if node.schedulable)

    def schedulable_nodes(self) -> list[Node]:
        """Nodes that are healthy (not cordoned)."""
        return [node for node in self.nodes if node.schedulable]

    def find_nodes_with_free_gpus(self, gpus: int) -> list[tuple[Node, int]]:
        """Greedy placement: returns (node, gpus_from_node) covering ``gpus``.

        Large jobs are placed on whole nodes first (gang placement, as the
        paper's pretraining jobs require); returns an empty list if the
        demand cannot be met.
        """
        if gpus <= 0:
            raise ValueError("gpus must be positive")
        placement: list[tuple[Node, int]] = []
        remaining = gpus
        candidates = sorted(self.schedulable_nodes(),
                            key=lambda node: -node.free_gpu_count)
        for node in candidates:
            if remaining == 0:
                break
            take = min(node.free_gpu_count, remaining)
            if take > 0:
                placement.append((node, take))
                remaining -= take
        if remaining > 0:
            return []
        return placement

    def summary(self) -> dict:
        """Table 1 row for this cluster."""
        spec = self.nodes[0].spec
        return {
            "cluster": self.name,
            "cpus_per_node": spec.cpus,
            "gpus_per_node": spec.gpus_per_node,
            "memory_gb": spec.host_memory_bytes // (1024 ** 3),
            "network": (f"{spec.compute_nics}x"
                        f"{spec.nic_bandwidth * 8 / 1e9:.0f}Gb/s"),
            "nodes": self.node_count,
            "total_gpus": self.total_gpus,
        }


def _make_cluster(name: str, spec: NodeSpec, node_count: int,
                  scheduler_kind: str,
                  backend_bandwidth: float) -> Cluster:
    nodes = [Node(name=f"{name}-{index:04d}", spec=spec)
             for index in range(node_count)]
    storage = SharedStorage(backend_bandwidth=backend_bandwidth,
                            node_nic_bandwidth=spec.storage_bandwidth)
    return Cluster(name=name, nodes=nodes, storage=storage,
                   scheduler_kind=scheduler_kind)


def make_seren(node_count: int = 286) -> Cluster:
    """Seren: 286 nodes x 8 A100 = 2,288 GPUs, Slurm, 1 NIC/node."""
    return _make_cluster("seren", seren_node_spec(), node_count,
                         scheduler_kind="slurm",
                         backend_bandwidth=400e9)


def make_kalos(node_count: int = 302) -> Cluster:
    """Kalos: 302 nodes x 8 A100 = 2,416 GPUs, Kubernetes, 4+1 NICs/node."""
    return _make_cluster("kalos", kalos_node_spec(), node_count,
                         scheduler_kind="kubernetes",
                         backend_bandwidth=800e9)
