"""Cluster hardware model.

Models the two Acme clusters (Table 1 of the paper): node specifications,
GPUs, NVLink/InfiniBand interconnect, and the shared all-NVMe parallel file
system.  Everything is a capacity/contention model — sufficient for the
paper's characterization figures, which depend only on resource arithmetic.
"""

from repro.cluster.machine import GpuSpec, NodeSpec, Gpu, Node, A100_SXM_80GB
from repro.cluster.cluster import Cluster, make_seren, make_kalos
from repro.cluster.storage import SharedStorage
from repro.cluster.fattree import FatTree, FatTreeConfig, factor_table
from repro.cluster.linkhealth import (
    LinkFault,
    LinkHealth,
    leaf_link,
    nic_link,
    pod_link,
)

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "Gpu",
    "Node",
    "A100_SXM_80GB",
    "Cluster",
    "make_seren",
    "make_kalos",
    "SharedStorage",
    "FatTree",
    "FatTreeConfig",
    "factor_table",
    "LinkFault",
    "LinkHealth",
    "leaf_link",
    "nic_link",
    "pod_link",
]
