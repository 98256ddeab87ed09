"""The fabric fault domain of a chaos run.

Link, switch, pod-uplink and partial-partition faults are armed up
front into one :class:`~repro.cluster.linkhealth.LinkHealth` overlay on
the scenario's fat tree.  :class:`FabricDomain` owns that overlay, the
node → leaf → pod maps and the cordoned segments, and answers the
harness's path, probe, healing and placement questions.  It never
touches the engine: every query takes the simulated time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.chaos.scenario import ChaosScenario, InjectedFault
from repro.cluster.fattree import FatTree, FatTreeConfig
from repro.cluster.linkhealth import (LinkHealth, leaf_link, nic_link,
                                      pod_link)
from repro.core.recovery import FabricCollectiveTester
from repro.failures.taxonomy import FABRIC_FAULT_KINDS

#: NCCL-test pass threshold: a link, path or segment below this
#: bandwidth factor fails probes, and the gang migrates off it
MIN_FACTOR = 0.5
#: bandwidth fraction a degraded link keeps for its fault window
DEGRADED_FACTORS = {"link_degraded": 0.35, "pod_link_degraded": 0.35}


class FabricDomain:
    """Live fabric health over the scenario's fat tree."""

    def __init__(self, scenario: ChaosScenario,
                 faults: Sequence[InjectedFault],
                 names: Sequence[str]) -> None:
        self.config = FatTreeConfig(
            nodes=scenario.n_nodes,
            nodes_per_leaf=scenario.nodes_per_leaf,
            leaves_per_pod=scenario.leaves_per_pod)
        self.node_index = {name: index for index, name in enumerate(names)}
        self.leaf_of = {name: index // scenario.nodes_per_leaf
                        for index, name in enumerate(names)}
        #: leaf -> pod map; None when the fabric has one pod, so no
        #: core tier (no pod uplink on any path, probe or placement)
        self.pod_of_leaf = (
            {leaf: leaf // scenario.leaves_per_pod
             for leaf in range(self.config.leaf_count)}
            if self.config.pod_count > 1 else None)
        self.link_health = LinkHealth()
        fabric_faults = [fault for fault in faults
                         if fault.kind in FABRIC_FAULT_KINDS]
        for fault in fabric_faults:
            end = fault.time + fault.duration
            if fault.link is None:
                raise ValueError(
                    f"network fault {fault.kind} has no link target")
            if fault.kind in DEGRADED_FACTORS:
                self.link_health.link_degraded(
                    fault.link, fault.time, end,
                    DEGRADED_FACTORS[fault.kind])
            elif fault.kind == "partial_partition":
                # asymmetric degradation: each NIC in the partition set
                # gets its own factor, some above the health threshold
                # (those pairs still pass probes) and some below
                for link, factor in zip(fault.links, fault.link_factors):
                    self.link_health.link_degraded(
                        link, fault.time, end, factor)
            elif fault.kind == "switch_down":
                leaf = int(fault.link.split(":", 1)[1])
                self.link_health.switch_down(self.config, leaf,
                                             fault.time, end)
            else:  # link_down / pod_link_down
                self.link_health.link_down(fault.link, fault.time, end)
        self.tree = FatTree(self.config, health=self.link_health)
        #: gate for topology-aware placement: scenarios without fabric
        #: faults place in plain name order, keeping their goldens
        #: byte-identical
        self.armed = bool(fabric_faults)
        #: fabric segments currently cordoned by localization
        self.cordoned_segments: set[str] = set()

    def _group(self, hosts: Iterable[str]) -> list[int] | None:
        """Node indices of a host set; None when it has no fabric path."""
        group = [self.node_index[name] for name in hosts]
        return group if len(group) > 1 else None

    def factor(self, hosts: Iterable[str], now: float) -> float:
        """Health factor of the host set's collective path (1.0 when
        there is no path, i.e. fewer than two hosts)."""
        group = self._group(hosts)
        return (1.0 if group is None
                else self.tree.group_health_factor(group, now))

    def down_links(self, hosts: Iterable[str], now: float) -> list[str]:
        """Downed links the host set's collective path crosses."""
        group = self._group(hosts)
        return ([] if group is None
                else self.tree.down_links_crossed(group, now))

    def tester(self, now: float) -> FabricCollectiveTester:
        """Snapshot live link health into a pass/fail probe oracle."""
        health = self.link_health
        node_factors = {
            name: health.factor(nic_link(index), now)
            for name, index in sorted(self.node_index.items())}
        segment_factors = {
            leaf_link(leaf): health.factor(leaf_link(leaf), now)
            for leaf in range(self.config.leaf_count)}
        if self.pod_of_leaf is not None:
            for pod in range(self.config.pod_count):
                segment_factors[pod_link(pod)] = health.factor(
                    pod_link(pod), now)
        return FabricCollectiveTester(
            self.leaf_of, node_factors=node_factors,
            segment_factors=segment_factors,
            min_factor=MIN_FACTOR, pod_of_leaf=self.pod_of_leaf)

    def path_factor(self, name: str, now: float) -> float:
        """Weakest segment (NIC, leaf uplink, pod uplink) of one node's
        fabric path — what invariant 14 checks a conviction against."""
        health = self.link_health
        leaf = self.leaf_of[name]
        path = min(health.factor(nic_link(self.node_index[name]), now),
                   health.factor(leaf_link(leaf), now))
        if self.pod_of_leaf is not None:
            path = min(path, health.factor(
                pod_link(self.pod_of_leaf[leaf]), now))
        return path

    def heal(self, now: float) -> list[str]:
        """Uncordon and return the segments back above the threshold."""
        healed = [segment for segment in sorted(self.cordoned_segments)
                  if self.link_health.factor(segment, now) >= MIN_FACTOR]
        self.cordoned_segments.difference_update(healed)
        return healed

    def _segment_ok(self, segment: str, now: float) -> bool:
        return (segment not in self.cordoned_segments
                and self.link_health.factor(segment, now) >= MIN_FACTOR)

    def place(self, candidates: Sequence[str], need: int,
              now: float) -> list[str] | None:
        """Pick ``need`` of the schedulable ``candidates`` (name order).

        Nodes behind sick NICs are skipped, a single leaf with enough
        capacity is preferred (full bandwidth, no uplink exposure), and
        cross-leaf groups only assemble over uplinks that are neither
        cordoned nor running below the health threshold.  With a
        pod-spanning fabric, single-pod groups are preferred (no
        core-tier exposure) and cross-pod groups only span pods with
        healthy uplinks.  None when no such group exists.
        """
        healthy = [name for name in candidates
                   if (self.link_health.factor(
                       nic_link(self.node_index[name]), now)
                       >= MIN_FACTOR)]
        if len(healthy) < need:
            return None
        if need == 1:
            return healthy[:1]
        by_leaf: dict[int, list[str]] = {}
        for name in healthy:
            by_leaf.setdefault(self.leaf_of[name], []).append(name)
        for leaf in sorted(by_leaf):
            if len(by_leaf[leaf]) >= need:
                return by_leaf[leaf][:need]
        if self.pod_of_leaf is None:
            return self._assemble(by_leaf, sorted(by_leaf), need, now)
        by_pod: dict[int, list[int]] = {}
        for leaf in sorted(by_leaf):
            by_pod.setdefault(self.pod_of_leaf[leaf], []).append(leaf)
        for pod in sorted(by_pod):
            group = self._assemble(by_leaf, by_pod[pod], need, now)
            if group is not None:
                return group
        # lazy, so pods past the one that completes the group are
        # never probed
        spanning = (leaf for pod in sorted(by_pod)
                    if self._segment_ok(pod_link(pod), now)
                    for leaf in by_pod[pod])
        return self._assemble(by_leaf, spanning, need, now)

    def _assemble(self, by_leaf: dict[int, list[str]],
                  leaves: Iterable[int], need: int,
                  now: float) -> list[str] | None:
        """First ``need`` nodes across ``leaves`` with healthy uplinks."""
        assembled: list[str] = []
        for leaf in leaves:
            if not self._segment_ok(leaf_link(leaf), now):
                continue
            assembled.extend(by_leaf[leaf])
            if len(assembled) >= need:
                return assembled[:need]
        return None
