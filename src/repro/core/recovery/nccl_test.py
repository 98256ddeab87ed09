"""Two-round NCCL test for locating faulty nodes and links (§6.1).

The paper's procedure for frequent NVLink errors:

1. Split all nodes into two-node worlds (one world of three if the count
   is odd) and run an allgather in each.  A world whose allgather fails
   contains at least one faulty node — its members become suspects.
2. Pair every suspect with a node from a passing world and re-run the
   allgather.  A failing pair convicts the suspect; a passing pair clears
   it.  Convicted nodes are cordoned off.

The collective itself is abstracted behind :class:`CollectiveTester` so
the algorithm is exactly the production pairing logic, independent of the
transport.

:func:`localize_network_faults` extends the scheme from node conviction
to *link localization* — the paper's NVLink-vs-node distinction.  When a
world fails only across a shared leaf/spine path, the path segment is
convicted, not its endpoint nodes: pairing stays inside one leaf first
(so NIC/node faults surface without touching the fabric), then a cycle
of cross-leaf probes over cleared representatives sweeps the leaf
uplinks of each pod, and the same cycle over the pods sweeps their
core-tier uplinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class World:
    """One test world (group of nodes running an allgather together)."""

    members: tuple[str, ...]


class CollectiveTester:
    """Runs (simulated) allgather tests against a hidden faulty set.

    A real deployment implements ``run_allgather`` with nccl-tests; here
    the collective fails iff any participant is in the injected faulty
    set.  ``tests_run`` counts collective launches — the efficiency the
    two-round scheme is optimizing.
    """

    def __init__(self, faulty_nodes: Iterable[str]) -> None:
        self.faulty_nodes = frozenset(faulty_nodes)
        self.tests_run = 0

    def run_allgather(self, world: World) -> bool:
        """True if the collective succeeds."""
        if not world.members:
            raise ValueError("empty world")
        self.tests_run += 1
        return not any(member in self.faulty_nodes
                       for member in world.members)


def _make_worlds(nodes: Sequence[str]) -> list[World]:
    """Pair nodes two at a time; fold a leftover into a world of three."""
    worlds = []
    count = len(nodes)
    even_end = count if count % 2 == 0 else count - 3
    for index in range(0, max(even_end, 0), 2):
        worlds.append(World((nodes[index], nodes[index + 1])))
    if count % 2 == 1:
        if count >= 3:
            worlds.append(World(tuple(nodes[-3:])))
        else:  # a single node cannot be paired; test it alone
            worlds.append(World((nodes[-1],)))
    return worlds


@dataclass
class NcclTestResult:
    """Outcome of the two-round procedure."""

    faulty: set[str] = field(default_factory=set)
    cleared: set[str] = field(default_factory=set)
    suspects_after_round1: set[str] = field(default_factory=set)
    tests_run: int = 0


def two_round_nccl_test(nodes: Sequence[str],
                        tester: CollectiveTester) -> NcclTestResult:
    """Identify the faulty nodes among ``nodes``.

    Guarantees (under the fail-iff-any-member-faulty model): every faulty
    node is convicted and no healthy node is, provided at least one world
    passes round 1 (otherwise there is no trusted partner and all
    suspects are conservatively convicted).
    """
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node names")
    result = NcclTestResult()
    if not nodes:
        result.tests_run = tester.tests_run
        return result

    # Round 1: pairwise sweep.
    suspects: list[str] = []
    healthy_pool: list[str] = []
    for world in _make_worlds(list(nodes)):
        if tester.run_allgather(world):
            healthy_pool.extend(world.members)
        else:
            suspects.extend(world.members)
    result.suspects_after_round1 = set(suspects)

    if not suspects:
        result.cleared = set(nodes)
        result.tests_run = tester.tests_run
        return result

    if not healthy_pool:
        # No trusted partner exists; cordon everything suspicious rather
        # than risk restarting onto broken hardware.
        result.faulty = set(suspects)
        result.tests_run = tester.tests_run
        return result

    # Round 2: pair each suspect with a known-good node.
    probe = healthy_pool[0]
    for suspect in suspects:
        if tester.run_allgather(World((suspect, probe))):
            result.cleared.add(suspect)
        else:
            result.faulty.add(suspect)
    result.cleared.update(healthy_pool)
    result.tests_run = tester.tests_run
    return result


# -- link localization --------------------------------------------------------


def leaf_segment(leaf: int) -> str:
    """Segment id of a leaf's uplink path (matches linkhealth naming)."""
    return f"leaf:{leaf}"


def pod_segment(pod: int) -> str:
    """Segment id of a pod's core-tier uplink (matches linkhealth)."""
    return f"pod:{pod}"


class FabricCollectiveTester:
    """Allgather tester whose failures come from the fabric, not a set.

    A collective fails when any participant is in the injected faulty
    set, any participant's NIC runs below ``min_factor`` of nominal, or
    a leaf uplink (for worlds spanning leaves) or a pod's core-tier
    uplink (for worlds spanning pods) it crosses does.  This is the
    observable the localization algorithm works against: it sees only
    pass/fail per world, never the factors directly.

    ``node_factors`` maps node name -> NIC health factor and
    ``segment_factors`` maps segment id -> uplink health factor
    (``leaf:{l}`` and ``pod:{p}``); both default missing entries to 1.0
    (healthy).  ``pod_of_leaf`` maps leaf -> pod; without it every leaf
    sits in one pod, so no world crosses the core tier.
    """

    def __init__(self, leaf_of: Mapping[str, int],
                 node_factors: Mapping[str, float] | None = None,
                 segment_factors: Mapping[str, float] | None = None,
                 faulty_nodes: Iterable[str] = (),
                 min_factor: float = 0.5,
                 pod_of_leaf: Mapping[int, int] | None = None) -> None:
        self.leaf_of = dict(leaf_of)
        self.node_factors = dict(node_factors or {})
        self.segment_factors = dict(segment_factors or {})
        self.faulty_nodes = frozenset(faulty_nodes)
        self.min_factor = min_factor
        self.pod_of_leaf = (dict(pod_of_leaf) if pod_of_leaf
                            else dict.fromkeys(self.leaf_of.values(), 0))
        self.tests_run = 0

    def run_allgather(self, world: World) -> bool:
        """True if the collective succeeds."""
        if not world.members:
            raise ValueError("empty world")
        self.tests_run += 1
        if any(member in self.faulty_nodes for member in world.members):
            return False
        if len(world.members) == 1:
            # A single-node world exercises no fabric traffic.
            return True
        if any(self.node_factors.get(member, 1.0) < self.min_factor
               for member in world.members):
            return False
        leaves = {self.leaf_of[member] for member in world.members}
        if len(leaves) > 1:
            for leaf in sorted(leaves):
                factor = self.segment_factors.get(leaf_segment(leaf), 1.0)
                if factor < self.min_factor:
                    return False
            pods = {self.pod_of_leaf[leaf] for leaf in sorted(leaves)}
            if len(pods) > 1:
                for pod in sorted(pods):
                    factor = self.segment_factors.get(pod_segment(pod), 1.0)
                    if factor < self.min_factor:
                        return False
        return True


@dataclass
class LinkLocalizationResult:
    """Outcome of the topology-aware localization procedure."""

    #: nodes convicted (bad NIC or bad node — indistinguishable here)
    faulty_nodes: set[str] = field(default_factory=set)
    #: uplink segments (``leaf:{l}`` or ``pod:{p}``) convicted with two
    #: independent witnesses
    faulty_segments: set[str] = field(default_factory=set)
    #: segments implicated but not pinned (single witness / all-fail)
    ambiguous_segments: set[str] = field(default_factory=set)
    cleared: set[str] = field(default_factory=set)
    #: suspects that could not be resolved (no usable probe path)
    unresolved: set[str] = field(default_factory=set)
    suspects_after_round1: set[str] = field(default_factory=set)
    tests_run: int = 0


def _cycle_sweep(members: Sequence[int], reps: Mapping[int, str],
                 segment: Callable[[int], str],
                 tester: FabricCollectiveTester,
                 result: LinkLocalizationResult) -> dict[int, int]:
    """Test the uplinks of ``members`` (leaves or pods) pairwise around
    a cycle of their representative nodes ``reps``.

    Two members share one world; three or more form a cycle, so every
    uplink gets two independent witnesses.  Two failing worlds convict
    a member's ``segment``.  A failing world with neither endpoint at
    two failures leaves both segments ambiguous (one witness cannot
    tell which uplink is sick), and so does every world failing
    (trouble above the tier, or too many sick uplinks to separate):
    convicting there could cordon a healthy segment.

    Returns each member's count of failing worlds, or nothing when the
    sweep reached no verdict (fewer than two members, or every world
    failed).
    """
    count = len(members)
    if count < 2:
        return {}
    worlds = [(members[index], members[(index + 1) % count])
              for index in range(count if count > 2 else 1)]
    failed = [(left, right) for left, right in worlds
              if not tester.run_allgather(World((reps[left], reps[right])))]
    if len(failed) == len(worlds):
        result.ambiguous_segments.update(map(segment, members))
        return {}
    failures = dict.fromkeys(members, 0)
    for left, right in failed:
        failures[left] += 1
        failures[right] += 1
    for member in members:
        if failures[member] == 2:
            result.faulty_segments.add(segment(member))
    for left, right in failed:
        if failures[left] < 2 and failures[right] < 2:
            result.ambiguous_segments.add(segment(left))
            result.ambiguous_segments.add(segment(right))
    return failures


def localize_network_faults(nodes: Sequence[str],
                            tester: FabricCollectiveTester,
                            leaf_of: Mapping[str, int],
                            pod_of_leaf: Mapping[int, int] | None = None
                            ) -> LinkLocalizationResult:
    """Locate faulty nodes *and* faulty uplinks among ``nodes``.

    Four rounds, each reusing the two-round machinery at one tier:

    1. **Intra-leaf sweep** — pairwise worlds confined to one leaf, so a
       failure implicates a node/NIC, never an uplink.
    2. **Node conviction** — each suspect re-paired with a cleared node
       from its *own* leaf; fail convicts, pass clears.  Suspects in a
       leaf with no cleared partner are deferred to round 4.
    3. **Uplink cycle sweeps** — one cleared representative per leaf,
       tested pairwise around a cycle (:func:`_cycle_sweep`) confined
       to its pod, so a sick core-tier uplink cannot frame a leaf
       segment.  A leaf incident to two failing worlds is convicted; a
       failure explained by a convicted endpoint clears its partner;
       anything else is ambiguous (never convicted — invariant: a
       healthy segment must not be cordoned).  A leaf with no failing
       world is exonerated.  A lone rep (its leaf has no partner, so
       round 1 never exercised its NIC) cannot pin its uplink: NIC and
       uplink are indistinguishable by collectives, so the *node* is
       convicted conservatively and the segment only flagged as
       ambiguous.  The same sweep then runs over the pods, through one
       fully-vetted representative per pod — NIC exercised in round 1
       *and* leaf uplink exonerated — and convicts or flags ``pod:{p}``
       segments the same way.
    4. **Deferred resolution** — deferred suspects probe through an
       uplink that is neither convicted nor ambiguous, preferring their
       own pod and never crossing an implicated pod uplink; a failure
       conservatively convicts the node (matching the base algorithm's
       bias) unless its own uplink is known-bad, in which case it stays
       unresolved.

    Without ``pod_of_leaf`` every leaf sits in one pod, so no pod sweep
    runs.
    """
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node names")
    result = LinkLocalizationResult()
    if not nodes:
        result.tests_run = tester.tests_run
        return result

    by_leaf: dict[int, list[str]] = {}
    for node in nodes:
        by_leaf.setdefault(leaf_of[node], []).append(node)
    leaves = sorted(by_leaf)
    if pod_of_leaf is None:
        pod_of_leaf = dict.fromkeys(leaves, 0)

    # Round 1: intra-leaf pairwise sweep (no fabric traffic crossed).
    suspects_by_leaf: dict[int, list[str]] = {}
    cleared_by_leaf: dict[int, list[str]] = {}
    for leaf in leaves:
        suspects_by_leaf[leaf] = []
        cleared_by_leaf[leaf] = []
        for world in _make_worlds(by_leaf[leaf]):
            if tester.run_allgather(world):
                cleared_by_leaf[leaf].extend(world.members)
            else:
                suspects_by_leaf[leaf].extend(world.members)
        result.suspects_after_round1.update(suspects_by_leaf[leaf])

    # Round 2: convict suspects against an intra-leaf cleared probe.
    deferred: list[str] = []
    for leaf in leaves:
        pool = cleared_by_leaf[leaf]
        for suspect in suspects_by_leaf[leaf]:
            if not pool:
                deferred.append(suspect)
                continue
            if tester.run_allgather(World((suspect, pool[0]))):
                result.cleared.add(suspect)
                pool.append(suspect)
            else:
                result.faulty_nodes.add(suspect)
    for leaf in leaves:
        result.cleared.update(cleared_by_leaf[leaf])
    result.cleared -= result.faulty_nodes

    # Round 3: a cycle sweep over the leaf uplinks of each pod, then
    # one over the pods' core-tier uplinks.
    rep_leaves = [leaf for leaf in leaves if cleared_by_leaf[leaf]]
    reps = {leaf: cleared_by_leaf[leaf][0] for leaf in rep_leaves}
    pod_groups: dict[int, list[int]] = {}
    for leaf in rep_leaves:
        pod_groups.setdefault(pod_of_leaf[leaf], []).append(leaf)
    pod_reps: dict[int, str] = {}
    for pod in sorted(pod_groups):
        group = pod_groups[pod]
        failures = _cycle_sweep(group, reps, leaf_segment, tester, result)
        for leaf in group:
            if failures.get(leaf) == 2 and len(by_leaf[leaf]) == 1:
                # Round 1 never exercised this lone rep's NIC (a
                # single-node world moves no fabric bytes), so its NIC
                # and its uplink are observationally identical.  Convict
                # the node — the safe, conservative call — and flag the
                # segment rather than risk cordoning a healthy uplink.
                result.faulty_segments.discard(leaf_segment(leaf))
                result.ambiguous_segments.add(leaf_segment(leaf))
                result.faulty_nodes.add(reps[leaf])
                result.cleared.discard(reps[leaf])
            # A trustworthy pod witness needs both a NIC exercised by a
            # real multi-node world and a positively exonerated leaf
            # uplink; otherwise a pod-cycle failure could be the rep's
            # own path, framing the pod segment.
            if (pod not in pod_reps and failures.get(leaf) == 0
                    and len(by_leaf[leaf]) >= 2):
                pod_reps[pod] = reps[leaf]
    _cycle_sweep(sorted(pod_reps), pod_reps, pod_segment, tester, result)

    # Round 4: resolve suspects whose leaf had no intra-leaf probe.
    bad_segments = result.faulty_segments | result.ambiguous_segments
    probe_leaves = [leaf for leaf in rep_leaves
                    if leaf_segment(leaf) not in bad_segments]
    if not rep_leaves:
        # No cleared node anywhere: no trusted partner exists, cordon
        # everything suspicious (matches two_round_nccl_test).
        result.faulty_nodes.update(deferred)
        deferred = []
    for suspect in deferred:
        own_leaf = leaf_of[suspect]
        own_pod = pod_of_leaf[own_leaf]
        candidates = [leaf for leaf in probe_leaves
                      if pod_of_leaf[leaf] == own_pod]
        if not candidates and pod_segment(own_pod) not in bad_segments:
            candidates = [
                leaf for leaf in probe_leaves
                if pod_segment(pod_of_leaf[leaf]) not in bad_segments]
        if leaf_segment(own_leaf) in bad_segments or not candidates:
            # A cross-leaf probe would test the sick uplink, not the
            # node — or there is no trustworthy path at all.
            result.unresolved.add(suspect)
            continue
        if tester.run_allgather(World((suspect, reps[candidates[0]]))):
            result.cleared.add(suspect)
        else:
            result.faulty_nodes.add(suspect)

    result.tests_run = tester.tests_run
    return result
