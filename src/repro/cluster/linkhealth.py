"""Time-windowed link health overlay for the cluster fabric.

The paper's most frequent and most disruptive interruptions come from
the network fabric (Table 3: NVLink/IB link errors, NIC flaps, switch
failures).  This module makes the otherwise-immutable fat-tree model
(`repro.cluster.fattree.FatTree`) degradable: a :class:`LinkHealth`
overlay records ``[start, end)`` fault windows on the simulation clock,
and the fabric consults it when computing bandwidth factors.

Three fault shapes are supported, mirroring the chaos fault kinds:

- ``link_down`` — a link carries no traffic for the window (factor 0).
- ``link_degraded`` — a link runs at a fraction of nominal bandwidth.
- ``switch_down`` — a leaf switch dies; every link it terminates (the
  member nodes' NICs and the leaf's uplink) goes down for the window.

The overlay is a strict no-op when empty: an armed-but-empty
:class:`LinkHealth` must never perturb rates, placement, or event
ordering, so seeded runs without network faults stay byte-identical.

Link naming follows the fat-tree tiers (node/leaf/pod indices are the
integer coordinates used by :class:`~repro.cluster.fattree.FatTree`):

- ``nic:{node}`` — the node's NIC into its leaf switch.
- ``leaf:{leaf}`` — the leaf switch's aggregate uplink to the spine.
- ``pod:{pod}`` — the pod's aggregate uplink to the core.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fattree import FatTreeConfig


def nic_link(node: int) -> str:
    """Link id of a node's NIC into its leaf."""
    return f"nic:{node}"


def leaf_link(leaf: int) -> str:
    """Link id of a leaf switch's uplink into the spine."""
    return f"leaf:{leaf}"


def pod_link(pod: int) -> str:
    """Link id of a pod's uplink into the core."""
    return f"pod:{pod}"


@dataclass(frozen=True)
class LinkFault:
    """One ``[start, end)`` health window on a named link.

    ``factor`` is the fraction of nominal bandwidth available during
    the window: ``0.0`` means the link is down, ``0 < factor < 1``
    means degraded.  A factor of 1.0 would be a no-op and is rejected.
    """

    link: str
    start: float
    end: float
    factor: float = 0.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("fault window must have end > start")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError("factor must be in [0, 1)")

    def active_at(self, at: float) -> bool:
        """Whether the window covers sim time ``at`` (half-open)."""
        return self.start <= at < self.end


class LinkHealth:
    """Windowed health state for a set of named links.

    Queries are pure functions of (link, time): the overlay never
    mutates on read, so the same schedule replayed with the same clock
    yields identical answers — the property the chaos goldens pin.
    """

    def __init__(self, faults: Iterable[LinkFault] = ()) -> None:
        self._faults: list[LinkFault] = list(faults)
        #: per-link piecewise-constant factor timeline, built lazily:
        #: (sorted boundaries, factor on [boundary[i], boundary[i+1]))
        self._timelines: dict[str, tuple[list[float], list[float]]] = {}

    @property
    def empty(self) -> bool:
        """True when no fault windows are registered (strict no-op)."""
        return not self._faults

    @property
    def faults(self) -> tuple[LinkFault, ...]:
        return tuple(self._faults)

    def add(self, fault: LinkFault) -> None:
        """Register a fault window (invalidates cached timelines)."""
        self._faults.append(fault)
        self._timelines.pop(fault.link, None)

    def link_down(self, link: str, start: float, end: float) -> None:
        """Take ``link`` fully down for ``[start, end)``.

        An empty window (``end <= start``, e.g. a zero-duration chaos
        fault) is a strict no-op: nothing is registered, ``empty``
        stays true, and no degenerate ``[t, t)`` entry can perturb
        the timelines.
        """
        if end <= start:
            return
        self.add(LinkFault(link=link, start=start, end=end, factor=0.0))

    def link_degraded(self, link: str, start: float, end: float,
                      factor: float) -> None:
        """Run ``link`` at ``factor`` of nominal for ``[start, end)``.

        Empty windows (``end <= start``) are strict no-ops, as in
        :meth:`link_down`; a non-positive factor is still rejected.
        """
        if factor <= 0.0:
            raise ValueError("degraded factor must be positive; "
                             "use link_down for factor 0")
        if end <= start:
            return
        self.add(LinkFault(link=link, start=start, end=end,
                           factor=factor))

    def switch_down(self, config: "FatTreeConfig", leaf: int,
                    start: float, end: float) -> tuple[str, ...]:
        """Take a leaf switch down: derive and down its incident links.

        Returns the derived link ids (member-node NICs plus the leaf
        uplink) so callers can log or assert against the expansion.
        An empty window returns ``()`` and registers nothing.
        """
        if not 0 <= leaf < config.leaf_count:
            raise ValueError(f"leaf {leaf} out of range")
        if end <= start:
            return ()
        first = leaf * config.nodes_per_leaf
        last = min(first + config.nodes_per_leaf, config.nodes)
        derived = tuple(nic_link(node) for node in range(first, last)
                        ) + (leaf_link(leaf),)
        for link in derived:
            self.link_down(link, start, end)
        return derived

    def factor(self, link: str, at: float) -> float:
        """Bandwidth factor for ``link`` at sim time ``at``.

        1.0 when healthy; the minimum factor across overlapping
        windows otherwise (a down window dominates a degraded one).

        Answered by bisect from a lazily built piecewise-constant
        timeline per link.  The timeline equals a scan over every
        window: the factor is constant between consecutive window
        boundaries.
        """
        timeline = self._timelines.get(link)
        if timeline is None:
            timeline = self._build_timeline(link)
            self._timelines[link] = timeline
        boundaries, factors = timeline
        segment = bisect_right(boundaries, at) - 1
        return 1.0 if segment < 0 else factors[segment]

    def _build_timeline(self, link: str
                        ) -> tuple[list[float], list[float]]:
        """Piecewise-constant factor timeline for one link.

        Boundaries are the sorted distinct window starts/ends; the
        factor on ``[boundaries[i], boundaries[i+1])`` is the minimum
        over windows active there (evaluated at the segment start —
        windows are half-open, so activity cannot change inside a
        segment).  Beyond the last boundary every window has ended and
        the factor is 1.0.
        """
        windows = [fault for fault in self._faults if fault.link == link]
        boundaries = sorted({edge for fault in windows
                             for edge in (fault.start, fault.end)})
        factors = []
        for start in boundaries:
            factor = 1.0
            for fault in windows:
                if fault.active_at(start):
                    factor = min(factor, fault.factor)
            factors.append(factor)
        return boundaries, factors

    def is_down(self, link: str, at: float) -> bool:
        """Whether ``link`` carries no traffic at ``at``."""
        return self.factor(link, at) == 0.0

    def group_factor(self, links: Iterable[str], at: float) -> float:
        """Minimum factor across a set of links (path health)."""
        factor = 1.0
        for link in links:
            factor = min(factor, self.factor(link, at))
        return factor

    def down_links(self, at: float) -> tuple[str, ...]:
        """Sorted ids of all links down at ``at``."""
        down = {fault.link for fault in self._faults
                if fault.factor == 0.0 and fault.active_at(at)}
        return tuple(sorted(down))

    def last_end(self) -> float:
        """End of the latest fault window (0.0 when empty)."""
        if not self._faults:
            return 0.0
        return max(fault.end for fault in self._faults)
