"""Reference ``LinkHealth.factor``: a linear scan over every window.

Production answers from a per-link bisect timeline behind a
``(link, at)`` memo; both must equal this scan for any link and time.
"""

from __future__ import annotations

from repro.cluster.linkhealth import LinkHealth


def factor_scan(health: LinkHealth, link: str, at: float) -> float:
    """Minimum factor over the windows on ``link`` active at ``at``."""
    factor = 1.0
    for fault in health.faults:
        if fault.link == link and fault.active_at(at):
            factor = min(factor, fault.factor)
    return factor
