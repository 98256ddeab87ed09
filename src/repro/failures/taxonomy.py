"""The Table 3 failure taxonomy, embedded verbatim.

Each row records: occurrence count, GPU demand (average/median),
time-to-failure (average/median, minutes), share of total failure GPU
time, time-to-restart (average/median, minutes), and the clusters where
the reason appeared.  These statistics parameterize the failure injector
and are the ground truth the regenerated Table 3 is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FailureCategory(Enum):
    """Table 3's three failure classes."""
    INFRASTRUCTURE = "infrastructure"
    FRAMEWORK = "framework"
    SCRIPT = "script"


@dataclass(frozen=True)
class FailureSpec:
    """One Table 3 row."""

    category: FailureCategory
    reason: str
    count: int
    demand_avg: float
    demand_median: float
    ttf_avg_min: float       # time to failure, minutes
    ttf_median_min: float
    gpu_time_pct: float      # share of total failure GPU time, percent
    restart_avg_min: float   # time to restart, minutes
    restart_median_min: float
    clusters: tuple[str, ...]

    @property
    def recoverable_by_restart(self) -> bool:
        """Whether an automatic restart (possibly after cordoning nodes)
        is the right mitigation — true for infrastructure faults, false
        for user-code errors that will simply fail again."""
        return self.category is not FailureCategory.SCRIPT


_I = FailureCategory.INFRASTRUCTURE
_F = FailureCategory.FRAMEWORK
_S = FailureCategory.SCRIPT
_SK = ("seren", "kalos")
_SO = ("seren",)
_KO = ("kalos",)

#: Table 3, sorted by GPU-time share as in the paper.
TAXONOMY: list[FailureSpec] = [
    FailureSpec(_I, "NVLinkError", 54, 800, 896, 868.1, 155.3,
                30.25, 95.6, 0.2, _SK),
    FailureSpec(_I, "CUDAError", 21, 847, 1024, 923.2, 586.0,
                15.77, 78.3, 2.0, _SK),
    FailureSpec(_I, "NodeFailure", 16, 712, 768, 1288.8, 535.8,
                14.30, 102.8, 21.5, _SO),
    FailureSpec(_I, "ECCError", 12, 680, 512, 1303.4, 1192.3,
                11.00, 2.8, 1.8, _SK),
    FailureSpec(_I, "NetworkError", 12, 758, 768, 549.6, 310.1,
                4.53, 592.1, 7.4, _SK),
    FailureSpec(_I, "ConnectionError", 147, 29, 1, 51.9, 0.5,
                3.44, 0.8, 0.0, _SK),
    FailureSpec(_I, "S3StorageError", 10, 422, 256, 2317.8, 202.2,
                2.12, 6.2, 0.2, _SO),
    FailureSpec(_I, "NCCLTimeoutError", 6, 596, 512, 159.7, 48.1,
                0.50, 66.7, 43.6, _KO),
    FailureSpec(_I, "NCCLRemoteError", 3, 1152, 1024, 50.5, 22.6,
                0.15, 0.0, 0.7, _KO),
    FailureSpec(_F, "DataloaderKilled", 6, 445, 508, 1580.6, 961.4,
                4.38, 115.1, 0.9, _KO),
    FailureSpec(_F, "AttributeError", 67, 228, 8, 67.8, 1.2,
                3.90, 2.4, 0.0, _SK),
    FailureSpec(_F, "OutOfMemoryError", 14, 572, 640, 323.8, 14.5,
                3.28, 122.7, 1.2, _SK),
    FailureSpec(_F, "RuntimeError", 65, 441, 352, 66.4, 3.9,
                1.72, 10.9, 1.5, _SK),
    FailureSpec(_F, "AssertionError", 105, 413, 256, 41.7, 3.0,
                1.24, 185.9, 1.6, _SK),
    FailureSpec(_F, "ValueError", 33, 387, 256, 9.9, 3.7,
                0.16, 27.4, 0.6, _SK),
    FailureSpec(_F, "ZeroDivisionError", 5, 499, 256, 14.5, 15.6,
                0.03, 2.5, 1.1, _SK),
    FailureSpec(_F, "ModelLoadingError", 104, 8, 8, 2.6, 2.6,
                0.00, 0.0, 0.0, _KO),
    FailureSpec(_F, "DatasetLoadingError", 5, 1, 1, 1.6, 1.6,
                0.00, 0.0, 0.0, _KO),
    FailureSpec(_S, "FileNotFoundError", 568, 21, 1, 14.2, 0.4,
                2.83, 0.4, 0.0, _SK),
    FailureSpec(_S, "OSError", 266, 8, 1, 9.6, 0.8,
                0.28, 0.3, 0.0, _SK),
    FailureSpec(_S, "TypeError", 620, 18, 4, 0.9, 0.3,
                0.06, 0.2, 0.0, _SK),
    FailureSpec(_S, "NameError", 18, 247, 24, 3.2, 0.5,
                0.02, 2.9, 2.4, _SK),
    FailureSpec(_S, "PermissionError", 7, 438, 512, 4.3, 0.8,
                0.01, 2.4, 2.2, _SO),
    FailureSpec(_S, "ImportError", 111, 93, 8, 1.1, 0.4,
                0.01, 0.7, 0.0, _SK),
    FailureSpec(_S, "KeyError", 260, 7, 0.5, 3.0, 1.6,
                0.01, 0.1, 0.0, _SK),
    FailureSpec(_S, "SyntaxError", 10, 391, 384, 0.7, 0.6,
                0.00, 1.7, 1.7, _SK),
    FailureSpec(_S, "ArgumentError", 3, 344, 512, 0.7, 0.7,
                0.00, 2.7, 0.7, _SO),
    FailureSpec(_S, "CalledProcessError", 4, 256, 256, 0.2, 0.2,
                0.00, 11.7, 10.9, _SO),
    FailureSpec(_S, "IndexError", 23, 6, 1, 1.6, 0.9,
                0.00, 0.8, 0.0, _SK),
]


#: Chaos fault kinds that target the storage path rather than a node.
#: They map onto Table 3's ``S3StorageError`` row (network-storage
#: outages on Seren) for taxonomy accounting.
STORAGE_FAULT_KINDS: tuple[str, ...] = (
    "storage_outage", "storage_slowdown", "ckpt_corruption")

#: The taxonomy reason storage chaos faults are charged against.
STORAGE_CHAOS_REASON = "S3StorageError"

#: Chaos fault kinds that degrade the network fabric rather than a
#: node or the storage path: a dead link, a link at fractional
#: bandwidth, and a dead leaf switch (all its incident links down).
NETWORK_FAULT_KINDS: tuple[str, ...] = (
    "link_down", "link_degraded", "switch_down")

#: Chaos fault kinds that degrade the core (pod) tier of the fabric:
#: a dead or degraded ``pod:{p}`` aggregate uplink.  They behave like
#: network faults one tier up — only gangs that cross pods notice.
POD_FAULT_KINDS: tuple[str, ...] = (
    "pod_link_down", "pod_link_degraded")

#: Chaos fault kinds that degrade an *asymmetric set* of links at
#: once: some NIC pairs still pass the NCCL probe while others fail,
#: so localization must convict the segment set, not a single link.
PARTITION_FAULT_KINDS: tuple[str, ...] = ("partial_partition",)

#: Chaos fault kinds that slow a node down without any failure log
#: line.  ``straggler`` decays fast enough that timeseries deviation
#: detection catches it; ``silent_degrader`` stays under the detection
#: threshold and is flagged as silent waste at the end of the run.
STRAGGLER_FAULT_KINDS: tuple[str, ...] = (
    "straggler", "silent_degrader")

#: Chaos fault kinds that cap fleet power: the monitor power/thermal
#: models feed a capping curve that stretches every step in the window.
POWER_FAULT_KINDS: tuple[str, ...] = ("power_cap",)

#: Every fault kind that drives LinkHealth windows (NIC, leaf switch,
#: pod uplink, or partition link sets).
FABRIC_FAULT_KINDS: tuple[str, ...] = (
    NETWORK_FAULT_KINDS + POD_FAULT_KINDS + PARTITION_FAULT_KINDS)

#: Table 3 reasons network chaos faults are charged against: hard link
#: losses surface as NVLink errors, degradations and switch losses as
#: generic network errors.  Pod-tier and partition faults are fabric
#: faults too and use the same NetworkError row; straggler and power
#: kinds deliberately have no reason — they never emit a failure log.
NETWORK_CHAOS_REASONS: dict[str, str] = {
    "link_down": "NVLinkError",
    "link_degraded": "NetworkError",
    "switch_down": "NetworkError",
    "pod_link_down": "NetworkError",
    "pod_link_degraded": "NetworkError",
    "partial_partition": "NetworkError",
}


def taxonomy_by_reason() -> dict[str, FailureSpec]:
    """Reason-name -> spec mapping."""
    return {spec.reason: spec for spec in TAXONOMY}


def taxonomy_by_category() -> dict[FailureCategory, list[FailureSpec]]:
    """Specs grouped by failure category."""
    grouped: dict[FailureCategory, list[FailureSpec]] = {
        category: [] for category in FailureCategory}
    for spec in TAXONOMY:
        grouped[spec.category].append(spec)
    return grouped


def total_failure_count() -> int:
    """Sum of all Table 3 occurrence counts."""
    return sum(spec.count for spec in TAXONOMY)


def category_counts() -> dict[FailureCategory, int]:
    """Occurrence counts per category."""
    counts = {category: 0 for category in FailureCategory}
    for spec in TAXONOMY:
        counts[spec.category] += spec.count
    return counts


def category_gpu_time_shares() -> dict[FailureCategory, float]:
    """GPU-time share per category (infrastructure > 82%, §5.2)."""
    shares = {category: 0.0 for category in FailureCategory}
    for spec in TAXONOMY:
        shares[spec.category] += spec.gpu_time_pct
    return shares
