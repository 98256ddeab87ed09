"""Dataloader memory-leak model (Appendix B).

The paper's second troubleshooting lesson: PyTorch dataloaders with
``num_workers > 0`` leak host memory through the fork copy-on-write
mechanism touching large Python lists; after ~27 hours the worker is
OOM-killed (the Table 3 ``DataloaderKilled`` row, whose mean
time-to-failure is ~26 hours).  The fix: ``num_workers = 0`` plus
on-the-fly loading (which Appendix A.2 also credits with a much smaller
dataloader footprint than Megatron-style full-metadata loading).

``DataloaderModel`` reproduces the leak trajectory and the fix.
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = 1024 ** 3


@dataclass(frozen=True)
class DataloaderConfig:
    """Host-side dataloader configuration for one node."""

    num_workers: int = 4
    #: bytes of dataset index shared via fork (the CoW-touched list —
    #: sample metadata for trillions of tokens)
    index_bytes: int = 20 * GIB
    #: fraction of the index each worker gradually dirties per hour —
    #: refcount updates touch pages even on "read-only" access
    cow_touch_rate_per_hour: float = 0.035
    #: steady footprint of the loader process itself
    base_bytes: int = 2 * GIB
    #: on-the-fly loading (InternEvo) vs full-metadata (Megatron-style)
    on_the_fly: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if not 0.0 <= self.cow_touch_rate_per_hour <= 1.0:
            raise ValueError("touch rate must be a fraction")


class DataloaderModel:
    """Host-memory trajectory of a dataloader over a long run."""

    def __init__(self, config: DataloaderConfig,
                 host_memory_bytes: int = 200 * GIB,
                 other_usage_bytes: int = 123 * GIB) -> None:
        """``host_memory_bytes`` defaults to a per-job cgroup limit, not
        the full node: the OOM killer acts on the container's budget."""
        self.config = config
        self.host_memory_bytes = host_memory_bytes
        self.other_usage_bytes = other_usage_bytes

    def footprint_bytes(self, hours: float) -> float:
        """Dataloader memory after ``hours`` of training."""
        if hours < 0:
            raise ValueError("hours must be non-negative")
        cfg = self.config
        base = cfg.base_bytes
        if not cfg.on_the_fly:
            # Megatron-style: the whole dataset metadata is resident.
            base += cfg.index_bytes
        if cfg.num_workers == 0:
            return float(base)
        touched_fraction = min(1.0,
                               cfg.cow_touch_rate_per_hour * hours)
        leaked = cfg.num_workers * cfg.index_bytes * touched_fraction
        return float(base + leaked)

    def hours_until_killed(self, max_hours: float = 10_000.0) -> float:
        """Hours until the node OOMs (``inf`` if it never does)."""
        budget = self.host_memory_bytes - self.other_usage_bytes
        if self.footprint_bytes(0.0) >= budget:
            return 0.0
        cfg = self.config
        if cfg.num_workers == 0:
            return float("inf")
        # Solve base + W * I * r * t = budget for t, capped at full touch.
        base = self.footprint_bytes(0.0)
        slope_per_hour = (cfg.num_workers * cfg.index_bytes
                          * cfg.cow_touch_rate_per_hour)
        if slope_per_hour <= 0:
            return float("inf")
        hours = (budget - base) / slope_per_hour
        full_touch_hours = 1.0 / cfg.cow_touch_rate_per_hour
        if hours > full_touch_hours:
            return float("inf")  # leak saturates before OOM
        return min(hours, max_hours)

    def is_fixed_configuration(self) -> bool:
        """The Appendix B mitigation: no fork workers, on-the-fly data."""
        return self.config.num_workers == 0 and self.config.on_the_fly
