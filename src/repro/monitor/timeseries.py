"""Metric time series: the Prometheus database behind §2.3.

``MetricStore`` is a small append-only time-series store with fixed-
interval resampling (the paper samples at 15 s).
``record_cluster_utilization`` derives the cluster-allocation series
from a scheduler replay — occupancy over time, hour-of-day (diurnal)
profiles, and peak/mean statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.scheduler.simulator import SchedulerSimulator

SAMPLE_INTERVAL = 15.0  # §2.3: 15-second sampling


class MetricStore:
    """Append-only named series with step-function resampling."""

    def __init__(self) -> None:
        self._series: dict[str, list[tuple[float, float]]] = defaultdict(
            list)

    def append(self, name: str, timestamp: float, value: float) -> None:
        """Add one (timestamp, value) point to a series."""
        series = self._series[name]
        if series and timestamp < series[-1][0]:
            raise ValueError(
                f"timestamps must be non-decreasing for {name!r}")
        series.append((timestamp, value))

    def names(self) -> list[str]:
        """All stored series names."""
        return sorted(self._series)

    def raw(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The unsampled (times, values) arrays of a series."""
        if name not in self._series:
            raise KeyError(name)
        points = self._series[name]
        times = np.array([t for t, _ in points])
        values = np.array([v for _, v in points])
        return times, values

    def resample(self, name: str,
                 interval: float = SAMPLE_INTERVAL,
                 start: float | None = None,
                 end: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Sample-and-hold resampling onto a regular grid."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        times, values = self.raw(name)
        if times.size == 0:
            return np.empty(0), np.empty(0)
        start = times[0] if start is None else start
        end = times[-1] if end is None else end
        if end < start:
            raise ValueError("end must be >= start")
        grid = np.arange(start, end + interval / 2, interval)
        indices = np.searchsorted(times, grid, side="right") - 1
        indices = np.clip(indices, 0, times.size - 1)
        return grid, values[indices]


@dataclass
class UtilizationSeries:
    """Cluster GPU-allocation fraction over time."""

    times: np.ndarray
    allocation: np.ndarray
    total_gpus: int

    @property
    def mean(self) -> float:
        return float(self.allocation.mean()) if self.allocation.size \
            else 0.0

    @property
    def peak(self) -> float:
        return float(self.allocation.max()) if self.allocation.size \
            else 0.0

    def diurnal_profile(self) -> np.ndarray:
        """Mean allocation per hour of the simulated day (24 values)."""
        if self.times.size == 0:
            return np.zeros(24)
        hours = ((self.times % 86400.0) / 3600.0).astype(int)
        counts = np.bincount(hours, minlength=24)[:24]
        sums = np.bincount(hours, weights=self.allocation,
                           minlength=24)[:24]
        return np.divide(sums, counts, out=np.zeros(24),
                         where=counts > 0)

    def busiest_hour(self) -> int:
        """Hour of day with the highest mean allocation."""
        return int(np.argmax(self.diurnal_profile()))


def record_cluster_utilization(simulator: SchedulerSimulator,
                               interval: float = SAMPLE_INTERVAL * 20
                               ) -> UtilizationSeries:
    """Build the allocation series from a completed scheduler replay.

    The simulator's occupancy log is a step function of GPUs in use;
    this resamples it onto a regular grid (a coarser default interval
    keeps week-long replays small).

    The occupancy log goes straight into numpy arrays and through the
    same resampling arithmetic as :meth:`MetricStore.resample` — a
    1M-job replay logs millions of occupancy points.  Out-of-order
    points are skipped: a point survives iff its timestamp is >= the
    running maximum of all earlier timestamps (and >= 0).
    """
    total = simulator.config.total_gpus
    if not simulator.occupancy:
        return UtilizationSeries(np.empty(0), np.empty(0), total)
    if interval <= 0:
        raise ValueError("interval must be positive")
    points = np.asarray(simulator.occupancy, dtype=float)
    times = points[:, 0]
    floor = np.maximum.accumulate(np.concatenate(([0.0], times[:-1])))
    keep = times >= floor
    times = times[keep]
    values = points[:, 1][keep]
    if times.size == 0:
        return UtilizationSeries(np.empty(0), np.empty(0), total)
    grid = np.arange(times[0], times[-1] + interval / 2, interval)
    indices = np.searchsorted(times, grid, side="right") - 1
    indices = np.clip(indices, 0, times.size - 1)
    return UtilizationSeries(times=grid,
                             allocation=values[indices] / total,
                             total_gpus=total)
