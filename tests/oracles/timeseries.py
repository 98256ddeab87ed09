"""Reference utilization recording and diurnal profile.

``record_cluster_utilization`` pushes every occupancy point through a
``MetricStore`` and resamples it; ``diurnal_profile`` averages one hour
of the day at a time.  Production does both with whole-array numpy
operations and must return the same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.monitor.timeseries import (SAMPLE_INTERVAL, MetricStore,
                                      UtilizationSeries)
from repro.scheduler.simulator import SchedulerSimulator


def record_cluster_utilization(simulator: SchedulerSimulator,
                               interval: float = SAMPLE_INTERVAL * 20
                               ) -> UtilizationSeries:
    """Per-point store-and-resample of the occupancy log."""
    total = simulator.config.total_gpus
    if not simulator.occupancy:
        return UtilizationSeries(np.empty(0), np.empty(0), total)
    store = MetricStore()
    last = 0.0
    for timestamp, gpus in simulator.occupancy:
        if timestamp < last:
            continue  # defensive: occupancy is appended in time order
        store.append("gpus_in_use", timestamp, gpus)
        last = timestamp
    times, values = store.resample("gpus_in_use", interval=interval)
    return UtilizationSeries(times=times, allocation=values / total,
                             total_gpus=total)


def diurnal_profile(series: UtilizationSeries) -> np.ndarray:
    """Mean allocation per hour of the day, one hour at a time."""
    if series.times.size == 0:
        return np.zeros(24)
    hours = ((series.times % 86400.0) / 3600.0).astype(int)
    profile = np.zeros(24)
    for hour in range(24):
        mask = hours == hour
        profile[hour] = (float(series.allocation[mask].mean())
                         if mask.any() else 0.0)
    return profile
