"""Statistical helpers for the figure generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probability)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return np.empty(0), np.empty(0)
    ordered = np.sort(array)
    probability = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, probability


def percentile(values, q: float) -> float:
    """The q-th percentile of a sample."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("empty sample")
    return float(np.percentile(array, q))


def median(values) -> float:
    """The sample median."""
    return percentile(values, 50.0)


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary with 1.5-IQR whiskers (Fig. 5's boxes)."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values) -> BoxplotStats:
    """Five-number summary with 1.5-IQR whiskers."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("empty sample")
    q1 = float(np.percentile(array, 25))
    q2 = float(np.percentile(array, 50))
    q3 = float(np.percentile(array, 75))
    iqr = q3 - q1
    low_bound = q1 - 1.5 * iqr
    high_bound = q3 + 1.5 * iqr
    inside = array[(array >= low_bound) & (array <= high_bound)]
    if inside.size == 0:
        inside = array
    return BoxplotStats(q1=q1, median=q2, q3=q3,
                        whisker_low=float(inside.min()),
                        whisker_high=float(inside.max()))
