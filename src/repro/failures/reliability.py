"""Reliability analysis: goodput and optimal checkpoint interval.

Connects a job's mean time between failures to the §6.1 checkpointing
decisions:

* expected goodput of a pretraining job as a function of checkpoint
  interval, blocking cost, and restart cost;
* the Young/Daly optimal checkpoint interval
  ``tau* = sqrt(2 * C * MTBF)`` and an exact discrete optimizer.

The paper's 30-minute interval (§6.1) emerges as near-optimal for the
123B configuration once checkpointing is asynchronous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GoodputModel:
    """Expected useful fraction of wall-clock for a failing job.

    Parameters are in consistent time units (seconds below):

    * ``mtbf`` — mean time between failures of the job;
    * ``checkpoint_cost`` — blocking time per checkpoint (async: the
      snapshot; sync: snapshot + persist);
    * ``restart_cost`` — downtime per failure (detection + reschedule +
      cold start).
    """

    mtbf: float
    checkpoint_cost: float
    restart_cost: float

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if self.checkpoint_cost < 0 or self.restart_cost < 0:
            raise ValueError("costs must be non-negative")

    def _raw_waste(self, interval: float) -> float:
        """Unclamped first-order waste: C/tau + tau/(2*MTBF) + R/MTBF.

        Strictly convex in ``interval`` — the optimizer works on this.
        """
        overhead = self.checkpoint_cost / interval
        rework = interval / (2.0 * self.mtbf)
        downtime = self.restart_cost / self.mtbf
        return overhead + rework + downtime

    def wasted_fraction(self, interval: float) -> float:
        """Expected fraction of time not spent making retained progress.

        First-order model (valid for interval << MTBF): checkpoint
        overhead ``C/tau`` + expected rework ``tau/(2*MTBF)`` + restart
        downtime ``R/MTBF``.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        return min(1.0, self._raw_waste(interval))

    def goodput(self, interval: float) -> float:
        """1 - wasted fraction at the given interval."""
        return max(0.0, 1.0 - self.wasted_fraction(interval))

    def young_daly_interval(self) -> float:
        """The classic first-order optimum: sqrt(2 * C * MTBF)."""
        if self.checkpoint_cost == 0:
            return 0.0
        return math.sqrt(2.0 * self.checkpoint_cost * self.mtbf)

    def optimal_interval(self, low: float = 1.0,
                         high: float | None = None,
                         tolerance: float = 0.5) -> float:
        """Golden-section search of the (convex) waste curve.

        The default upper bound is the MTBF itself — checkpointing less
        often than you fail is never useful.
        """
        if self.checkpoint_cost == 0:
            return low
        high = high if high is not None else self.mtbf
        high = max(high, low + tolerance)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = low, high
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        while b - a > tolerance:
            if self._raw_waste(c) < self._raw_waste(d):
                b = d
            else:
                a = c
            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)
        return (a + b) / 2.0


def interval_sweep(model: GoodputModel,
                   intervals: list[float]) -> list[dict]:
    """Goodput at each candidate interval (for the ablation bench)."""
    return [{"interval_s": interval,
             "goodput": model.goodput(interval),
             "wasted_fraction": model.wasted_fraction(interval)}
            for interval in intervals]
