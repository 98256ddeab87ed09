"""Training-anomaly detectors (§5.3's restart triggers).

Three situations demand a restart: (1) an error inside the job — handled
by the diagnosis system; (2) a loss spike that does not recover; (3) a
stuck training process.  This module covers (2), plus the failure class
between errors and hangs: a job whose step time quietly drifts upward
(a straggling node), detected from the observed timeseries alone.  The
chaos harness injects (3) directly as an ``AnomalyEvent`` of kind
``"hang"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque


@dataclass(frozen=True)
class AnomalyEvent:
    """A detected anomaly."""

    kind: str          # "loss_spike", "hang", or "straggler"
    step: int
    detail: str


class LossSpikeDetector:
    """Flags a loss spike that fails to recover.

    A spike is a loss sample exceeding the trailing-window mean by
    ``threshold`` standard deviations (with a relative floor).  The spike
    is only *reported* if the loss stays elevated for ``patience``
    consecutive steps — the paper restarts only when a spike "does not
    recover over a certain period".
    """

    def __init__(self, window: int = 50, threshold: float = 4.0,
                 relative_floor: float = 0.15,
                 patience: int = 10) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.window = window
        self.threshold = threshold
        self.relative_floor = relative_floor
        self.patience = patience
        self._history: deque[float] = deque(maxlen=window)
        self._elevated_since: int | None = None

    def _is_elevated(self, loss: float) -> bool:
        n = len(self._history)
        if n < self.window // 2:
            return False
        mean = sum(self._history) / n
        variance = sum((x - mean) ** 2 for x in self._history) / n
        std = variance ** 0.5
        bound = mean + max(self.threshold * std,
                           self.relative_floor * abs(mean))
        return loss > bound

    def observe(self, step: int, loss: float) -> AnomalyEvent | None:
        """Feed one loss sample; returns an event once a spike persists."""
        elevated = self._is_elevated(loss)
        if elevated:
            if self._elevated_since is None:
                self._elevated_since = step
            if step - self._elevated_since + 1 >= self.patience:
                since = self._elevated_since
                self._elevated_since = None
                return AnomalyEvent(
                    kind="loss_spike", step=step,
                    detail=f"loss elevated since step {since}")
        else:
            self._elevated_since = None
            self._history.append(loss)  # only healthy samples train stats
        return None


class StepTimeDeviationDetector:
    """Flags sustained step-time deviation — the straggler signature.

    Stragglers and silent degraders never crash and never log: the only
    observable is the training timeseries itself drifting away from the
    nominal step time (the ByteDance "slow node" catalogue).  Each
    probe feeds the *ratio* of observed to nominal step time; a ratio
    at or above ``threshold`` for ``patience`` consecutive probes
    raises a ``straggler`` anomaly.  A single elevated probe (a
    checkpoint stall, a transient) is ignored; any healthy probe
    resets the streak.  Degraders that stay below the threshold are
    deliberately *not* detected here — they are the silent-waste class
    the chaos invariants flag at the end of the run instead.
    """

    def __init__(self, threshold: float = 1.15,
                 patience: int = 2) -> None:
        if threshold <= 1.0:
            raise ValueError("threshold must be > 1.0")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.threshold = threshold
        self.patience = patience
        self._streak = 0

    def observe(self, step: int, ratio: float) -> AnomalyEvent | None:
        """Feed one observed/nominal step-time ratio."""
        if ratio >= self.threshold:
            self._streak += 1
            if self._streak >= self.patience:
                self._streak = 0  # re-arm after reporting
                return AnomalyEvent(
                    kind="straggler", step=step,
                    detail=f"step time {ratio:.2f}x nominal for "
                           f"{self.patience} consecutive probes")
        else:
            self._streak = 0
        return None
