"""Reference implementations kept only as differential-test oracles.

Each module keeps the straightforward body of a production hot path,
and unit and property tests diff production against it directly.
``substitute`` swaps the oracles a simulation can reach in for their
production bodies through pytest's ``monkeypatch``, so a whole scenario
can also run on reference code and be diffed end to end.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from typing import Any, Callable

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.cluster.linkhealth import LinkHealth
from repro.core.diagnosis import LogAgent, LogCompressor, TemplateLLM
from repro.scheduler.policy import PriorityPolicy
from repro.scheduler.simulator import SchedulerSimulator
from repro.service.state import RollingDigest

from . import diagnosis, invariants
from .linkhealth import factor_scan
from .scheduler import ReferenceSchedulerSimulator, ordered_by_sort
from .service import full_text_digest


def substitute(monkeypatch: pytest.MonkeyPatch) -> Counter[str]:
    """Swap every simulation-path oracle in; returns its call counts.

    The counts, keyed by the name of the production code replaced, are
    live until ``monkeypatch`` undoes the swap.
    """
    calls: Counter[str] = Counter()

    def counted(name: str, oracle: Callable[..., Any]
                ) -> Callable[..., Any]:
        @wraps(oracle)
        def call(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return oracle(*args, **kwargs)
        return call

    monkeypatch.setattr(LinkHealth, "factor", counted(
        "LinkHealth.factor", factor_scan))
    monkeypatch.setattr(PriorityPolicy, "ordered", counted(
        "PriorityPolicy.ordered", ordered_by_sort))
    for method in ("_try_schedule", "_evict_borrowers_for",
                   "state_digest"):
        monkeypatch.setattr(SchedulerSimulator, method, counted(
            f"SchedulerSimulator.{method}",
            getattr(ReferenceSchedulerSimulator, method)))
    monkeypatch.setattr(RollingDigest, "hexdigest", counted(
        "RollingDigest.hexdigest", full_text_digest))
    monkeypatch.setattr(InvariantChecker, "check", counted(
        "InvariantChecker.check", invariants.check))
    monkeypatch.setattr(LogCompressor, "compress", counted(
        "LogCompressor.compress", diagnosis.compress))
    monkeypatch.setattr(LogAgent, "observe_segment", counted(
        "LogAgent.observe_segment", diagnosis.observe_segment))
    monkeypatch.setattr(TemplateLLM, "_score", counted(
        "TemplateLLM._score", diagnosis.score))
    return calls
