"""Differential test: the per-event invariant check against its oracle.

``InvariantChecker.check`` reads only what it needs: the scheduler's
running allocated total, the rollback records appended since its last
call, and unsorted scans that build nothing while the state is sound.
This file runs it and the full check in ``tests/oracles/invariants.py``
on the same checker after every engine event: over every bundled
scenario at its pinned seed and at seeds 0-3, and over a fuzzer that
draws a scenario, a seed and fault-count overrides.  At every event
either both raise the same message or neither raises.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.chaos import BUNDLED_SCENARIOS, ChaosScenario, InvariantViolation
from repro.chaos.harness import ChaosHarness
from repro.chaos.invariants import InvariantChecker

from .oracles import invariants as oracle

PRODUCTION_CHECK = InvariantChecker.check
SCENARIOS = sorted(BUNDLED_SCENARIOS)


def verdict(check: Callable[[InvariantChecker, float], None],
            checker: InvariantChecker, time: float) -> str | None:
    """The message ``check`` raises on ``checker``, or None."""
    try:
        check(checker, time)
    except InvariantViolation as error:
        return str(error)
    return None


class PairedRun:
    """One chaos run whose checker is production and oracle in turn.

    After every engine event the oracle, then production, checks the
    run's own checker.  They must agree; a violation they share ends
    the run as the checker alone would.  ``defect``, if given, gets the
    harness before the run starts, to break it.
    """

    def __init__(self, scenario: ChaosScenario,
                 defect: Callable[[ChaosHarness], None] | None = None
                 ) -> None:
        self.events = 0
        #: (event number, message) of the violation both checks raised
        self.violation: tuple[int, str] | None = None
        #: what the run raised: a shared verdict or a harness violation
        self.error: str | None = None
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(InvariantChecker, "check",
                                lambda checker, time:
                                self.check(checker, time))
            harness = ChaosHarness(scenario)
            if defect is not None:
                defect(harness)
            try:
                harness.run()
            except InvariantViolation as error:
                self.error = str(error)
        self.events_processed = harness.engine.events_processed

    def check(self, checker: InvariantChecker, time: float) -> None:
        self.events += 1
        expected = verdict(oracle.check, checker, time)
        actual = verdict(PRODUCTION_CHECK, checker, time)
        assert actual == expected, (
            f"event {self.events}: production raised {actual!r}, "
            f"the oracle {expected!r}")
        if actual is not None:
            self.violation = (self.events, actual)
            raise InvariantViolation(actual)


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenarios_agree_at_every_event(name):
    for seed in sorted({BUNDLED_SCENARIOS[name].seed, 0, 1, 2, 3}):
        run = PairedRun(BUNDLED_SCENARIOS[name].with_seed(seed))
        assert run.events == run.events_processed > 0
        assert run.violation is None


#: overrides the chaos CLI exposes, each drawn or left as the scenario's
OVERRIDES = {
    "n_faults": st.integers(0, 12),
    "n_storage_faults": st.integers(0, 5),
    "n_network_faults": st.integers(0, 5),
    "n_straggler_faults": st.integers(0, 3),
    "n_power_faults": st.integers(0, 1),
    "hot_spares": st.integers(0, 2),
}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**16),
       overrides=st.fixed_dictionaries({}, optional=OVERRIDES))
def test_fuzzed_scenarios_agree_at_every_event(name, seed, overrides):
    try:
        scenario = replace(BUNDLED_SCENARIOS[name], seed=seed, **overrides)
    except ValueError:
        reject()
    run = PairedRun(scenario)
    assert run.events == run.events_processed > 0
