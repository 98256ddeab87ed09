"""Incremental-horizon equivalence for the chaos harness.

The streaming service (``repro.service``) drives one long-lived engine
in many small ``advance(until=...)`` horizons.  That only works if
partitioning a run into horizons is *invisible*: the engine's ``until``
stop never consumes a sequence number or perturbs the heap, so any
sequence of cumulative ``advance`` calls must be event-for-event
byte-identical to one batch run to the same final horizon — for every
bundled scenario, on the production code ("fast") and with the oracles
in ``tests/oracles/`` swapped in ("reference").
"""

import pytest

from repro.chaos import BUNDLED_SCENARIOS
from repro.chaos.harness import ChaosHarness

from .oracles import substitute

SCENARIOS = sorted(BUNDLED_SCENARIOS)


def batch_run(name):
    return ChaosHarness(BUNDLED_SCENARIOS[name]).run()


def incremental_run(name, parts):
    harness = ChaosHarness(BUNDLED_SCENARIOS[name])
    duration = harness.scenario.duration
    harness.start()
    for part in range(1, parts + 1):
        # exact final horizon; interior cuts at awkward fractions
        until = (duration if part == parts
                 else duration * part / parts)
        harness.advance(until)
    return harness.finish()


@pytest.mark.parametrize("oracles", [False, True],
                         ids=["fast", "reference"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_incremental_horizons_equal_batch_run(scenario, oracles,
                                              monkeypatch):
    if oracles:
        substitute(monkeypatch)
    batch = batch_run(scenario)
    split = incremental_run(scenario, parts=7)
    assert split.event_log_text() == batch.event_log_text()
    assert split.summary.to_json() == batch.summary.to_json()


def test_lifecycle_misuse_raises():
    from repro.sim.engine import SimulationError
    harness = ChaosHarness(BUNDLED_SCENARIOS["smoke"])
    with pytest.raises(SimulationError):
        harness.advance(1.0)  # before start()
    with pytest.raises(SimulationError):
        harness.finish()      # before start()
    harness.start()
    with pytest.raises(SimulationError):
        harness.start()       # twice
    harness.advance(10.0)
    with pytest.raises(SimulationError):
        harness.advance(5.0)  # backwards
    harness.finish()
    with pytest.raises(SimulationError):
        harness.finish()      # twice
    with pytest.raises(SimulationError):
        harness.advance(20.0)  # after finish()
