"""Production-vs-oracle equivalence over every bundled scenario.

Each bundled chaos scenario runs twice, traced: once on the production
code, and once with the oracles in ``tests/oracles/`` swapped in for
the bodies they pin (``oracles.substitute``, a pytest ``monkeypatch``
seam that exists only in tests).  For everything a run's artifacts
observe — the event log, the summary, the full observability export,
the engine's event count — the two runs must be **byte-identical**;
every test is a straight ``==`` on strings.

These tests catch what the golden fixtures alone cannot: a change that
drifts behaviour and is shipped with regenerated goldens still fails
the direct diff against the oracles.
"""

import json

import pytest

from repro.chaos import BUNDLED_SCENARIOS
from repro.chaos.harness import ChaosHarness
from repro.obs import Tracer, chrome_trace_json

from .oracles import substitute

SCENARIOS = sorted(BUNDLED_SCENARIOS)
#: scenarios whose fabric faults make the link-health lookup run
LINK_HEALTH_SCENARIOS = {"network-storm", "partition-storm"}
#: scenarios with a diagnosis that the rules miss, so the LLM scores it
AGENT_PATH_SCENARIOS = {"flaky-node", "infra-storm", "mixed",
                        "network-storm", "storage-storm"}


def run_traced(scenario_name):
    """One traced run of a bundled scenario; returns its artifacts."""
    tracer = Tracer()
    harness = ChaosHarness(BUNDLED_SCENARIOS[scenario_name],
                           tracer=tracer)
    result = harness.run()
    return {
        "event_log": result.event_log_text(),
        "summary": result.summary.to_json(),
        "chrome_trace": chrome_trace_json(
            tracer, end_time=result.scenario.duration),
        "events_processed": harness.engine.events_processed,
    }


@pytest.fixture(scope="module", params=SCENARIOS)
def both_paths(request):
    """(production artifacts, oracle artifacts) for one scenario."""
    production = run_traced(request.param)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = substitute(monkeypatch)
        oracle = run_traced(request.param)
    oracle["oracle_calls"] = calls
    return production, oracle


def test_event_logs_byte_identical(both_paths):
    production, oracle = both_paths
    assert production["event_log"] == oracle["event_log"]


def test_summaries_byte_identical(both_paths):
    production, oracle = both_paths
    assert production["summary"] == oracle["summary"]


def test_obs_exports_byte_identical(both_paths):
    """The full Chrome-trace export (spans, counters, gauges) matches."""
    production, oracle = both_paths
    assert production["chrome_trace"] == oracle["chrome_trace"]


def test_same_event_count(both_paths):
    """Both runs execute the exact same number of engine events."""
    production, oracle = both_paths
    assert production["events_processed"] == oracle["events_processed"]


def test_chrome_trace_is_valid_json(both_paths):
    production, _ = both_paths
    payload = json.loads(production["chrome_trace"])
    assert payload["traceEvents"]


def test_oracle_run_went_through_the_oracles(request, both_paths):
    """The seam is live: the oracle run really called the oracles.

    Every scenario orders its queue, runs scheduling rounds, checks
    the invariants after every engine event and diagnoses at least one
    failure log; only the fabric storms look up link health, and five
    scenarios ask the LLM.
    """
    scenario = request.node.callspec.params["both_paths"]
    oracle = both_paths[1]
    calls = oracle["oracle_calls"]
    assert calls["PriorityPolicy.ordered"] > 0
    assert calls["SchedulerSimulator._try_schedule"] > 0
    assert calls["InvariantChecker.check"] == oracle["events_processed"]
    assert (calls["LinkHealth.factor"] > 0) == (
        scenario in LINK_HEALTH_SCENARIOS)
    assert calls["LogAgent.observe_segment"] > 0
    assert calls["LogCompressor.compress"] > 0
    assert (calls["TemplateLLM._score"] > 0) == (
        scenario in AGENT_PATH_SCENARIOS)
