"""Golden-trace regression tests for the seeded chaos scenarios.

Each checked-in fixture pins the *exact* event log and summary of one
bundled scenario at seed 0.  Any drift — a reordered event, a changed
timestamp, a different summary number — fails here, so behavioural
changes to the sim engine, scheduler, recovery controller, storage
fault stack, or harness must be made deliberately and the fixture
regenerated:

    PYTHONPATH=src python -m repro chaos --scenario smoke \\
        --json-out tests/data/chaos_golden.json
    PYTHONPATH=src python -m repro chaos --scenario storage-storm \\
        --json-out tests/data/chaos_storage_storm_golden.json
    PYTHONPATH=src python -m repro chaos --scenario network-storm \\
        --json-out tests/data/chaos_network_storm_golden.json
    PYTHONPATH=src python -m repro chaos --scenario straggler-storm \\
        --json-out tests/data/chaos_straggler_storm_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.chaos import BUNDLED_SCENARIOS, run_scenario

from .oracles import substitute

DATA_DIR = Path(__file__).parent / "data"
GOLDENS = {
    "smoke": DATA_DIR / "chaos_golden.json",
    "storage-storm": DATA_DIR / "chaos_storage_storm_golden.json",
    "network-storm": DATA_DIR / "chaos_network_storm_golden.json",
    "straggler-storm": DATA_DIR / "chaos_straggler_storm_golden.json",
}
#: every golden must hold bit-for-bit on the production code ("fast")
#: and with the oracles in tests/oracles/ swapped in ("reference")
ORACLES = pytest.mark.parametrize("oracles", [False, True],
                                  ids=["fast", "reference"])


def regen_hint(scenario):
    return (f"regenerate with: PYTHONPATH=src python -m repro chaos "
            f"--scenario {scenario} --json-out "
            f"tests/data/{GOLDENS[scenario].name}")


def current_payload(scenario, oracles=False):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if oracles:
            substitute(monkeypatch)
        result = run_scenario(BUNDLED_SCENARIOS[scenario])
    return {"summary": json.loads(result.summary.to_json()),
            "event_log": result.event_log_lines()}


@ORACLES
@pytest.mark.parametrize("scenario", sorted(GOLDENS))
def test_event_log_matches_golden(scenario, oracles):
    golden = json.loads(GOLDENS[scenario].read_text())
    current = current_payload(scenario, oracles)
    for line_no, (want, got) in enumerate(
            zip(golden["event_log"], current["event_log"]), start=1):
        assert want == got, (
            f"event log drifted at line {line_no} (oracles={oracles}):\n"
            f"  golden:  {want}\n  current: {got}\n"
            f"{regen_hint(scenario)}")
    assert len(current["event_log"]) == len(golden["event_log"]), (
        f"event log length changed: golden {len(golden['event_log'])} "
        f"vs current {len(current['event_log'])}\n{regen_hint(scenario)}")


@ORACLES
@pytest.mark.parametrize("scenario", sorted(GOLDENS))
def test_summary_matches_golden(scenario, oracles):
    golden = json.loads(GOLDENS[scenario].read_text())["summary"]
    current = current_payload(scenario, oracles)["summary"]
    drifted = sorted(key for key in golden.keys() | current.keys()
                     if golden.get(key) != current.get(key))
    assert not drifted, (
        f"summary drifted in {drifted}: "
        + ", ".join(f"{key}: golden={golden.get(key)!r} "
                    f"current={current.get(key)!r}" for key in drifted)
        + f"\n{regen_hint(scenario)}")


def test_network_storm_golden_demonstrates_localization():
    """The pinned storm must keep proving the fabric-recovery path:
    at least one segment conviction, followed (not just accompanied)
    by a gang migration, with every segment healed by the horizon."""
    golden = json.loads(GOLDENS["network-storm"].read_text())
    summary = golden["summary"]
    assert summary["network_faults"] >= 1
    assert summary["segment_convictions"] >= 1
    assert summary["gang_migrations"] >= 1
    assert summary["segments_cordoned_end"] == 0
    log = golden["event_log"]
    first_conviction = next(
        index for index, line in enumerate(log)
        if "recovery_cordon_segment" in line)
    assert any("gang_migrated" in line
               for line in log[first_conviction:])


def test_straggler_storm_golden_demonstrates_failure_domains():
    """The pinned storm must keep proving the failure-domain paths:
    stragglers detected by step-time deviation (not by a failure log
    line), a silent degrader flagged as waste at the horizon, spare
    swaps drawn from the hot pool, a power cap, and a per-kind
    MTTD/MTTL/MTTR decomposition covering the straggler episodes."""
    golden = json.loads(GOLDENS["straggler-storm"].read_text())
    summary = golden["summary"]
    assert summary["straggler_faults"] >= 2
    assert summary["stragglers_detected"] >= 1
    assert summary["stragglers_detected"] < summary["straggler_faults"]
    assert summary["silent_waste_gpu_hours"] > 0
    assert summary["spare_swaps"] >= 1
    assert summary["power_cap_faults"] >= 1
    assert summary["power_capped_hours"] > 0
    stages = summary["recovery_stages"]
    assert "straggler" in stages
    assert stages["straggler"]["mttd_s"] > 0
    assert stages["straggler"]["mttr_s"] > 0
    log = golden["event_log"]
    detection = next(index for index, line in enumerate(log)
                     if "deviation_detected" in line)
    # detection comes from the probe's timeseries, never a fault line
    assert not any("straggler_fault" in line for line in log)
    assert any("spare_swap" in line for line in log[detection:])
    assert any("silent_straggler" in line for line in log)
    assert any("power_cap_begin" in line for line in log)
    assert any("power_cap_end" in line for line in log)


def test_storage_storm_golden_demonstrates_fallback():
    """The pinned storm must keep proving the fallback-restore path."""
    golden = json.loads(GOLDENS["storage-storm"].read_text())
    summary = golden["summary"]
    assert summary["restore_fallbacks"] >= 1
    assert summary["ckpt_quarantined"] >= 1
    assert any("restore_fallback" in line
               for line in golden["event_log"])
    assert any("ckpt_quarantined" in line
               for line in golden["event_log"])
