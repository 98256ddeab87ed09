"""Live fault-injection (chaos) harness for the §5/§6.1 failure path.

``repro.failures`` samples *offline* failure populations; this package
injects faults into a *running* simulation and verifies the recovery
stack end to end:

* ``scenario`` — seeded, fully reproducible fault schedules drawn from
  the Table 3 taxonomy, plus bundled ready-made scenarios;
* ``harness`` — wires the sim engine, the quota scheduler, a live
  pretraining gang, and the §6.1 recovery controller together, then
  replays the schedule against them;
* ``storage`` / ``fabric`` / ``slowdown`` — the fault domains' state
  (checkpoint storage, link health, stragglers and power caps);
* ``invariants`` — cross-layer invariants checked after every event;
* ``report`` — MTTF / MTTR / wasted GPU-time / recovery-rate summaries
  comparable to the paper's §6.1.2 numbers.
"""

from repro.chaos.harness import (ChaosHarness, ChaosResult,
                                 PRETRAIN_JOB_ID, run_scenario)
from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.report import ChaosSummary, summarize
from repro.chaos.scenario import (BUNDLED_SCENARIOS, ChaosScenario,
                                  GPUS_PER_NODE, InjectedFault)
from repro.failures.taxonomy import STORAGE_FAULT_KINDS

__all__ = [
    "BUNDLED_SCENARIOS",
    "ChaosHarness",
    "ChaosResult",
    "ChaosScenario",
    "ChaosSummary",
    "GPUS_PER_NODE",
    "InjectedFault",
    "InvariantChecker",
    "InvariantViolation",
    "PRETRAIN_JOB_ID",
    "STORAGE_FAULT_KINDS",
    "run_scenario",
    "summarize",
]
