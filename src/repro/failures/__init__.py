"""Failure substrate: taxonomy (Table 3), injection, and runtime logs.

The taxonomy embeds the paper's full failure statistics; the injector
samples failure events consistent with them; the log generator produces
realistic runtime logs (stdout/stderr) for each failure reason, which the
diagnosis system (``repro.core.diagnosis``) consumes.
"""

from repro.failures.taxonomy import (FailureCategory, FailureSpec,
                                     TAXONOMY, taxonomy_by_reason,
                                     taxonomy_by_category)
from repro.failures.injector import FailureInjector, FailureEvent
from repro.failures.logs import LogGenerator, generate_job_log
from repro.failures.reliability import GoodputModel, interval_sweep
from repro.failures.thermal import (ThermalHazardModel,
                                    scenario_failure_rates)

__all__ = [
    "FailureCategory",
    "FailureSpec",
    "TAXONOMY",
    "taxonomy_by_reason",
    "taxonomy_by_category",
    "FailureInjector",
    "FailureEvent",
    "LogGenerator",
    "generate_job_log",
    "GoodputModel",
    "interval_sweep",
    "ThermalHazardModel",
    "scenario_failure_rates",
]
