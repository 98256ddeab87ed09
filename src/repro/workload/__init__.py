"""Synthetic workload/trace generation.

The paper analyzes a six-month production trace (AcmeTrace).  We cannot
ship the production trace, so this package generates synthetic traces whose
distributions are calibrated to every statistic the paper reports: workload
mix (Fig. 4), GPU-demand distributions (Fig. 5), duration/queueing shapes
(Figs. 2/6), final-status mix (Fig. 17), and the comparison datacenters of
Table 2 (Philly, Helios, PAI).
"""

from repro.workload.spec import (ClusterWorkloadSpec, TypeSpec,
                                 SEREN_SPEC, KALOS_SPEC)
from repro.workload.generator import TraceGenerator
from repro.workload.baselines import (DatacenterProfile, PHILLY, HELIOS, PAI,
                                      generate_baseline_trace,
                                      BASELINE_PROFILES)
from repro.workload.trace import Trace
from repro.workload.validate import (Anchor, AnchorResult, PAPER_ANCHORS,
                                     calibration_report, validate_trace)
from repro.workload.streams import (ArrivalStream, EvalBurstConfig,
                                    EvalBurstStream, PoissonJobStream,
                                    PoissonStreamConfig,
                                    stream_from_config)

__all__ = [
    "ClusterWorkloadSpec",
    "TypeSpec",
    "SEREN_SPEC",
    "KALOS_SPEC",
    "TraceGenerator",
    "DatacenterProfile",
    "PHILLY",
    "HELIOS",
    "PAI",
    "BASELINE_PROFILES",
    "generate_baseline_trace",
    "Trace",
    "Anchor",
    "AnchorResult",
    "PAPER_ANCHORS",
    "calibration_report",
    "validate_trace",
    "ArrivalStream",
    "EvalBurstConfig",
    "EvalBurstStream",
    "PoissonJobStream",
    "PoissonStreamConfig",
    "stream_from_config",
]
