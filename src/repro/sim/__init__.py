"""Discrete-event simulation substrate.

The paper's characterization is built on a real datacenter; we replay the
same logic on a deterministic discrete-event engine.  The cluster
scheduler, pretraining and its checkpoints, the chaos harness's fault
injection and the streaming service run on :class:`Engine`.
"""

from repro.sim.engine import Engine, EngineSnapshot
from repro.sim.distributions import (
    Distribution,
    Constant,
    Uniform,
    LogNormal,
    Mixture,
    Choice,
    lognormal_from_median_mean,
)

__all__ = [
    "Engine",
    "EngineSnapshot",
    "Distribution",
    "Constant",
    "Uniform",
    "LogNormal",
    "Mixture",
    "Choice",
    "lognormal_from_median_mean",
]
