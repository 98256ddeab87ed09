"""Distributed LLM pretraining simulator.

Analytic models of transformer training at cluster scale: parameter/FLOP
accounting, 3D parallelism (tensor/pipeline/data) and hierarchical ZeRO,
per-GPU memory footprints under 1F1B scheduling, step-time decomposition,
SM-utilization timeline synthesis, and long-horizon pretraining progress
with failure injection.  These reproduce the paper's workload profiling
(Figs. 10–13, 19, 20, 22) and the recovery study (Fig. 14).
"""

from repro.training.model import (TransformerConfig, MoEConfig,
                                  MODEL_7B, MODEL_13B, MODEL_30B,
                                  MODEL_104B, MODEL_123B, MISTRAL_7B_MOE)
from repro.training.parallelism import (ParallelismPlan, internevo_v1,
                                        internevo_v2)
from repro.training.memory import MemoryModel, MemorySnapshot
from repro.training.step import StepTimeModel, StepBreakdown
from repro.training.profiler import SmProfiler, UtilizationTimeline
from repro.training.pretrain import (PretrainProcess, PretrainSimulator,
                                     PretrainRun, RecoveryMode)
from repro.training.moe import moe_step_model
from repro.training.gc_tuning import GcController, simulate_gc_impact

__all__ = [
    "TransformerConfig",
    "MoEConfig",
    "MODEL_7B",
    "MODEL_13B",
    "MODEL_30B",
    "MODEL_104B",
    "MODEL_123B",
    "MISTRAL_7B_MOE",
    "ParallelismPlan",
    "internevo_v1",
    "internevo_v2",
    "MemoryModel",
    "MemorySnapshot",
    "StepTimeModel",
    "StepBreakdown",
    "SmProfiler",
    "UtilizationTimeline",
    "PretrainProcess",
    "PretrainSimulator",
    "PretrainRun",
    "RecoveryMode",
    "moe_step_model",
    "GcController",
    "simulate_gc_impact",
]

from repro.training.loss import (LossCurveConfig, LossSimulator,  # noqa: E402
                                 SpikeSpec, train_with_spike_recovery)

__all__ += [
    "LossCurveConfig",
    "LossSimulator",
    "SpikeSpec",
    "train_with_spike_recovery",
]

from repro.training.dataloader import (DataloaderConfig,  # noqa: E402
                                       DataloaderModel)

__all__ += [
    "DataloaderConfig",
    "DataloaderModel",
]

from repro.training.extensions import (LongSequencePlan,  # noqa: E402
                                       RlhfConfig, RlhfStageModel)

__all__ += [
    "LongSequencePlan",
    "RlhfConfig",
    "RlhfStageModel",
]
