"""Evaluation workload substrate (§4.2).

A catalog of benchmark datasets (with the runtime priors §6.2's elastic
scheduler exploits) and a trial execution model decomposing an evaluation
job into its stages: model loading, data preprocessing, GPU inference,
and CPU metric computation.
"""

from repro.evaluation.datasets import (EvalDataset, DATASET_CATALOG,
                                       standard_catalog, dataset_by_name)
from repro.evaluation.harness import (EvalStage, StageSegment, TrialProfile,
                                      humaneval_profile)
from repro.evaluation.quality import (QualityModel, QualityCurveConfig,
                                      CheckpointScore,
                                      select_best_checkpoint,
                                      feedback_delay_cost)

__all__ = [
    "EvalDataset",
    "DATASET_CATALOG",
    "standard_catalog",
    "dataset_by_name",
    "EvalStage",
    "StageSegment",
    "TrialProfile",
    "humaneval_profile",
    "QualityModel",
    "QualityCurveConfig",
    "CheckpointScore",
    "select_best_checkpoint",
    "feedback_delay_cost",
]
