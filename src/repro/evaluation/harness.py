"""Evaluation-trial execution model (§4.2, Fig. 13).

An evaluation trial passes through four stages; only one occupies the GPU:

1. model loading from remote storage (GPU idle),
2. data preprocessing / tokenization (GPU idle),
3. inference and generation (GPU busy),
4. metric computation and verification (GPU idle — e.g. running the
   synthesized programs of HumanEval).

The paper's HumanEval profile: >1 minute before inference starts (29.5% of
the job), a 42-second idle tail for correctness tests (19.0%), and only
about half the walltime doing GPU work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.evaluation.datasets import dataset_by_name
from repro.training.profiler import UtilizationTimeline

GB = 10 ** 9


class EvalStage(Enum):
    """The four stages of an evaluation trial (Fig. 13)."""
    MODEL_LOAD = "model_load"
    PREPROCESS = "preprocess"
    INFERENCE = "inference"
    METRIC = "metric"


#: GPU SM activity per stage — inference keeps the SMs busy in bursts;
#: everything else leaves the GPU allocated-but-idle.
_STAGE_SM = {
    EvalStage.MODEL_LOAD: 0.01,
    EvalStage.PREPROCESS: 0.02,
    EvalStage.INFERENCE: 0.62,
    EvalStage.METRIC: 0.01,
}


@dataclass(frozen=True)
class StageSegment:
    """One contiguous stage interval within a trial."""
    stage: EvalStage
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class TrialProfile:
    """The staged timeline of one evaluation trial."""

    segments: list[StageSegment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(segment.duration for segment in self.segments)

    def stage_seconds(self, stage: EvalStage) -> float:
        """Total seconds spent in ``stage``."""
        return sum(segment.duration for segment in self.segments
                   if segment.stage is stage)

    def stage_fraction(self, stage: EvalStage) -> float:
        """Share of the trial spent in ``stage``."""
        total = self.total
        return self.stage_seconds(stage) / total if total else 0.0

    @property
    def gpu_busy_fraction(self) -> float:
        return self.stage_fraction(EvalStage.INFERENCE)

    def utilization_timeline(self, resolution: float = 1.0,
                             seed: int | None = 0) -> UtilizationTimeline:
        """DCGM-style SM trace of the trial (Fig. 13)."""
        total = self.total
        n = max(2, int(total / resolution))
        times = np.linspace(0.0, total, n)
        sm = np.zeros(n)
        rng = np.random.default_rng(seed) if seed is not None else None
        for i, t in enumerate(times):
            for segment in self.segments:
                if segment.start <= t <= segment.end:
                    level = _STAGE_SM[segment.stage]
                    if (segment.stage is EvalStage.INFERENCE
                            and rng is not None):
                        # generation is bursty: decode phases oscillate
                        level = float(np.clip(
                            level + 0.3 * np.sin(t * 2.1)
                            + rng.normal(0, 0.05), 0.05, 1.0))
                    sm[i] = level
                    break
        tc = sm * 0.6
        return UtilizationTimeline(times=times, sm=sm, tc=tc)


def humaneval_profile(model_scale: float = 1.0) -> TrialProfile:
    """The Fig. 13 reference trial: HumanEval on a 7B model.

    Calibrated so load+preprocess ≈ 29.5% and the metric tail ≈ 19.0% of
    the trial, with inference taking roughly half.
    """
    humaneval = dataset_by_name("humaneval").scaled(model_scale)
    # Fig. 13's trial runs the correctness tests inline but they overlap
    # the tail only (42 s of exposed idle).
    profile = TrialProfile()
    # fp16 7B weights from remote storage at an effective 0.26 GB/s
    # (contention and deserialization included; Fig. 16 left)
    load = 14 * GB / (0.26 * GB)
    preprocess = humaneval.preprocess_seconds
    inference = humaneval.inference_seconds
    exposed_metric = 42.0 * model_scale
    cursor = 0.0
    for stage, duration in [(EvalStage.MODEL_LOAD, load),
                            (EvalStage.PREPROCESS, preprocess),
                            (EvalStage.INFERENCE, inference),
                            (EvalStage.METRIC, exposed_metric)]:
        profile.segments.append(StageSegment(stage, cursor, duration))
        cursor += duration
    return profile
