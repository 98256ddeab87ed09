"""SM-utilization timeline synthesis (Figs. 10, 19, 22).

The paper samples DCGM ``PROF_SM_ACTIVE`` at 1 ms during pretraining.  We
synthesize the equivalent timeline from the step-time breakdown: each phase
of the step contributes a segment with a characteristic SM activity level,
so the rendered trace shows the same signature the paper reports — deep
periodic valleys for 3D parallelism (pipeline bubbles, blocking TP
collectives) versus a flatter, higher trace for hierarchical ZeRO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.training.model import TransformerConfig
from repro.training.parallelism import ParallelismPlan
from repro.training.step import StepTimeModel

#: characteristic SM activity per phase, calibrated to DCGM traces:
#: kernels near-saturate the SMs; collectives keep copy/reduction kernels
#: partially active; bubbles are idle.
PHASE_ACTIVITY = {
    "compute": 0.92,
    "compute_recompute": 0.95,
    "tensor_parallel_comm": 0.30,
    "pipeline_p2p": 0.08,
    "pipeline_bubble": 0.02,
    "exposed_dp_comm": 0.12,
    "optimizer": 0.55,
}

#: tensor-core activity is a scaled-down SM activity (TC only runs in GEMMs)
TC_SCALE = {
    "compute": 0.75,
    "compute_recompute": 0.78,
    "tensor_parallel_comm": 0.05,
    "pipeline_p2p": 0.0,
    "pipeline_bubble": 0.0,
    "exposed_dp_comm": 0.0,
    "optimizer": 0.10,
}


@dataclass
class UtilizationTimeline:
    """Sampled SM/TC activity over time."""

    times: np.ndarray
    sm: np.ndarray
    tc: np.ndarray

    def mean_sm(self) -> float:
        """Mean SM activity over the timeline."""
        return float(self.sm.mean()) if self.sm.size else 0.0

    def peak_sm(self) -> float:
        """Peak SM activity over the timeline."""
        return float(self.sm.max()) if self.sm.size else 0.0

    def idle_fraction(self, threshold: float = 0.10) -> float:
        """Fraction of samples below ``threshold``."""
        if not self.sm.size:
            return 0.0
        return float((self.sm < threshold).mean())

    @property
    def duration(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0


def _segments_to_timeline(segments: list[tuple[float, float, float]],
                          resolution: float,
                          rng: np.random.Generator | None) -> (
                              UtilizationTimeline):
    """Expand (duration, sm, tc) segments into a sampled timeline."""
    total = sum(duration for duration, _, _ in segments)
    n_samples = max(2, int(total / resolution))
    times = np.linspace(0.0, total, n_samples)
    sm = np.empty(n_samples)
    tc = np.empty(n_samples)
    boundaries = np.cumsum([duration for duration, _, _ in segments])
    seg_index = 0
    for i, t in enumerate(times):
        while seg_index < len(segments) - 1 and t > boundaries[seg_index]:
            seg_index += 1
        _, sm_level, tc_level = segments[seg_index]
        sm[i] = sm_level
        tc[i] = tc_level
    if rng is not None:
        sm = np.clip(sm + rng.normal(0.0, 0.02, n_samples), 0.0, 1.0)
        tc = np.clip(tc + rng.normal(0.0, 0.02, n_samples), 0.0, 1.0)
    return UtilizationTimeline(times=times, sm=sm, tc=tc)


class SmProfiler:
    """Builds per-step phase sequences and renders them as DCGM timelines."""

    def __init__(self, model: TransformerConfig, plan: ParallelismPlan,
                 step_model: StepTimeModel | None = None,
                 seed: int | None = 0) -> None:
        self.model = model
        self.plan = plan
        self.step_model = step_model or StepTimeModel(model, plan)
        self.seed = seed

    def step_segments(self) -> list[tuple[float, float, float]]:
        """(duration, sm, tc) segments for one optimizer step.

        The compute/TP phases of 3D parallelism interleave per micro-batch,
        so they are emitted as alternating slices rather than two blocks —
        that is what produces the high-frequency oscillation in Fig. 10(a).
        """
        breakdown = self.step_model.breakdown()
        compute_key = ("compute_recompute" if self.plan.recompute
                       else "compute")
        segments: list[tuple[float, float, float]] = []

        def phase(key: str, duration: float) -> tuple[float, float, float]:
            return (duration, PHASE_ACTIVITY[key], TC_SCALE[key])

        interleave = max(4, min(self.plan.micro_batches, 32))
        compute_slice = breakdown.compute / interleave
        comm_slice = breakdown.tensor_parallel_comm / interleave
        p2p_slice = breakdown.pipeline_p2p / interleave
        for _ in range(interleave):
            segments.append(phase(compute_key, compute_slice))
            if comm_slice > 0:
                segments.append(phase("tensor_parallel_comm", comm_slice))
            if p2p_slice > 0:
                segments.append(phase("pipeline_p2p", p2p_slice))
        if breakdown.pipeline_bubble > 0:
            # Half the bubble manifests at warm-up, half at drain; fold
            # both into one visible idle valley per step.
            segments.append(phase("pipeline_bubble",
                                  breakdown.pipeline_bubble))
        if breakdown.exposed_dp_comm > 0:
            segments.append(phase("exposed_dp_comm",
                                  breakdown.exposed_dp_comm))
        segments.append(phase("optimizer", breakdown.optimizer))
        return segments

    def profile(self, steps: int = 3, resolution: float = 0.02,
                ) -> UtilizationTimeline:
        """Render ``steps`` optimizer steps at ``resolution`` seconds."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        rng = (np.random.default_rng(self.seed)
               if self.seed is not None else None)
        one_step = self.step_segments()
        return _segments_to_timeline(one_step * steps, resolution, rng)
