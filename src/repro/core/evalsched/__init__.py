"""Decoupled scheduling for evaluation (§6.2).

Three techniques behind the trial coordinator:

1. **Decoupled remote model loading** — precursor jobs stage the model
   into each node's shared memory once, instead of 8 concurrent trials
   fighting over the 25 Gb/s storage NIC (Fig. 16);
2. **Decoupled metric computation** — inference outputs are dumped to
   files and metric computation becomes CPU jobs, freeing the GPU;
3. **Prior-based elastic scheduling** — datasets are batched/split using
   runtime priors and packed longest-first round-robin, with
   heavy-CPU-metric trials prioritized so their metric work overlaps.
"""

from repro.core.evalsched.loading import ModelStager, loading_stress_test
from repro.core.evalsched.packing import (PackedAssignment, lpt_pack,
                                          elastic_decompose, pack_makespan)
from repro.core.evalsched.coordinator import (TrialCoordinator,
                                              EvaluationRound,
                                              CoordinatorConfig)

__all__ = [
    "ModelStager",
    "loading_stress_test",
    "PackedAssignment",
    "lpt_pack",
    "elastic_decompose",
    "pack_makespan",
    "TrialCoordinator",
    "EvaluationRound",
    "CoordinatorConfig",
]
