"""Fast fault detection and recovery (§6.1, design 3).

* ``nccl_test`` — the two-round NCCL allgather procedure that pinpoints
  faulty nodes;
* ``detector`` — training-anomaly detectors (loss spikes, stragglers);
* ``controller`` — the orchestrator that ties diagnosis, detection,
  cordoning, and checkpoint rollback into automatic restarts.
"""

from repro.core.recovery.nccl_test import (CollectiveTester,
                                           FabricCollectiveTester,
                                           LinkLocalizationResult,
                                           leaf_segment, pod_segment,
                                           localize_network_faults,
                                           two_round_nccl_test, World)
from repro.core.recovery.detector import (LossSpikeDetector,
                                          StepTimeDeviationDetector,
                                          AnomalyEvent)
from repro.core.recovery.controller import (RecoveryController,
                                            RecoveryAction, RecoveryPlan,
                                            CheckpointCatalog,
                                            HotSparePool)

__all__ = [
    "CheckpointCatalog",
    "CollectiveTester",
    "FabricCollectiveTester",
    "LinkLocalizationResult",
    "leaf_segment",
    "pod_segment",
    "localize_network_faults",
    "two_round_nccl_test",
    "World",
    "LossSpikeDetector",
    "StepTimeDeviationDetector",
    "AnomalyEvent",
    "RecoveryController",
    "RecoveryAction",
    "RecoveryPlan",
    "HotSparePool",
]
