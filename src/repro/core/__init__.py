"""The paper's deployed systems (§6).

* ``repro.core.checkpoint`` — asynchronous checkpointing (§6.1.1);
* ``repro.core.diagnosis`` — LLM-assisted failure diagnosis (§6.1.2);
* ``repro.core.recovery`` — fault detection and automatic recovery
  (§6.1.3);
* ``repro.core.evalsched`` — decoupled scheduling for evaluation (§6.2).
"""

from repro.core.checkpoint import (AsyncCheckpointer, SyncCheckpointer,
                                   CheckpointCostModel, InMemoryStorage,
                                   DirectoryStorage)

__all__ = [
    "AsyncCheckpointer",
    "SyncCheckpointer",
    "CheckpointCostModel",
    "InMemoryStorage",
    "DirectoryStorage",
]
