"""Decoupled remote model loading (§6.2, technique 1; Fig. 16 left).

Baseline: every evaluation trial loads the checkpoint from remote storage
itself; with 8 single-GPU trials per node, the storage NIC is split 8 ways
and per-trial load speed collapses (Fig. 16 left).

Decoupled: the coordinator first asks the cluster scheduler for the node
list, launches one *precursor job* per node that pulls the model into
local shared memory at full NIC speed, then the trials map it over PCIe.
Spare host memory makes this free (Fig. 7b), and the files are cleared
after the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.storage import SharedStorage


@dataclass
class ModelStager:
    """Stages a checkpoint into each node's shared memory."""

    storage: SharedStorage
    model_bytes: float
    pcie_rate: float = 20e9
    #: deserialization cost folded into the trial-visible load path
    deserialize_rate: float = 1.5e9
    staged_nodes: set[str] = field(default_factory=set)

    def precursor_seconds(self, n_nodes: int) -> float:
        """Wall time for all precursor jobs (they run in parallel)."""
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        # One stream per node at full NIC rate; backend shared by nodes.
        rate = self.storage.per_trial_load_rate(trials_per_node=1,
                                                total_trials=n_nodes)
        return self.model_bytes / rate

    def stage(self, nodes: list[str]) -> float:
        """Mark nodes staged; returns the wall time spent."""
        seconds = self.precursor_seconds(len(nodes))
        self.staged_nodes.update(nodes)
        return seconds

    def clear(self) -> None:
        """Release the shared-memory copies after the round (§6.2)."""
        self.staged_nodes.clear()

    # -- per-trial load costs ----------------------------------------------

    def trial_load_seconds_baseline(self, trials_per_node: int,
                                    total_trials: int | None = None
                                    ) -> float:
        """Per-trial load straight from remote storage, with contention."""
        network = self.storage.load_time(self.model_bytes,
                                         trials_per_node, total_trials)
        return network + self.model_bytes / self.deserialize_rate

    def trial_load_seconds_staged(self) -> float:
        """Per-trial load from node shared memory over PCIe."""
        return (self.model_bytes / self.pcie_rate
                + self.model_bytes / self.deserialize_rate)


def loading_stress_test(storage: SharedStorage, model_bytes: float,
                        trial_counts: list[int] | None = None,
                        gpus_per_node: int = 8
                        ) -> list[tuple[int, float]]:
    """Reproduce Fig. 16 (left): per-trial load *speed* vs concurrency.

    Returns (concurrent trials, bytes/s per trial).  Trials pack 8 per
    node before spilling to more nodes, so speed collapses from 1 to 8
    and then flattens out to 256.
    """
    counts = trial_counts or [1, 2, 4, 8, 16, 32, 64, 128, 256]
    return storage.stress_test(model_bytes, counts, gpus_per_node)
