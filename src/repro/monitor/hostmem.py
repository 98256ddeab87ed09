"""Host-memory breakdown of a pretraining node (Fig. 18, Appendix A.2).

The paper's worked example: a Seren node running pretraining uses 123 GB of
its 1 TB — training processes plus TensorBoard (6.5 GB), the distributed
file system client with data/metadata caches (45.3 GB), and 0.6 GB of
system daemons.  The large idle remainder is what makes asynchronous
checkpointing (§6.1) free: several checkpoint-sized buffers fit in spare
host memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GIB = 1024 ** 3
GB = 10 ** 9


@dataclass
class HostMemoryBreakdown:
    """Named memory components on one node, in bytes."""

    capacity: int
    components: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int) -> None:
        """Account a named memory component."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        used = self.total_used + amount
        if used > self.capacity:
            raise ValueError(
                f"component {name!r} would exceed capacity "
                f"({used} > {self.capacity})")
        self.components[name] = self.components.get(name, 0) + amount

    @property
    def total_used(self) -> int:
        return sum(self.components.values())

    @property
    def idle(self) -> int:
        return self.capacity - self.total_used

    @property
    def used_fraction(self) -> float:
        return self.total_used / self.capacity

    def checkpoint_buffers_that_fit(self, checkpoint_bytes: int) -> int:
        """How many in-memory checkpoint copies the idle memory holds."""
        if checkpoint_bytes <= 0:
            raise ValueError("checkpoint_bytes must be positive")
        return self.idle // checkpoint_bytes


def pretraining_host_memory(capacity_bytes: int = 1024 * GIB,
                            model_state_bytes_per_node: int | None = None,
                            ) -> HostMemoryBreakdown:
    """The Fig. 18 breakdown, optionally with an async-checkpoint buffer.

    Component sizes follow Appendix A.2's measured numbers; the training
    processes (dataloaders, CUDA contexts, framework) make up the balance
    of the observed 123 GB.
    """
    breakdown = HostMemoryBreakdown(capacity=capacity_bytes)
    tensorboard = int(6.5 * GB)
    fs_client = int(45.3 * GB)
    system = int(0.6 * GB)
    training = int(123 * GB) - tensorboard - fs_client - system
    breakdown.add("training_processes", training)
    breakdown.add("tensorboard", tensorboard)
    breakdown.add("filesystem_client", fs_client)
    breakdown.add("system_daemons", system)
    if model_state_bytes_per_node is not None:
        breakdown.add("async_checkpoint_buffer",
                      model_state_bytes_per_node)
    return breakdown
