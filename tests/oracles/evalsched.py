"""Event-driven replay of an evaluation round (§6.2).

The analytic :class:`~repro.core.evalsched.TrialCoordinator` computes
makespans in closed form.  This replay runs the same two strategies on
the event engine with explicit per-node storage NICs, GPU slots and CPU
metric jobs, so contention emerges from the event order instead of
being assumed, and ``tests/test_evalsched.py`` checks the two agree.

Each stage of a trial is one ``Engine.call_at`` callback that schedules
the next.  A storage read takes ``size / (bandwidth / n)`` seconds,
``n`` being the reads in flight on the node's NIC when it starts.  The
rates are the coordinator's: its storage's node NIC bandwidth and its
stager's PCIe and deserialization rates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.evalsched import TrialCoordinator, elastic_decompose, lpt_pack
from repro.evaluation.datasets import EvalDataset
from repro.sim.engine import Engine


@dataclass
class SimulatedRound:
    """Result of one event-driven strategy replay."""

    strategy: str
    makespan: float
    trial_completions: list[tuple[str, float]]


def _sleep(engine: Engine, delays: Iterable[float],
           then: Callable[[], None]) -> None:
    """Wait out ``delays`` one callback each, then call ``then``."""
    remaining = iter(delays)

    def step() -> None:
        for delay in remaining:
            engine.call_at(engine.now + delay, step)
            return
        then()

    step()


class _StorageNic:
    """One node's storage NIC, shared by the reads in flight."""

    def __init__(self, engine: Engine, bandwidth: float) -> None:
        self.engine = engine
        self.bandwidth = bandwidth
        self.reads = 0

    def read(self, size_bytes: float, then: Callable[[], None]) -> None:
        self.reads += 1

        def finish() -> None:
            self.reads -= 1
            then()

        self.engine.call_after(size_bytes / (self.bandwidth / self.reads),
                               finish)


class EventDrivenEvalRound:
    """Replays a coordinator's baseline and decoupled rounds."""

    def __init__(self, coordinator: TrialCoordinator) -> None:
        self.config = coordinator.config
        self.nic_bandwidth = coordinator.storage.node_nic_bandwidth
        self.pcie_rate = coordinator.stager.pcie_rate
        self.deserialize_rate = coordinator.stager.deserialize_rate

    def run_baseline(self, datasets: list[EvalDataset]) -> SimulatedRound:
        """Every dataset is a trial that holds one GPU throughout."""
        cfg = self.config
        engine = Engine()
        nics = [_StorageNic(engine, self.nic_bandwidth)
                for _ in range(cfg.n_nodes)]
        free_gpus = [cfg.gpus_per_node] * cfg.n_nodes
        waiting: list[deque[EvalDataset]] = [
            deque() for _ in range(cfg.n_nodes)]
        completions: list[tuple[str, float]] = []

        def trial(dataset: EvalDataset, node: int) -> None:
            def done() -> None:
                if waiting[node]:
                    queued = waiting[node].popleft()
                    engine.call_at(engine.now,
                                   lambda: trial(queued, node))
                else:
                    free_gpus[node] += 1
                completions.append((dataset.name, engine.now))

            nics[node].read(cfg.model_bytes, lambda: _sleep(engine, (
                cfg.model_bytes / self.deserialize_rate,
                dataset.preprocess_seconds,
                dataset.inference_seconds,
                dataset.metric_cpu_seconds / cfg.baseline_metric_workers,
            ), done))

        for index, dataset in enumerate(datasets):
            node = index % cfg.n_nodes
            if free_gpus[node]:
                free_gpus[node] -= 1
                trial(dataset, node)
            else:
                waiting[node].append(dataset)
        return SimulatedRound("baseline", engine.run(), completions)

    def run_decoupled(self, datasets: list[EvalDataset]
                      ) -> SimulatedRound:
        """A precursor read per node, then packed GPU slots that map the
        staged model once and hand metrics to CPU jobs."""
        cfg = self.config
        engine = Engine()
        completions: list[tuple[str, float]] = []
        cache_factor = 0.05 if cfg.preprocess_cache else 1.0
        shards = elastic_decompose(datasets, cfg.total_gpus)
        assignments = lpt_pack(shards, cfg.total_gpus,
                               prioritize_cpu_metrics=True)
        slots: list[list[deque[EvalDataset]]] = [
            [] for _ in range(cfg.n_nodes)]
        for index, assignment in enumerate(assignments):
            if assignment.datasets:
                slots[index % cfg.n_nodes].append(
                    deque(assignment.datasets))

        def run_slot(queue: deque[EvalDataset]) -> None:
            if not queue:
                return
            dataset = queue.popleft()

            def inferred() -> None:
                completions.append((dataset.name, engine.now))
                if dataset.metric_cpu_seconds > 0:
                    # a CPU metric job: its end only extends the makespan
                    engine.call_after(
                        dataset.metric_cpu_seconds / cfg.metric_workers,
                        lambda: None)
                run_slot(queue)

            _sleep(engine, (dataset.preprocess_seconds * cache_factor,
                            dataset.inference_seconds), inferred)

        def staged(node: int) -> None:
            for queue in slots[node]:
                engine.call_after(
                    cfg.model_bytes / self.pcie_rate
                    + cfg.model_bytes / self.deserialize_rate,
                    lambda queue=queue: run_slot(queue))

        for node in range(cfg.n_nodes):
            _StorageNic(engine, self.nic_bandwidth).read(
                cfg.model_bytes, lambda node=node: staged(node))
        return SimulatedRound("decoupled", engine.run(), completions)

    def compare(self, datasets: list[EvalDataset]) -> dict:
        """Run both replays; returns rounds plus the speedup."""
        baseline = self.run_baseline(datasets)
        decoupled = self.run_decoupled(datasets)
        return {
            "baseline": baseline,
            "decoupled": decoupled,
            "speedup": baseline.makespan / decoupled.makespan,
        }
