#!/usr/bin/env python3
"""End-to-end fault-tolerant pretraining (§6.1).

Drives the three §6.1 subsystems together over a simulated multi-day
123B pretraining campaign:

1. the training loop saves state through the **asynchronous
   checkpointer** (real threads, throttled storage);
2. every injected failure produces a realistic runtime log, which the
   **diagnosis system** (compression -> rules -> agent) root-causes;
3. the **recovery controller** runs the two-round NCCL test for
   infrastructure faults, cordons convicted nodes, and restarts from
   the latest durable checkpoint — or refuses to restart script errors.

Run:  python examples/fault_tolerant_pretraining.py
"""

import numpy as np

from repro.analysis.report import render_key_values, render_table
from repro.cluster.machine import Node, NodeHealth, kalos_node_spec
from repro.core.checkpoint import AsyncCheckpointer, InMemoryStorage
from repro.core.diagnosis import DiagnosisSystem
from repro.core.recovery import (CheckpointCatalog, CollectiveTester,
                                 RecoveryController)
from repro.failures.injector import FailureInjector
from repro.failures.logs import LogGenerator

STEP_TIME = 14.0            # seconds per iteration (123B on 2048 GPUs)
CHECKPOINT_EVERY = 120      # iterations (~30 simulated minutes)
TARGET_ITERATIONS = 4000
MTBF_STEPS = 900            # mean iterations between failures


def main():
    rng = np.random.default_rng(3)
    nodes = [Node(name=f"node-{i:03d}", spec=kalos_node_spec())
             for i in range(16)]
    injector = FailureInjector(seed=3)
    logs = LogGenerator(seed=3)
    catalog = CheckpointCatalog()
    controller = RecoveryController(DiagnosisSystem(), catalog, nodes)
    storage = InMemoryStorage(bandwidth=200e6)
    incidents = []
    blocking_total = 0.0

    with AsyncCheckpointer(storage, buffer_slots=3) as checkpointer:
        iteration = 0
        while iteration < TARGET_ITERATIONS:
            steps_until_failure = int(rng.exponential(MTBF_STEPS)) + 1
            segment_end = min(iteration + steps_until_failure,
                              TARGET_ITERATIONS)
            # Run the segment, checkpointing as we go.
            for step in range(iteration, segment_end):
                if step and step % CHECKPOINT_EVERY == 0:
                    state = {"weights": rng.normal(size=20_000),
                             "step": np.array([step])}
                    blocking_total += checkpointer.save(step, state)
                    catalog.add(step)
            iteration = segment_end
            if iteration >= TARGET_ITERATIONS:
                break
            # Failure strikes: draw a reason a large gang job would hit,
            # synthesize its runtime log, and let the controller react.
            event = injector.sample_pretraining_failure("kalos")
            log = logs.failed_log(event.reason, n_steps=60)
            faulty = {nodes[int(rng.integers(len(nodes)))].name}
            tester = CollectiveTester(faulty)
            plan = controller.handle_failure(log.lines, tester)
            incidents.append({
                "at_iteration": iteration,
                "injected": event.reason,
                "diagnosed": plan.diagnosis.reason,
                "path": plan.diagnosis.path,
                "restart": plan.restart,
                "from_checkpoint": plan.restart_checkpoint_step,
                "cordoned": ",".join(sorted(plan.cordoned_nodes)) or "-",
            })
            if plan.restart and plan.restart_checkpoint_step is not None:
                iteration = plan.restart_checkpoint_step
            for name in plan.cordoned_nodes:
                node = controller.nodes[name]
                # repaired off-line; a node escalated to FAULTY needs
                # hardware replacement and stays out
                if node.health is NodeHealth.CORDONED:
                    node.uncordon()
        checkpointer.flush()

    print(render_table(incidents, title="== incident log =="))
    correct = sum(1 for row in incidents
                  if row["injected"] == row["diagnosed"])
    print(render_key_values({
        "iterations completed": TARGET_ITERATIONS,
        "failures handled": len(incidents),
        "diagnosis accuracy": correct / max(len(incidents), 1),
        "automation rate": controller.automation_rate(),
        "checkpoints persisted": len(storage.keys()),
        "total checkpoint blocking (s)": round(blocking_total, 3),
    }, title="\n== campaign summary =="))


if __name__ == "__main__":
    main()
