"""Reference ``InvariantChecker.check``: every scan, in full, every event.

``check`` is the per-event check as it was before it read only what it
needs.  It sums the allocations itself instead of reading the
scheduler's running ``gpus_allocated``, so a diff against it also
checks that total.  It sorts every allocation and placement, rescans
every rollback record and builds the spare sets on every call.
"""

from __future__ import annotations

from repro.chaos.invariants import InvariantChecker, InvariantViolation


def check(checker: InvariantChecker, time: float) -> None:
    """Engine listener: validate everything after one event."""
    checker.checks_run += 1
    _check_counters(checker, time)
    _check_gangs(checker, time)
    _check_cordon_isolation(checker, time)
    _check_rollbacks(checker)
    _check_spares(checker, time)
    _check_queue_bound(checker, time)


def _fail(time: float, message: str) -> None:
    raise InvariantViolation(f"t={time:.3f}: {message}")


def _check_counters(checker: InvariantChecker, time: float) -> None:
    sched = checker.scheduler
    allocated = sum(a.from_reserved + a.from_shared
                    for a in sched._allocations.values())
    for counter in ("free_reserved", "free_shared", "cordoned_gpus"):
        value = getattr(sched, counter)
        if value < 0:
            _fail(time, f"scheduler.{counter} is negative ({value})")
    booked = (sched.free_reserved + sched.free_shared
              + sched.cordoned_gpus + allocated)
    if booked != sched.config.total_gpus:
        _fail(time, "GPU accounting broken: free "
                    f"{sched.free_reserved}+{sched.free_shared} "
                    f"+ cordoned {sched.cordoned_gpus} "
                    f"+ allocated {allocated} "
                    f"!= total {sched.config.total_gpus}")
    if sched._pending_cordon > allocated:
        _fail(time, f"pending cordon {sched._pending_cordon} exceeds "
                    f"allocated {allocated}: nothing left to drain it "
                    "from")


def _check_gangs(checker: InvariantChecker, time: float) -> None:
    for job_id, allocation in sorted(
            checker.scheduler._allocations.items()):
        held = allocation.from_reserved + allocation.from_shared
        job = allocation.job
        if job is None or held != job.gpu_demand:
            _fail(time, f"gang violation: job {job_id} holds {held} "
                        f"GPUs, demands "
                        f"{job.gpu_demand if job else '?'}")
        if job.state.value != "running":
            _fail(time, f"job {job_id} holds GPUs but is "
                        f"{job.state.value}")


def _check_cordon_isolation(checker: InvariantChecker,
                            time: float) -> None:
    for node_name, job_id in sorted(checker.placements.items()):
        node = checker.nodes[node_name]
        if not node.schedulable:
            _fail(time, f"cordoned node {node_name} still hosts {job_id}")


def _check_rollbacks(checker: InvariantChecker) -> None:
    for record in checker.restart_records:
        if record.restored_step > record.step_at_failure:
            raise InvariantViolation(
                f"t={record.time:.3f}: rollback moved forward — "
                f"restored step {record.restored_step} is past the "
                f"failure at step {record.step_at_failure}")


def _check_spares(checker: InvariantChecker, time: float) -> None:
    pool = checker.spare_pool
    if pool is None:
        return
    available = pool.available
    if len(set(available)) != len(available):
        _fail(time, "spare pool lists a standby twice: "
                    f"{sorted(available)}")
    double = set(available) & set(pool.allocated)
    if double:
        _fail(time, "spare(s) both available and allocated: "
                    f"{sorted(double)}")
    placed = set(available) & set(checker.placements)
    if placed:
        _fail(time, f"reserved spare(s) hosting the gang: {sorted(placed)}")


def _check_queue_bound(checker: InvariantChecker, time: float) -> None:
    if (checker.admission_depth_bound is None
            or checker.admission_depth_fn is None):
        return
    depth = checker.admission_depth_fn()
    if depth > checker.admission_depth_bound:
        _fail(time, f"best-effort queue depth {depth} exceeds the "
                    f"admission policy's declared bound "
                    f"{checker.admission_depth_bound}")
