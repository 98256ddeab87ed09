"""Pins of the scheduler's traced runs, and the untraced run's state.

The scheduler builds span names and arguments only when its tracer is
enabled.  Two traced runs pin every span id, name, argument, gauge
sample and counter the scheduler emits, as the sha256 of the
Chrome-trace JSON (the chaos goldens' ``TRACE_SHA256`` covers only the
scheduler's share of a chaos run):

* a 2,000-job Kalos replay with its CPU jobs, at 0.98 reserved;
* a scripted run that reaches every instrumented path: an eviction,
  a shed, a failed job, a cordon and uncordon, and a CPU job.

An untraced replay must schedule the same, and keep no span at all.
"""

from __future__ import annotations

import hashlib

from repro.obs import Tracer, chrome_trace_json
from repro.scheduler.job import Job, JobType
from repro.scheduler.simulator import SchedulerConfig, SchedulerSimulator
from repro.workload.generator import TraceGenerator
from repro.workload.spec import KALOS_SPEC

#: sha256 of ``chrome_trace_json`` for the Kalos replay and the script
REPLAY_SHA256 = (
    "fa0f29a019607c1ac9cbdf039ab1ced6295feb7539ff2c36cf5c7d3ea6c981c3")
SCRIPTED_SHA256 = (
    "a70a3b3ac200ebe760b005a29d4f7a29621d6641341649bd43ff1b60549ede69")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def kalos_replay(tracer: Tracer | None) -> tuple[SchedulerSimulator,
                                                 list[Job]]:
    """A simulator at 0.98 reserved, and 2,000 Kalos GPU jobs with their
    CPU jobs for it to replay."""
    jobs = TraceGenerator(KALOS_SPEC, seed=0).generate(
        2000, include_cpu_jobs=True).jobs
    sim = SchedulerSimulator(SchedulerConfig(
        total_gpus=KALOS_SPEC.total_gpus, reserved_fraction=0.98),
        tracer=tracer)
    if tracer is not None:
        tracer.attach(sim.engine)
    return sim, jobs


def times(jobs: list[Job]) -> list[tuple]:
    return [(job.job_id, job.start_time, job.end_time) for job in jobs]


def job(job_id: str, job_type: JobType, demand: int, submit: float,
        duration: float = 100.0) -> Job:
    return Job(job_id=job_id, cluster="kalos", job_type=job_type,
               submit_time=submit, duration=duration, gpu_demand=demand)


def test_traced_replay_matches_pin():
    tracer = Tracer()
    sim, jobs = kalos_replay(tracer)
    sim.simulate(jobs)
    assert len(sim.finished) == 6200
    assert len(tracer.spans) == 8200
    assert sha256(chrome_trace_json(tracer)) == REPLAY_SHA256


def test_traced_script_matches_pin():
    tracer = Tracer()
    sim = SchedulerSimulator(
        SchedulerConfig(total_gpus=20, reserved_fraction=0.75),
        tracer=tracer)
    tracer.attach(sim.engine)
    sim.submit(job("borrower", JobType.EVALUATION, 14, 0.0))
    sim.submit(job("holder", JobType.PRETRAIN, 6, 0.0))
    # needs the borrower's reserved GPUs, so it evicts the borrower
    sim.submit(job("blocked", JobType.PRETRAIN, 9, 1.0))
    sim.submit(job("small", JobType.EVALUATION, 4, 2.0))
    sim.submit(job("cpu", JobType.OTHER, 0, 2.0, duration=5.0))
    sim.engine.run(until=3.0)
    assert [queued.job_id for queued in sim.queue] == ["borrower"]
    sim.shed_job("borrower")
    sim.fail_job("holder")
    sim.cordon_gpus(4)
    sim.uncordon_gpus(4)
    sim.engine.run()
    assert (sim.preemptions, len(sim.shed)) == (1, 1)
    assert len(tracer.spans) == 10
    assert not tracer.open_spans
    assert sha256(chrome_trace_json(tracer)) == SCRIPTED_SHA256


def test_untraced_replay_schedules_the_same_and_keeps_no_span():
    traced, traced_jobs = kalos_replay(Tracer())
    traced.simulate(traced_jobs)
    sim, jobs = kalos_replay(None)
    spans: list[int] = []
    sim.engine.add_listener(lambda now: spans.append(
        len(sim._wait_spans) + len(sim._run_spans)))
    sim.simulate(jobs)
    assert times(jobs) == times(traced_jobs)
    assert (sim.engine.events_processed
            == traced.engine.events_processed == len(spans))
    assert not any(spans)
