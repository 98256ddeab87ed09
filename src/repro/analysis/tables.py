"""Table generators: Tables 1–3 of the paper."""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import make_kalos, make_seren
from repro.failures.injector import FailureEvent, FailureInjector
from repro.failures.taxonomy import (TAXONOMY, FailureCategory,
                                     category_gpu_time_shares)
from repro.workload.baselines import BASELINE_PROFILES
from repro.workload.spec import KALOS_SPEC, SEREN_SPEC


def table1() -> list[dict]:
    """Per-node specification and cluster scale (Table 1)."""
    return [make_seren().summary(), make_kalos().summary()]


def table2(acme_traces: dict | None = None) -> list[dict]:
    """Datacenter comparison (Table 2).

    The Acme row's average-GPU figure can be measured from synthetic
    traces (pass ``acme_traces``) or reported from the published value.
    """
    rows = []
    for name, profile in sorted(BASELINE_PROFILES.items()):
        rows.append({
            "datacenter": name,
            "year": profile.year,
            "jobs": profile.real_jobs,
            "avg_gpus": {"philly": 1.9, "helios": 3.7,
                         "pai": 0.7}[name],
            "gpu_model": profile.gpu_model,
            "total_gpus": profile.total_gpus,
        })
    if acme_traces:
        demands = np.concatenate([trace.gpu_demands()
                                  for trace in acme_traces.values()])
        avg = float(demands.mean())
    else:
        avg = 6.3
    rows.append({
        "datacenter": "acme",
        "year": 2023,
        "jobs": SEREN_SPEC.real_gpu_jobs + KALOS_SPEC.real_gpu_jobs
        + SEREN_SPEC.real_cpu_jobs + KALOS_SPEC.real_cpu_jobs,
        "avg_gpus": avg,
        "gpu_model": "A100",
        "total_gpus": SEREN_SPEC.total_gpus + KALOS_SPEC.total_gpus,
    })
    return rows


def table3(scale: float = 1.0, seed: int = 0) -> list[dict]:
    """Regenerate the failure-statistics table from sampled events.

    Samples ``scale``x the observed count of every failure reason and
    recomputes each Table 3 column, so the row statistics can be compared
    with the published ones (stored alongside as ``paper_*``).
    """
    injector = FailureInjector(seed=seed)
    events = injector.generate_events(scale)
    by_reason: dict[str, list[FailureEvent]] = {}
    for event in events:
        by_reason.setdefault(event.reason, []).append(event)
    total_gpu_time = sum(event.gpu_time_min for event in events)
    rows = []
    for spec in TAXONOMY:
        sampled = by_reason.get(spec.reason, [])
        if not sampled:
            continue
        demand = np.array([event.gpu_demand for event in sampled])
        ttf = np.array([event.time_to_failure_min for event in sampled])
        restart = np.array([event.time_to_restart_min
                            for event in sampled])
        gpu_time = float(sum(event.gpu_time_min for event in sampled))
        rows.append({
            "category": spec.category.value,
            "reason": spec.reason,
            "num": len(sampled),
            "demand_avg": float(demand.mean()),
            "demand_median": float(np.median(demand)),
            "ttf_avg_min": float(ttf.mean()),
            "ttf_median_min": float(np.median(ttf)),
            "gpu_time_pct": 100.0 * gpu_time / total_gpu_time,
            "restart_avg_min": float(restart.mean()),
            "restart_median_min": float(np.median(restart)),
            "paper_num": spec.count,
            "paper_demand_avg": spec.demand_avg,
            "paper_ttf_avg_min": spec.ttf_avg_min,
            "paper_gpu_time_pct": spec.gpu_time_pct,
        })
    rows.sort(key=lambda row: -row["gpu_time_pct"])
    return rows


def table3_category_summary(rows: list[dict] | None = None) -> dict:
    """Category-level aggregation: the §5.2 '11% of failures, >82% of
    GPU time' headline for infrastructure."""
    rows = rows if rows is not None else table3()
    totals = {category.value: {"num": 0, "gpu_time_pct": 0.0}
              for category in FailureCategory}
    total_num = 0
    for row in rows:
        totals[row["category"]]["num"] += row["num"]
        totals[row["category"]]["gpu_time_pct"] += row["gpu_time_pct"]
        total_num += row["num"]
    for value in totals.values():
        value["num_share"] = (value["num"] / total_num
                              if total_num else 0.0)
    totals["paper_infrastructure_gpu_time_pct"] = (
        category_gpu_time_shares()[FailureCategory.INFRASTRUCTURE])
    return totals
