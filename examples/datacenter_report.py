#!/usr/bin/env python3
"""Full datacenter characterization report.

Regenerates every table and figure of the paper from synthetic traces
and prints a compact text report — the library-level equivalent of
re-running the paper's analysis notebooks against AcmeTrace.

Run:  python examples/datacenter_report.py [--jobs N]
"""

import argparse

from repro.analysis import figures, tables
from repro.analysis.report import render_key_values, render_table


def section(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=6000,
                        help="synthetic jobs per cluster")
    args = parser.parse_args()
    n = args.jobs

    section("Table 1 — cluster configuration")
    print(render_table(tables.table1()))

    section("Table 2 — Acme vs prior DL datacenters")
    print(render_table(tables.table2(figures.acme_traces(n))))

    section("Fig 2 — job duration & GPU utilization")
    fig2 = figures.fig2(n)
    print(render_key_values(fig2["median_duration_s"],
                            title="median duration (s)"))
    print(render_key_values(fig2["median_utilization"],
                            title="median GPU utilization"))

    section("Fig 4 — workload mix")
    for cluster, data in figures.fig4(n).items():
        print(render_key_values(data["gpu_time_share"],
                                title=f"{cluster} GPU-time share"))

    section("Fig 6 — queueing-delay inversion")
    for cluster, data in figures.fig6(min(n, 3000)).items():
        print(render_key_values(data["median_queueing_delay_s"],
                                title=f"{cluster} median delay (s)"))

    section("Fig 7 — infrastructure utilization")
    for cluster, data in figures.fig7(n, samples=3000).items():
        print(render_key_values({
            "median SM activity": data["median_sm_activity"],
            "GPUs over 75% memory": data["gpu_memory_over_75pct"],
            "NIC idle fraction": data["nic_idle_fraction"],
        }, title=cluster))

    section("Figs 8/9 — power")
    fig8 = figures.fig8(n, samples=3000)
    print(render_key_values({
        "seren over-TDP fraction": fig8["seren"]["over_tdp_fraction"],
        "GPU/CPU server power ratio":
            fig8["seren_server"]["gpu_to_cpu_server_ratio"]}))
    print(render_key_values(figures.fig9(n)["shares"],
                            title="server power shares"))

    section("Figs 10-12 — pretraining profile (123B / 2048 GPUs)")
    fig10 = figures.fig10()
    print(render_key_values({
        "V1 mean SM": fig10["v1_3d"]["mean_sm"],
        "V2 mean SM": fig10["v2_hierarchical_zero"]["mean_sm"],
        "V2 speedup": fig10["v2_speedup"]}))
    fig12 = figures.fig12()
    print(render_key_values({
        f"pipeline rank {rank} peak (GiB)": gib
        for rank, gib in enumerate(fig12["per_rank_total_gib"])}))

    section("Fig 13 — evaluation trial anatomy")
    print(render_key_values(figures.fig13()["stage_seconds"]))

    section("Fig 14 — recovery campaigns")
    for name, data in figures.fig14().items():
        print(render_key_values({
            "failures": data["failures"],
            "lost iterations": data["lost_iterations"],
            "useful fraction": data["useful_fraction"]}, title=name))

    section("Table 3 — failure statistics (category roll-up)")
    summary = tables.table3_category_summary()
    for category in ("infrastructure", "framework", "script"):
        print(render_key_values(summary[category], title=category))

    section("Fig 16 / §6.2 — evaluation scheduling")
    fig16 = figures.fig16()
    print(render_key_values({
        setup: data["speedup"]
        for setup, data in fig16["makespan"].items()},
        title="decoupled-scheduling speedup"))

    section("Appendix — temperatures, host memory, carbon")
    fig21 = figures.fig21(n, samples=2000)
    print(render_key_values({
        "memory hotter than core": fig21["memory_hotter"],
        "fraction of GPUs over 65C": fig21["over_65c_fraction"]}))
    print(render_key_values(figures.fig18()["components_gb"],
                            title="host memory (GB)"))
    print(render_key_values(figures.carbon_a3(), title="A.3 carbon"))


if __name__ == "__main__":
    main()
