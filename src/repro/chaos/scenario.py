"""Seeded, reproducible chaos scenarios.

A :class:`ChaosScenario` is a declarative description of one live
fault-injection run: the cluster shape, a long pretraining gang, a stream
of best-effort background jobs, and a schedule of faults drawn from the
Table 3 taxonomy.  Everything random is sampled *up front* from a single
``numpy.random.Generator`` seeded by the scenario, so the same scenario
always produces the same fault schedule, the same background trace, and —
because the harness itself never samples — the same event log, byte for
byte.

Script-category faults are always routed at the best-effort pool rather
than the pretraining gang: the paper's controller never restarts a script
error (it would fail identically), so aiming one at the gang would simply
end the campaign instead of exercising the recovery loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.chaos.streams import stream_rng
from repro.cluster.linkhealth import leaf_link, nic_link, pod_link
from repro.failures.taxonomy import (NETWORK_CHAOS_REASONS,
                                     NETWORK_FAULT_KINDS, POD_FAULT_KINDS,
                                     STORAGE_CHAOS_REASON,
                                     STORAGE_FAULT_KINDS, TAXONOMY,
                                     FailureCategory, taxonomy_by_reason)
from repro.monitor.dcgm import GpuSample
from repro.monitor.power import GpuPowerModel, PowerCappingModel
from repro.monitor.temperature import TemperatureModel
from repro.scheduler.job import Job, JobType

#: GPUs per node throughout (Table 1: 8x A100 per node).
GPUS_PER_NODE = 8

# Fault-window shapes, read by the schedule builders below.  Lengths
# are in seconds; ``ckpt_corruption`` windows last the scenario's
# ``ckpt_corruption_duration``.
STORAGE_OUTAGE_DURATION = 1800.0
STORAGE_SLOWDOWN_DURATION = 3600.0
NETWORK_FAULT_DURATIONS = {"link_down": 1800.0, "link_degraded": 3600.0,
                           "switch_down": 1200.0}
#: relative weights of (pod_link_down, pod_link_degraded) draws
POD_FAULT_MIX = (0.5, 0.5)
POD_FAULT_DURATIONS = {"pod_link_down": 1800.0,
                       "pod_link_degraded": 3600.0}
PARTITION_DURATION = 2700.0
#: NICs per partition; even positions degrade to the low factor, below
#: the NCCL pass threshold, odd ones to the high factor, above it (the
#: asymmetry)
PARTITION_SIZE = 3
PARTITION_LOW_FACTOR = 0.3
PARTITION_HIGH_FACTOR = 0.8
POWER_CAP_DURATION = 3600.0
#: facility cap fed to the PowerCappingModel curve
POWER_CAP_WATTS = 300.0


@dataclass(frozen=True)
class InjectedFault:
    """One scheduled fault, fully resolved at build time."""

    #: absolute simulated time of injection, seconds
    time: float
    #: "failure" (a Table 3 reason), "loss_spike", "hang", one of the
    #: storage kinds ("storage_outage" / "storage_slowdown" /
    #: "ckpt_corruption"), one of the fabric kinds ("link_down" /
    #: "link_degraded" / "switch_down" / "pod_link_down" /
    #: "pod_link_degraded" / "partial_partition"), a straggler kind
    #: ("straggler" / "silent_degrader"), or "power_cap"
    kind: str
    #: taxonomy reason key for kind == "failure", storage, and fabric
    #: kinds; None for anomaly, straggler, and power kinds (they never
    #: emit a failure log line)
    reason: str | None
    #: "pretrain" (hits the gang), "scheduler" (kills a running job),
    #: "storage" (perturbs the checkpoint backend), "network"
    #: (degrades the fabric), or "power" (caps the fleet)
    target: str
    #: victim selector, reduced modulo the target's node pool at runtime
    node_index: int
    #: seed for the synthetic runtime log of this fault
    log_seed: int
    #: fault-window length in seconds for storage/network/power kinds
    duration: float = 0.0
    #: affected fabric link id for network kinds ("nic:{node}" /
    #: "leaf:{leaf}" / "pod:{p}"); None otherwise
    link: str | None = None
    #: affected link *set* for partial partitions, parallel to
    #: ``link_factors`` (some links below the NCCL pass threshold, some
    #: above — the asymmetry that makes localization hard)
    links: tuple[str, ...] = ()
    #: per-link degradation factors for ``links``
    link_factors: tuple[float, ...] = ()
    #: resolved fleet step-rate factor for "power_cap" (the monitor
    #: power/thermal draw pushed through the capping curve at build
    #: time, keeping the harness sampling-free); None otherwise
    factor: float | None = None

    @property
    def category(self) -> FailureCategory | None:
        if self.reason is None:
            return None
        return taxonomy_by_reason()[self.reason].category


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible fault-injection experiment.

    The node fleet is split into three fixed roles: the pretraining gang
    (``pretrain_gpus / 8`` nodes), the scheduler pool
    (``scheduler_gpus / 8`` nodes), and the remainder as hot spares the
    gang re-places onto when one of its nodes is cordoned.

    Fields are what a scenario or CLI flag varies; fault-window shapes,
    delays and thresholds are constants beside the module that reads
    them (this one's schedule builders, the harness and its domains).
    """

    name: str
    seed: int = 0
    n_nodes: int = 16
    duration: float = 24.0 * 3600.0
    # -- pretraining gang --
    pretrain_gpus: int = 32
    # -- background best-effort jobs --
    scheduler_gpus: int = 64
    n_background_jobs: int = 24
    # -- fault schedule --
    n_faults: int = 8
    loss_spike_fraction: float = 0.125
    hang_fraction: float = 0.125
    #: fraction of taxonomy failures aimed at the gang (vs the pool)
    pretrain_target_fraction: float = 0.6
    #: restrict taxonomy sampling to one category (None = all)
    category_filter: str | None = None
    #: pin every fault to one victim node (repeat-offender scenarios)
    pin_node: int | None = None
    # -- storage fault schedule (targets the checkpoint backend) --
    n_storage_faults: int = 0
    #: relative weights of (outage, slowdown, corruption) draws
    storage_fault_mix: tuple[float, float, float] = (0.4, 0.3, 0.3)
    ckpt_corruption_duration: float = 2400.0
    # -- network fault schedule (degrades the fabric) --
    n_network_faults: int = 0
    #: relative weights of (link_down, link_degraded, switch_down)
    network_fault_mix: tuple[float, float, float] = (0.45, 0.35, 0.2)
    #: fat-tree leaf domain size for chaos runs (kept small so modest
    #: fleets still span several leaves and uplink faults matter)
    nodes_per_leaf: int = 4
    #: fat-tree pod domain size in leaves; the default matches
    #: FatTreeConfig so legacy scenarios keep a single-pod fabric
    leaves_per_pod: int = 8
    # -- pod (core-tier) and partial-partition fault schedules --
    n_pod_faults: int = 0
    n_partition_faults: int = 0
    # -- straggler / silent-degrader schedule --
    n_straggler_faults: int = 0
    #: probability a straggler fault is a silent degrader (stays under
    #: the deviation-detection threshold; flagged as silent waste)
    straggler_silent_fraction: float = 0.35
    #: step-contribution floor a silent degrader decays to — its
    #: stretch (1/0.9 ≈ 1.11) stays below the detection threshold
    silent_floor: float = 0.90
    # -- power-capping schedule --
    n_power_faults: int = 0
    # -- hot-spare pool --
    #: spare-role nodes kept warm for preemptive migration (taken from
    #: the tail of the fleet); 0 = always gang-reschedule
    hot_spares: int = 0
    #: explicit fault schedule; overrides sampling when non-empty
    faults: tuple[InjectedFault, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for count in ("n_background_jobs", "n_faults", "n_storage_faults",
                      "n_network_faults", "n_pod_faults",
                      "n_partition_faults", "n_straggler_faults",
                      "n_power_faults", "hot_spares"):
            if getattr(self, count) < 0:
                raise ValueError(f"{count} must be non-negative")
        for fraction in ("loss_spike_fraction", "hang_fraction",
                         "pretrain_target_fraction",
                         "straggler_silent_fraction"):
            if not 0.0 <= getattr(self, fraction) <= 1.0:
                raise ValueError(f"{fraction} must be in [0, 1]")
        if self.loss_spike_fraction + self.hang_fraction > 1.0:
            raise ValueError("loss_spike_fraction + hang_fraction must "
                             "not exceed 1")
        if (self.category_filter is not None
                and self.category_filter
                not in {category.value for category in FailureCategory}):
            raise ValueError(
                f"unknown category_filter {self.category_filter!r}")
        if (self.pin_node is not None
                and not 0 <= self.pin_node < self.n_nodes):
            raise ValueError(f"pin_node={self.pin_node} is not a node "
                             f"index below n_nodes={self.n_nodes}")
        for mix in ("storage_fault_mix", "network_fault_mix"):
            weights = getattr(self, mix)
            if (len(weights) != 3 or any(w < 0 for w in weights)
                    or sum(weights) <= 0):
                raise ValueError(f"{mix} must be 3 non-negative weights "
                                 "with a positive sum")
        if self.ckpt_corruption_duration <= 0:
            raise ValueError("ckpt_corruption_duration must be positive")
        if self.nodes_per_leaf <= 0:
            raise ValueError("nodes_per_leaf must be positive")
        if self.leaves_per_pod <= 0:
            raise ValueError("leaves_per_pod must be positive")
        if not 0.0 < self.silent_floor < 1.0:
            raise ValueError("silent_floor must be in (0, 1)")
        if self.pretrain_gpus % GPUS_PER_NODE:
            raise ValueError("pretrain_gpus must be a multiple of 8")
        if self.scheduler_gpus % GPUS_PER_NODE:
            raise ValueError("scheduler_gpus must be a multiple of 8")
        needed = (self.pretrain_gpus + self.scheduler_gpus) // GPUS_PER_NODE
        if self.n_nodes < needed + 1:
            raise ValueError(
                f"n_nodes={self.n_nodes} leaves no spare: the gang and "
                f"pool alone need {needed} nodes")
        if self.hot_spares > self.n_nodes - needed:
            raise ValueError(
                f"hot_spares={self.hot_spares} exceeds the "
                f"{self.n_nodes - needed} spare-role node(s)")

    # -- derived shape -----------------------------------------------------

    @property
    def gang_nodes(self) -> int:
        return self.pretrain_gpus // GPUS_PER_NODE

    @property
    def pool_nodes(self) -> int:
        return self.scheduler_gpus // GPUS_PER_NODE

    # -- deterministic sampling --------------------------------------------

    def build_storage_faults(self) -> list[InjectedFault]:
        """The resolved storage-fault schedule, sorted by time.

        Sampled from its own registered stream (``storage``) so adding
        storage faults never perturbs the node-fault or background-job
        streams.
        """
        if self.n_storage_faults == 0:
            return []
        rng = stream_rng(self.seed, "storage")
        weights = np.array(self.storage_fault_mix, dtype=float)
        weights /= weights.sum()
        durations = {
            "storage_outage": STORAGE_OUTAGE_DURATION,
            "storage_slowdown": STORAGE_SLOWDOWN_DURATION,
            "ckpt_corruption": self.ckpt_corruption_duration,
        }
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.8 * self.duration,
                                    self.n_storage_faults))
        faults = []
        for index, time in enumerate(times):
            kind = STORAGE_FAULT_KINDS[
                int(rng.choice(len(STORAGE_FAULT_KINDS), p=weights))]
            faults.append(InjectedFault(
                float(time), kind, STORAGE_CHAOS_REASON, "storage", 0,
                self.seed * 1000 + 500 + index,
                duration=durations[kind]))
        return faults

    def build_network_faults(self) -> list[InjectedFault]:
        """The resolved network-fault schedule, sorted by time.

        Sampled from its own registered stream (``network``) so adding
        network faults never perturbs the node-fault, background-job,
        or storage streams — chaos goldens without network faults stay
        byte-identical.  Faults hit links the gang crosses: a gang NIC
        or the uplink of a leaf the gang spans.  Windows close by 80%
        of the horizon plus the longest duration, so end-of-run checks
        can require the fabric to have healed.
        """
        if self.n_network_faults == 0:
            return []
        rng = stream_rng(self.seed, "network")
        weights = np.array(self.network_fault_mix, dtype=float)
        weights /= weights.sum()
        gang_leaves = -(-self.gang_nodes // self.nodes_per_leaf)  # ceil
        leaf_hi = max(gang_leaves, 1)
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.8 * self.duration,
                                    self.n_network_faults))
        faults = []
        for index, time in enumerate(times):
            kind = NETWORK_FAULT_KINDS[
                int(rng.choice(len(NETWORK_FAULT_KINDS), p=weights))]
            node = int(rng.integers(0, self.gang_nodes))
            leaf = int(rng.integers(0, leaf_hi))
            if kind == "switch_down" or float(rng.uniform()) >= 0.5:
                link = leaf_link(leaf)
            else:
                link = nic_link(node)
            faults.append(InjectedFault(
                float(time), kind, NETWORK_CHAOS_REASONS[kind],
                "network", node, self.seed * 1000 + 700 + index,
                duration=NETWORK_FAULT_DURATIONS[kind], link=link))
        return faults

    def build_pod_faults(self) -> list[InjectedFault]:
        """The resolved pod (core-tier) fault schedule, sorted by time.

        Sampled from its own registered stream (``pod``): adding pod
        faults never perturbs any other stream.  Windows close by 80%
        of the horizon plus the duration so the fabric heals before
        end-of-run checks.  Faults hit the uplink of a pod the gang
        spans, and pod uplinks only matter to gangs that cross pods —
        pair these with a small ``leaves_per_pod``.
        """
        if self.n_pod_faults == 0:
            return []
        rng = stream_rng(self.seed, "pod")
        weights = np.array(POD_FAULT_MIX, dtype=float)
        weights /= weights.sum()
        gang_leaves = -(-self.gang_nodes // self.nodes_per_leaf)  # ceil
        gang_pods = -(-gang_leaves // self.leaves_per_pod)
        pod_hi = max(gang_pods, 1)
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.8 * self.duration,
                                    self.n_pod_faults))
        faults = []
        for index, time in enumerate(times):
            kind = POD_FAULT_KINDS[
                int(rng.choice(len(POD_FAULT_KINDS), p=weights))]
            pod = int(rng.integers(0, pod_hi))
            faults.append(InjectedFault(
                float(time), kind, NETWORK_CHAOS_REASONS[kind],
                "network", 0, self.seed * 1000 + 800 + index,
                duration=POD_FAULT_DURATIONS[kind],
                link=pod_link(pod)))
        return faults

    def build_partition_faults(self) -> list[InjectedFault]:
        """The resolved partial-partition schedule, sorted by time.

        Sampled from its own registered stream (``partition``).  Each
        fault degrades a *set* of gang NICs asymmetrically: even
        positions drop below the NCCL pass threshold, odd positions
        stay above it — some pairs keep passing probes, so
        localization must convict exactly the sick subset.
        """
        if self.n_partition_faults == 0:
            return []
        rng = stream_rng(self.seed, "partition")
        size = min(PARTITION_SIZE, self.gang_nodes)
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.8 * self.duration,
                                    self.n_partition_faults))
        faults = []
        for index, time in enumerate(times):
            members = sorted(int(node) for node in rng.choice(
                self.gang_nodes, size=size, replace=False))
            links = tuple(nic_link(node) for node in members)
            factors = tuple(
                PARTITION_LOW_FACTOR if position % 2 == 0
                else PARTITION_HIGH_FACTOR
                for position in range(size))
            faults.append(InjectedFault(
                float(time), "partial_partition",
                NETWORK_CHAOS_REASONS["partial_partition"], "network",
                members[0], self.seed * 1000 + 850 + index,
                duration=PARTITION_DURATION, link=links[0],
                links=links, link_factors=factors))
        return faults

    def build_straggler_faults(self) -> list[InjectedFault]:
        """The resolved straggler schedule, sorted by time.

        Sampled from its own registered stream (``straggler``).
        Victims are
        distinct gang nodes when possible.  Injection times stop at
        60% of the horizon so detection (or the silent-waste flag) has
        room to play out.  No reason, no duration: a straggler emits
        no failure log and decays until convicted — detection is the
        monitoring plane's problem, not the injector's.
        """
        if self.n_straggler_faults == 0:
            return []
        rng = stream_rng(self.seed, "straggler")
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.6 * self.duration,
                                    self.n_straggler_faults))
        if self.n_straggler_faults <= self.gang_nodes:
            victims = [int(node) for node in rng.choice(
                self.gang_nodes, size=self.n_straggler_faults,
                replace=False)]
        else:
            victims = [int(rng.integers(0, self.gang_nodes))
                       for _ in range(self.n_straggler_faults)]
        faults = []
        for index, time in enumerate(times):
            silent = float(rng.uniform()) < self.straggler_silent_fraction
            kind = "silent_degrader" if silent else "straggler"
            faults.append(InjectedFault(
                float(time), kind, None, "pretrain", victims[index],
                self.seed * 1000 + 900 + index))
        return faults

    def build_power_faults(self) -> list[InjectedFault]:
        """The resolved power-capping schedule, sorted by time.

        Sampled from its own registered stream (``power``).  The fleet
        step-rate factor is resolved *here*, at build time: synthetic
        pretraining-profile DCGM samples are pushed through
        ``GpuPowerModel`` and ``TemperatureModel``, and the resulting
        mean draw through the ``PowerCappingModel`` curve — the
        monitor models feeding training time, with the harness still
        sampling-free at runtime.
        """
        if self.n_power_faults == 0:
            return []
        rng = stream_rng(self.seed, "power")
        power_model = GpuPowerModel()
        thermal = TemperatureModel()
        capping = PowerCappingModel(cap_watts=POWER_CAP_WATTS)
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.8 * self.duration,
                                    self.n_power_faults))
        faults = []
        for index, time in enumerate(times):
            draws = []
            for _ in range(max(self.pretrain_gpus, 1)):
                # a loaded pretraining GPU, mirroring the DCGM
                # pretrain profile (sm ~ N(0.46, 0.12), tc ≈ 0.75·sm)
                sm = float(np.clip(rng.normal(0.46, 0.12), 0.02, 1.0))
                tc = float(np.clip(
                    sm * 0.75 * rng.uniform(0.85, 1.1), 0.0, 1.0))
                sample = GpuSample(
                    gpu_utilization=0.98, sm_activity=sm,
                    tc_activity=tc, memory_used_fraction=0.8,
                    job_type=JobType.PRETRAIN)
                draws.append(power_model.draw(sample, rng))
            mean_draw = float(np.mean(draws))
            core = thermal.core_temperature(mean_draw, rng)
            faults.append(InjectedFault(
                float(time), "power_cap", None, "power", 0,
                self.seed * 1000 + 950 + index,
                duration=POWER_CAP_DURATION,
                factor=capping.step_factor(mean_draw, core)))
        return faults

    def build_faults(self) -> list[InjectedFault]:
        """The resolved fault schedule, sorted by time."""
        if self.faults:
            return sorted(self.faults, key=lambda f: (f.time, f.log_seed))
        rng = stream_rng(self.seed, "node_faults")
        specs = [spec for spec in TAXONOMY
                 if self.category_filter is None
                 or spec.category.value == self.category_filter]
        weights = np.array([spec.count for spec in specs], dtype=float)
        weights /= weights.sum()
        times = np.sort(rng.uniform(0.05 * self.duration,
                                    0.95 * self.duration, self.n_faults))
        faults: list[InjectedFault] = []
        for index, time in enumerate(times):
            roll = float(rng.uniform())
            node = (self.pin_node if self.pin_node is not None
                    else int(rng.integers(0, self.n_nodes)))
            log_seed = self.seed * 1000 + index
            if roll < self.loss_spike_fraction:
                faults.append(InjectedFault(float(time), "loss_spike",
                                            None, "pretrain", node,
                                            log_seed))
                continue
            if roll < self.loss_spike_fraction + self.hang_fraction:
                faults.append(InjectedFault(float(time), "hang", None,
                                            "pretrain", node, log_seed))
                continue
            spec = specs[int(rng.choice(len(specs), p=weights))]
            if spec.category is FailureCategory.SCRIPT:
                target = "scheduler"
            else:
                target = ("pretrain"
                          if float(rng.uniform())
                          < self.pretrain_target_fraction
                          else "scheduler")
            faults.append(InjectedFault(float(time), "failure",
                                        spec.reason, target, node,
                                        log_seed))
        faults.extend(self.build_storage_faults())
        faults.extend(self.build_network_faults())
        faults.extend(self.build_pod_faults())
        faults.extend(self.build_partition_faults())
        faults.extend(self.build_straggler_faults())
        faults.extend(self.build_power_faults())
        return sorted(faults, key=lambda f: (f.time, f.log_seed))

    def build_background_jobs(self) -> list[Job]:
        """Deterministic best-effort jobs for the scheduler pool."""
        rng = stream_rng(self.seed, "background_jobs")
        types = [JobType.EVALUATION, JobType.DEBUG, JobType.SFT,
                 JobType.OTHER]
        demands = [1, 2, 4, 8, 16]
        jobs = []
        for index in range(self.n_background_jobs):
            demand = demands[int(rng.integers(0, len(demands)))]
            demand = min(demand, self.scheduler_gpus)
            jobs.append(Job(
                job_id=f"bg-{index:04d}",
                cluster="chaos",
                job_type=types[int(rng.integers(0, len(types)))],
                submit_time=float(rng.uniform(0.0, 0.8 * self.duration)),
                duration=float(rng.exponential(2.0 * 3600.0)) + 60.0,
                gpu_demand=demand,
            ))
        return sorted(jobs, key=lambda job: (job.submit_time, job.job_id))

    def with_seed(self, seed: int) -> "ChaosScenario":
        """The same scenario under a different seed."""
        return replace(self, seed=seed)


#: Ready-made scenarios, smallest first.  "flaky-node" pins every fault
#: to one node so repeated convictions escalate it to FAULTY;
#: "infra-storm" draws exclusively from the infrastructure rows of
#: Table 3, the category behind 82% of failure GPU-time (§5.2).
BUNDLED_SCENARIOS: dict[str, ChaosScenario] = {
    "smoke": ChaosScenario(
        name="smoke", n_nodes=8, duration=6.0 * 3600.0, pretrain_gpus=16,
        scheduler_gpus=32, n_background_jobs=10, n_faults=4),
    "mixed": ChaosScenario(name="mixed"),
    "infra-storm": ChaosScenario(
        name="infra-storm", n_faults=12,
        category_filter="infrastructure", loss_spike_fraction=0.0,
        hang_fraction=0.1),
    "flaky-node": ChaosScenario(
        name="flaky-node", n_nodes=10, pretrain_gpus=32,
        scheduler_gpus=32, n_faults=6, pin_node=1,
        category_filter="infrastructure", loss_spike_fraction=0.0,
        hang_fraction=0.0, pretrain_target_fraction=1.0),
    # storage-storm drills the checkpoint path: long corruption windows
    # poison generations silently (forcing fallback restores when a node
    # fault later triggers recovery), while outage/slowdown windows
    # exercise the retry/deferral machinery.
    "storage-storm": ChaosScenario(
        name="storage-storm", n_nodes=8, duration=8.0 * 3600.0,
        pretrain_gpus=16, scheduler_gpus=32, n_background_jobs=10,
        n_faults=4, loss_spike_fraction=0.0, hang_fraction=0.0,
        category_filter="infrastructure",
        pretrain_target_fraction=1.0, n_storage_faults=5,
        storage_fault_mix=(0.25, 0.25, 0.5),
        ckpt_corruption_duration=3600.0),
    # network-storm drills the fabric path: three-node leaf domains make
    # the 4-node gang span two leaves, so downed/degraded uplinks and
    # NICs interrupt it, the localization procedure convicts segments
    # (a leaf needs two healthy members for an uplink conviction, hence
    # the wider domains), and placement migrates the gang around the
    # cordoned fabric.
    "network-storm": ChaosScenario(
        name="network-storm", seed=8, n_nodes=12, duration=8.0 * 3600.0,
        pretrain_gpus=32, scheduler_gpus=32, n_background_jobs=10,
        n_faults=2, loss_spike_fraction=0.0, hang_fraction=0.0,
        category_filter="infrastructure",
        pretrain_target_fraction=1.0, n_network_faults=5,
        network_fault_mix=(0.5, 0.3, 0.2), nodes_per_leaf=3),
    # straggler-storm drills the silent failure domains: three gang
    # nodes slowly decay (two loud stragglers detected from the
    # step-time series, one silent degrader whose floor sits above the
    # DCGM conviction bar so it is never caught — only flagged as
    # silent waste at the horizon), a power-cap window stretches the
    # whole fleet, and convicted nodes swap against a two-node
    # hot-spare pool until it runs dry.
    "straggler-storm": ChaosScenario(
        name="straggler-storm", seed=11, n_nodes=10,
        duration=8.0 * 3600.0, pretrain_gpus=32, scheduler_gpus=24,
        n_background_jobs=8, n_faults=2, loss_spike_fraction=0.0,
        hang_fraction=0.0, category_filter="infrastructure",
        pretrain_target_fraction=1.0, n_straggler_faults=3,
        straggler_silent_fraction=0.45, silent_floor=0.96,
        n_power_faults=1, hot_spares=2),
    # partition-storm drills the core tier: two-leaf pods make the
    # six-node gang span two pods, so pod-uplink faults interrupt it
    # and the pod cycle sweep localizes them; partial partitions
    # degrade asymmetric NIC sets the four-round protocol must convict
    # as a set.
    "partition-storm": ChaosScenario(
        name="partition-storm", seed=4, n_nodes=14,
        duration=8.0 * 3600.0, pretrain_gpus=48, scheduler_gpus=32,
        n_background_jobs=8, n_faults=1, loss_spike_fraction=0.0,
        hang_fraction=0.0, category_filter="infrastructure",
        pretrain_target_fraction=1.0, nodes_per_leaf=2,
        leaves_per_pod=2, n_pod_faults=2, n_partition_faults=2),
}
