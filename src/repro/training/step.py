"""Step-time decomposition for distributed pretraining.

Decomposes one optimizer step into compute, tensor-parallel collectives,
pipeline bubbles/point-to-point, data-parallel (or ZeRO) collectives, and
the optimizer update.  The arithmetic follows the standard Megatron/ZeRO
communication-volume accounting; two strategy-dependent efficiency
constants are calibrated to the paper's observations:

* ``compute_efficiency`` — achieved fraction of peak tensor-core FLOPs
  while kernels run.  Tensor parallelism fragments GEMMs eight ways and
  interleaves them with blocking collectives, so V1 achieves a lower
  kernel efficiency than V2's full-layer GEMMs.
* ``overlap`` — fraction of DP/ZeRO communication hidden behind compute.
  InternEvo V2's "fine-grained communication overlap" (§2.2) hides almost
  all of its (much larger) ZeRO gather traffic.

With the defaults, V2 beats V1 by ~16% on the 123B/2048-GPU configuration,
with higher SM utilization — the Fig. 10 result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import A100_SXM_80GB, GpuSpec
from repro.cluster.network import allreduce_time
from repro.training.model import TransformerConfig
from repro.training.parallelism import ParallelismPlan

#: effective ring-allreduce bus bandwidth inside a node (NVLink), bytes/s
DEFAULT_INTRA_NODE_BANDWIDTH = 150e9
#: per-GPU share of the node's application NICs (Kalos: 4x200Gb/s over
#: 8 GPUs = 12.5 GB/s), bytes/s
DEFAULT_INTER_NODE_BANDWIDTH = 12.5e9


def hierarchy_bandwidth_factor(nodes_in_group: int) -> float:
    """Effective-bandwidth derating as a collective spans switch tiers.

    Collectives confined to one leaf switch (<= 8 nodes) see full NIC
    bandwidth; pod-scale groups (<= 64 nodes) cross the spine once; and
    fabric-wide groups hit core oversubscription.  This is exactly why
    InternEvo's hierarchical ZeRO limits parameter sharding to 64-GPU
    (8-node) subgroups instead of sharding globally (§4.1).
    """
    if nodes_in_group <= 1:
        return 1.0
    if nodes_in_group <= 8:
        return 1.0
    if nodes_in_group <= 64:
        return 0.75
    return 0.55


@dataclass(frozen=True)
class StepBreakdown:
    """Seconds spent in each phase of one optimizer step."""

    compute: float
    tensor_parallel_comm: float
    pipeline_p2p: float
    pipeline_bubble: float
    exposed_dp_comm: float
    optimizer: float

    @property
    def total(self) -> float:
        return (self.compute + self.tensor_parallel_comm
                + self.pipeline_p2p + self.pipeline_bubble
                + self.exposed_dp_comm + self.optimizer)

    @property
    def busy_fraction(self) -> float:
        """Fraction of the step the SMs are doing useful compute."""
        return self.compute / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Phase durations as a plain dict."""
        return {
            "compute": self.compute,
            "tensor_parallel_comm": self.tensor_parallel_comm,
            "pipeline_p2p": self.pipeline_p2p,
            "pipeline_bubble": self.pipeline_bubble,
            "exposed_dp_comm": self.exposed_dp_comm,
            "optimizer": self.optimizer,
        }


class StepTimeModel:
    """Computes a :class:`StepBreakdown` for a (model, plan) pair."""

    def __init__(self, model: TransformerConfig, plan: ParallelismPlan,
                 gpu: GpuSpec = A100_SXM_80GB,
                 intra_node_bandwidth: float = DEFAULT_INTRA_NODE_BANDWIDTH,
                 inter_node_bandwidth: float = DEFAULT_INTER_NODE_BANDWIDTH,
                 compute_efficiency: float | None = None,
                 overlap: float | None = None,
                 fabric=None) -> None:
        """``fabric`` (a :class:`repro.cluster.fattree.FatTree`) replaces
        the built-in tier constants with topology-derived bandwidth
        factors when provided."""
        self.model = model
        self.plan = plan
        self.gpu = gpu
        self.intra_node_bandwidth = intra_node_bandwidth
        self.inter_node_bandwidth = inter_node_bandwidth
        if compute_efficiency is None:
            compute_efficiency = 0.45 if plan.tensor_parallel > 1 else 0.65
        if overlap is None:
            overlap = 0.70 if plan.zero_shard_group == 1 else 0.92
        if not 0 < compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not 0 <= overlap <= 1:
            raise ValueError("overlap must be in [0, 1]")
        self.compute_efficiency = compute_efficiency
        self.overlap = overlap
        self.fabric = fabric

    # -- components ---------------------------------------------------------

    def tokens_per_gpu(self) -> float:
        """Tokens flowing through each pipeline replica per step."""
        sequences = self.plan.micro_batches * self.plan.micro_batch_size
        return sequences * self.model.seq_len

    def compute_time(self) -> float:
        """Pure kernel time for forward+backward on this GPU's share.

        Tensor/pipeline parallelism split the per-token FLOPs across
        tp*pp GPUs, so per-GPU FLOPs = tokens * flops_per_token / (tp*pp).
        """
        flops_per_token = self.model.flops_per_token(self.plan.recompute)
        model_parallel = (self.plan.tensor_parallel
                          * self.plan.pipeline_parallel)
        flops = self.tokens_per_gpu() * flops_per_token / model_parallel
        return flops / (self.gpu.peak_flops * self.compute_efficiency)

    def tensor_parallel_time(self) -> float:
        """Blocking TP all-reduces: 4 per layer per micro-batch (fwd+bwd)."""
        plan = self.plan
        if plan.tensor_parallel <= 1:
            return 0.0
        activation_bytes = (2.0 * self.model.seq_len
                            * plan.micro_batch_size * self.model.hidden)
        per_allreduce = allreduce_time(activation_bytes,
                                       plan.tensor_parallel,
                                       self.intra_node_bandwidth)
        layers_here = self.model.layers / plan.pipeline_parallel
        count = 4 * layers_here * plan.micro_batches
        return per_allreduce * count

    def pipeline_p2p_time(self) -> float:
        """Inter-stage activation sends (cross-node, exposed)."""
        plan = self.plan
        if plan.pipeline_parallel <= 1:
            return 0.0
        boundary_bytes = (2.0 * self.model.seq_len
                          * plan.micro_batch_size * self.model.hidden)
        sends = 2 * plan.micro_batches  # forward + backward per boundary
        return sends * boundary_bytes / self.inter_node_bandwidth

    def pipeline_bubble_time(self) -> float:
        """Idle time implied by the 1F1B bubble fraction."""
        busy = (self.compute_time() + self.tensor_parallel_time()
                + self.pipeline_p2p_time())
        fraction = self.plan.pipeline_bubble_fraction
        if fraction >= 1.0:
            raise ValueError("degenerate pipeline (no micro-batches)")
        return busy * fraction / (1.0 - fraction)

    def dp_comm_time(self) -> float:
        """Raw (pre-overlap) data-parallel / ZeRO collective time."""
        plan = self.plan
        psi = self.model.param_count
        model_parallel = plan.tensor_parallel * plan.pipeline_parallel
        if plan.zero_shard_group > 1:
            # ZeRO-3-style: all-gather fp16 params for fwd and again for
            # bwd, plus reduce-scatter fp16 grads — within the shard group.
            group = plan.zero_shard_group
            nodes_in_group = max(1, group // 8)
            bandwidth = (self.inter_node_bandwidth
                         * self._tier_factor(nodes_in_group))
            volume = 3.0 * 2.0 * psi * (group - 1) / group
            return volume / bandwidth
        if plan.data_parallel <= 1:
            return 0.0
        # ZeRO-1 over DP: reduce-scatter grads + all-gather updated params
        # of this GPU's model-parallel shard.
        dp_nodes = max(1, plan.data_parallel
                       * plan.tensor_parallel * plan.pipeline_parallel
                       // 8)
        bandwidth = (self.inter_node_bandwidth
                     * self._tier_factor(dp_nodes))
        shard_bytes = 2.0 * psi / model_parallel
        return allreduce_time(2.0 * shard_bytes, plan.data_parallel,
                              bandwidth)

    def exposed_dp_comm_time(self) -> float:
        """DP/ZeRO communication left after overlap."""
        return self.dp_comm_time() * (1.0 - self.overlap)

    def _tier_factor(self, nodes_in_group: int) -> float:
        """Bandwidth derating for a collective spanning that many nodes:
        topology-derived when a fabric is attached, tier constants
        otherwise."""
        if self.fabric is not None:
            group = self.fabric.contiguous_group(0, min(
                nodes_in_group, self.fabric.config.nodes))
            return self.fabric.group_bandwidth_factor(group)
        return hierarchy_bandwidth_factor(nodes_in_group)

    def optimizer_time(self) -> float:
        """Adam update over this GPU's optimizer shard (memory-bound)."""
        psi = self.model.param_count
        plan = self.plan
        if plan.zero_shard_group > 1:
            shard = psi / plan.zero_shard_group
        else:
            shard = psi / (plan.tensor_parallel * plan.pipeline_parallel
                           * plan.data_parallel)
        # ~16 bytes of state read+written per element at ~1.5 TB/s HBM.
        return 2.0 * 16.0 * shard / 1.5e12

    # -- assembly -------------------------------------------------------------

    def breakdown(self) -> StepBreakdown:
        """Full per-phase decomposition of one step."""
        return StepBreakdown(
            compute=self.compute_time(),
            tensor_parallel_comm=self.tensor_parallel_time(),
            pipeline_p2p=self.pipeline_p2p_time(),
            pipeline_bubble=self.pipeline_bubble_time(),
            exposed_dp_comm=self.exposed_dp_comm_time(),
            optimizer=self.optimizer_time(),
        )

    def step_time(self) -> float:
        """Total seconds per optimizer step."""
        return self.breakdown().total

    def model_flops_utilization(self) -> float:
        """MFU: useful model FLOPs (6N, never counting recompute) / peak."""
        model_parallel = (self.plan.tensor_parallel
                          * self.plan.pipeline_parallel)
        useful = (self.tokens_per_gpu() * 6.0 * self.model.param_count
                  / model_parallel)
        return useful / (self.step_time() * self.gpu.peak_flops)
