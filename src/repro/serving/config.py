"""Deployment configuration shared by every serving system."""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.gpu.launch import LaunchModel
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.serving.slo import SLO, default_slo

if TYPE_CHECKING:
    # Import cycle: repro.tenancy reaches back into the cluster layer,
    # which imports serving.base -> serving.config.  The annotation is
    # enough here; consumers construct the TenancyConfig themselves.
    from repro.kvcache.tiers import KVTierConfig
    from repro.profiles.schema import LatencyProfile
    from repro.spec.config import SpecConfig
    from repro.tenancy.model import TenancyConfig

#: Waiting-queue disciplines a serving system can be configured with.
QUEUE_POLICIES = ("fifo", "wfq")


@dataclass
class ServingConfig:
    """Static description of one deployment (model on a GPU server).

    Attributes:
        model: The served LLM.
        spec: GPU model of every GPU in the server.
        n_gpus: GPUs in the server (the paper uses 8, or 1 in §4.3.1).
        slo: Latency targets; defaults to the paper's per-model TBT SLO.
        page_tokens: KV-cache page size in tokens.
        activation_reserve_fraction: Fraction of GPU memory reserved for
            activations, workspace and fragmentation.
        max_decode_batch: Upper bound on the decode batch size.
        max_prefill_batch_tokens: Cap on new tokens batched into one prefill.
        launch: Host launch-overhead model.
        name_prefix: Prepended to every instance/metrics/trace name built
            from this config.  Fleet deployments run several systems on one
            simulator and use a per-replica prefix (``"r0/"``, ``"r1/"``, …)
            to keep device, host and cache trace tracks distinguishable.
        queue_policy: Waiting-queue discipline — ``"fifo"`` (a plain deque,
            the historical behaviour) or ``"wfq"`` (virtual-time weighted
            fair queueing over prefill token cost, see
            :class:`repro.tenancy.wfq.WFQQueue`).
        tenancy: Multi-tenant QoS registry (tiers, weights, per-tier SLO
            scaling).  ``None`` keeps every tenant-aware branch disabled —
            the single-tenant fast path is byte-identical to the
            pre-tenancy stack.
        kv_tiers: DRAM/NVMe spill hierarchy behind the HBM radix cache
            (see :mod:`repro.kvcache.tiers`).  ``None`` (the default)
            keeps every tier-aware branch disabled — the untiered path is
            byte-identical to the pre-tier stack.
        kv_pool_limit_bytes: Optional hard cap on the HBM KV pool, below
            what device memory would allow.  Used by capacity studies to
            force eviction pressure; ``None`` keeps the historical
            memory-derived pool size.
        spec_decode: Speculative-decoding mode (draft model, draft length,
            acceptance-rate model — see :mod:`repro.spec`).  ``None`` (the
            default) keeps every speculation-aware branch disabled — the
            plain-decode path is byte-identical to the pre-spec stack.
        cost_profile: Empirical latency profile to replay in place of the
            analytic roofline (see :mod:`repro.profiles`).  Instances are
            built with a :class:`repro.profiles.model.ProfiledCostModel`
            when set; ``None`` (the default) builds the roofline
            :class:`repro.models.costs.CostModel` — byte-identical to the
            pre-profile stack.
    """

    model: ModelConfig
    spec: GPUSpec
    n_gpus: int = 8
    slo: SLO | None = None
    page_tokens: int = 16
    activation_reserve_fraction: float = 0.08
    max_decode_batch: int = 256
    max_prefill_batch_tokens: int = 8192
    launch: LaunchModel = field(default_factory=LaunchModel)
    name_prefix: str = ""
    queue_policy: str = "fifo"
    tenancy: "TenancyConfig | None" = None
    kv_tiers: "KVTierConfig | None" = None
    kv_pool_limit_bytes: float | None = None
    spec_decode: "SpecConfig | None" = None
    cost_profile: "LatencyProfile | None" = None

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got {self.queue_policy!r}"
            )
        if self.slo is None:
            self.slo = default_slo(self.model)

    @property
    def hourly_cost(self) -> float:
        """Rental price of this deployment (USD/hr, all GPUs)."""
        return self.spec.price_per_hour * self.n_gpus

    @property
    def power_watts(self) -> float:
        """Provisioned board power of this deployment (watts, all GPUs)."""
        return self.spec.tdp_watts * self.n_gpus

    def kv_pool_bytes(self, instance_gpus: int) -> float:
        """KV-cache pool size for an instance spanning ``instance_gpus`` GPUs.

        Each instance holds a full weight replica plus activation reserve.
        """
        total = self.spec.mem_bytes * instance_gpus
        reserve = total * self.activation_reserve_fraction
        pool = total - self.model.weight_bytes - reserve
        return max(0.0, pool)
