"""Multi-tenant QoS study: isolation under an adversarial noisy neighbor.

The experiment: an *interactive* chat tenant (ShareGPT-shaped traffic)
shares one deployment with a *batch* tenant flooding LooGLE-length
prefills.  Three serving configurations face the same combined arrival
stream:

* ``fifo`` — the pre-tenancy stack: one FIFO waiting queue, no admission.
  Every multi-kilotoken batch prefill chunked into the decode loop
  stretches iteration times, so the chat tenant's TBT tail collapses.
* ``wfq`` — weighted fair queueing over prefill token cost: chat requests
  overtake queued batch work (4:1 tier weights), shrinking TTFT damage,
  but admitted batch requests still fatten every fused iteration.
* ``wfq+brownout`` — WFQ plus the tiered admission controller: batch-tier
  arrivals are shed once fleet occupancy crosses the batch tier's budget
  fraction, so the flood never reaches the decode loop.

A fourth *isolated* run — the chat tenant alone on the same deployment —
provides the reference attainment.  The acceptance bar for this repo:
``wfq+brownout`` keeps interactive-tier TBT attainment within 2 points of
isolated while ``fifo`` loses at least 10 points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import ChunkedPrefillServer
from repro.bench.runner import MAX_EVENTS, SystemFactory
from repro.cluster import Fleet, FleetConfig
from repro.cluster.admission import AdmissionConfig
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary, merge_collectors
from repro.sim import Simulator, make_sim
from repro.tenancy import (
    TIER_BATCH,
    TIER_INTERACTIVE,
    TenancyConfig,
    Tenant,
    TieredAdmissionController,
    TierReport,
    tier_reports,
    weighted_fairness,
)
from repro.workloads import (
    Workload,
    combine_workloads,
    loogle_workload,
    sharegpt_workload,
    tag_workload,
)

#: Tenant names used throughout the study.
CHAT_TENANT = "chat-co"
BATCH_TENANT = "batch-co"

#: The three contended serving modes, in presentation order.
MODES = ("fifo", "wfq", "wfq+brownout")

#: Batch-tier share of the in-flight budget under tiered brownout; chosen
#: adversarially low — the study's point is protecting interactive traffic.
BROWNOUT_TIER_FRACTIONS = (0.1, 0.8)

#: Outstanding-request capacity per replica for the brownout controller.
BROWNOUT_CAPACITY = 16


def study_tenancy_config() -> TenancyConfig:
    """Tier registry for the study: chat = interactive, flood = batch."""
    return TenancyConfig(
        tenants={
            CHAT_TENANT: Tenant(CHAT_TENANT, tier=TIER_INTERACTIVE),
            BATCH_TENANT: Tenant(BATCH_TENANT, tier=TIER_BATCH),
        }
    )


def interactive_workload(scale: float = 1.0, seed: int = 0) -> Workload:
    """The chat tenant's own traffic (the isolated reference stream)."""
    chat = sharegpt_workload(max(16, int(160 * scale)), rate=4.0, seed=seed)
    return tag_workload(chat, CHAT_TENANT, TIER_INTERACTIVE)


def noisy_neighbor_workload(scale: float = 1.0, seed: int = 0) -> Workload:
    """Chat traffic plus an adversarial long-prefill batch flood.

    The batch tenant submits LooGLE-length requests (tens of kilotokens of
    prefill each) at a rate the deployment cannot absorb next to the chat
    tenant — the canonical noisy neighbor.
    """
    chat = interactive_workload(scale, seed)
    flood = loogle_workload(max(8, int(90 * scale)), rate=1.5, seed=seed + 1)
    flood = tag_workload(flood, BATCH_TENANT, TIER_BATCH)
    return combine_workloads([chat, flood], name="noisy-neighbor")


def _default_cfg(tenancy: TenancyConfig | None, queue_policy: str) -> ServingConfig:
    return ServingConfig(
        model=LLAMA_8B,
        spec=A100,
        n_gpus=1,
        queue_policy=queue_policy,
        tenancy=tenancy,
    )


def _default_factory(sim: Simulator, cfg: ServingConfig) -> ChunkedPrefillServer:
    return ChunkedPrefillServer(sim, cfg, token_budget=256)


@dataclass
class TenancyRunResult:
    """One mode's outcome: fleet summary plus the per-tier breakdown."""

    mode: str
    summary: Summary
    tiers: list[TierReport]
    fairness: float
    requests_shed: int
    rate_limited: int
    shed_by_tier: dict[str, int] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def tier(self, name: str) -> TierReport | None:
        for report in self.tiers:
            if report.tier == name:
                return report
        return None

    def attainment(self, tier: str) -> float:
        """TBT attainment of ``tier`` in percentage points (NaN if absent)."""
        report = self.tier(tier)
        return report.tbt_attainment * 100.0 if report is not None else float("nan")

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "summary": self.summary.as_dict(),
            "tiers": [t.as_dict() for t in self.tiers],
            "fairness": self.fairness,
            "requests_shed": self.requests_shed,
            "rate_limited": self.rate_limited,
            "shed_by_tier": dict(sorted(self.shed_by_tier.items())),
        }


@dataclass
class IsolationStudy:
    """Outcome of :func:`compare_isolation`."""

    isolated: TenancyRunResult
    contended: dict[str, TenancyRunResult]

    def degradation(self, mode: str, tier: str = TIER_INTERACTIVE) -> float:
        """Attainment points lost versus the isolated reference."""
        return self.isolated.attainment(tier) - self.contended[mode].attainment(tier)

    def as_dict(self) -> dict[str, object]:
        return {
            "isolated": self.isolated.as_dict(),
            "contended": {m: r.as_dict() for m, r in self.contended.items()},
            "degradation_pts": {
                mode: self.degradation(mode) for mode in self.contended
            },
        }


def run_tenancy_mode(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    tenancy: TenancyConfig,
    fleet: FleetConfig,
    mode: str,
    drain_horizon: float = 3600.0,
) -> TenancyRunResult:
    """Run one configuration and slice the results by tier."""
    sim = make_sim()
    cluster = Fleet(sim, factory, cfg, fleet)
    cluster.submit(workload)
    last_arrival = workload.requests[-1].arrival_time if len(workload) else 0.0
    sim.run(until=last_arrival + drain_horizon, max_events=MAX_EVENTS)
    merged = merge_collectors(
        [
            *cluster._retired_collectors,
            *(r.system.metrics for r in cluster.replicas),
        ],
        cfg.slo,
        name=mode,
    )
    shed_by_tier: dict[str, int] = {}
    if isinstance(cluster.admission, TieredAdmissionController):
        shed_by_tier = dict(cluster.admission.shed_by_tier)
    return TenancyRunResult(
        mode=mode,
        summary=merged.summarize(),
        tiers=tier_reports(merged, tenancy, cfg.slo),
        fairness=weighted_fairness(merged, tenancy),
        requests_shed=cluster.router.requests_shed,
        rate_limited=cluster.router.requests_rate_limited,
        shed_by_tier=shed_by_tier,
        extras={
            "events_processed": float(sim.processed_events),
            "peak_event_queue": float(sim.max_event_queue),
        },
    )


def compare_isolation(
    scale: float = 1.0,
    seed: int = 0,
    factory: SystemFactory | None = None,
    make_cfg: Callable[[TenancyConfig | None, str], ServingConfig] | None = None,
) -> IsolationStudy:
    """FIFO vs WFQ vs WFQ+tiered-brownout under the noisy neighbor.

    All four runs (isolated reference plus the three contended modes) use
    the same deployment shape and, for the contended runs, the identical
    combined workload, so every attainment delta is attributable to the
    queueing/admission discipline alone.
    """
    factory = factory or _default_factory
    make_cfg = make_cfg or _default_cfg
    tenancy = study_tenancy_config()
    contended_load = noisy_neighbor_workload(scale, seed)

    isolated = run_tenancy_mode(
        factory,
        make_cfg(tenancy, "fifo"),
        interactive_workload(scale, seed),
        tenancy,
        FleetConfig(replicas=1),
        mode="isolated",
    )

    contended: dict[str, TenancyRunResult] = {}
    for mode in MODES:
        queue_policy = "fifo" if mode == "fifo" else "wfq"
        fleet = FleetConfig(replicas=1)
        if mode == "wfq+brownout":
            fleet = FleetConfig(
                replicas=1,
                admission=TieredAdmissionController(
                    AdmissionConfig(
                        max_outstanding_per_replica=BROWNOUT_CAPACITY, mode="queue"
                    ),
                    tenancy=tenancy,
                    tier_fractions=BROWNOUT_TIER_FRACTIONS,
                ),
            )
        contended[mode] = run_tenancy_mode(
            factory,
            make_cfg(tenancy, queue_policy),
            contended_load,
            tenancy,
            fleet,
            mode=mode,
        )
    return IsolationStudy(isolated=isolated, contended=contended)
