"""Fleet-level experiment harness: runs, goodput sweeps, policy studies.

Mirrors :mod:`repro.bench.runner` one tier up: one :func:`run_fleet` call
builds N replicas behind a router inside a fresh simulator, plays a
workload through them, and reports the fleet-merged summary next to the
per-replica breakdown.  On top sit the two sweeps every scaling study
needs: goodput vs. arrival rate (:func:`fleet_goodput_sweep`) and
policy-vs-policy comparisons at a fixed deployment
(:func:`compare_policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bench.goodput import GoodputResult, WorkloadFactory, _sweep
from repro.bench.runner import (
    DRAIN_HORIZON,
    STABILITY_TTFT,
    RunStats,
    StabilityVerdict,
    SystemFactory,
    simulate,
)
from repro.cluster import Fleet, FleetConfig
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary
from repro.trace import Tracer
from repro.workloads.request import Workload


@dataclass
class FleetRunResult(StabilityVerdict):
    """Outcome of one fleet run (fleet-merged plus per-replica views)."""

    summary: Summary
    per_replica: dict[str, Summary]
    cache_hit_rate: float
    sm_utilization: float
    bandwidth_utilization: float
    requests_shed: int
    replicas_total: int
    replicas_routable: int
    router_decisions: int
    extras: dict[str, float] = field(default_factory=dict)
    stability_ttft: float = STABILITY_TTFT
    stats: RunStats = RunStats()


def run_fleet(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    fleet: FleetConfig | None = None,
    drain_horizon: float = DRAIN_HORIZON,
    tracer: Tracer | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> FleetRunResult:
    """Run ``workload`` through a freshly built fleet and summarise."""
    cluster, stats = simulate(
        lambda sim: Fleet(sim, factory, cfg, fleet),
        workload,
        tracer=tracer,
        drain_horizon=drain_horizon,
    )
    extras: dict[str, float] = {
        "requests_queued": float(cluster.router.requests_queued),
        **stats.as_extras(),
    }
    if cluster.autoscaler is not None:
        extras["scale_ups"] = float(cluster.autoscaler.scale_ups)
        extras["scale_downs"] = float(cluster.autoscaler.scale_downs)
    ledger = cluster.kv_ledger()
    if ledger is not None:
        for key, value in ledger.items():
            extras[f"kv_{key}"] = float(value)
    # Cost extras only for explicitly mixed-SKU fleets: homogeneous runs
    # must keep their result payload (and fingerprints) byte-identical.
    if cluster.config.skus is not None:
        cost = cluster.cost_ledger()
        extras["cost_usd"] = float(cost["usd"])
        extras["cost_kwh"] = float(cost["kwh"])
        extras["cost_replica_seconds"] = float(cost["replica_seconds"])
        extras["cost_hourly"] = float(cost["hourly_cost"])
    return FleetRunResult(
        summary=cluster.summarize(),
        per_replica=cluster.per_replica_summaries(),
        cache_hit_rate=cluster.cache_hit_rate(),
        sm_utilization=cluster.sm_utilization(),
        bandwidth_utilization=cluster.bandwidth_utilization(),
        requests_shed=cluster.router.requests_shed,
        replicas_total=len(cluster.replicas),
        replicas_routable=len(cluster.routable_replicas()),
        router_decisions=cluster.router.decisions,
        extras=extras,
        stability_ttft=stability_ttft,
        stats=stats,
    )


def fleet_goodput_sweep(
    name: str,
    factory: SystemFactory,
    cfg: ServingConfig,
    workload_factory: WorkloadFactory,
    rates: list[float],
    fleet: FleetConfig | None = None,
    stop_after_failures: int = 2,
    stability_ttft: float = STABILITY_TTFT,
) -> GoodputResult:
    """Ascending-rate sweep of a fixed fleet under the TBT SLO.

    Same methodology as :func:`repro.bench.goodput.goodput_sweep`, with a
    whole fleet as the system under test; the returned points carry
    :class:`FleetRunResult` objects.
    """
    run_at = lambda rate: run_fleet(
        factory, cfg, workload_factory(rate), fleet, stability_ttft=stability_ttft
    )
    return _sweep(name, run_at, rates, stop_after_failures)


def compare_policies(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    policies: list[str],
    fleet: FleetConfig | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> dict[str, FleetRunResult]:
    """Run the same workload under each routing policy (same fleet shape)."""
    template = fleet or FleetConfig()
    results: dict[str, FleetRunResult] = {}
    for policy in policies:
        results[policy] = run_fleet(
            factory,
            cfg,
            workload,
            replace(template, policy=policy),
            stability_ttft=stability_ttft,
        )
    return results


def replica_scaling(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload_factory: WorkloadFactory,
    replica_counts: list[int],
    per_replica_rate: float,
    fleet: FleetConfig | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> list[tuple[int, FleetRunResult]]:
    """Goodput-vs-replica-count study at a matched per-replica rate.

    Each point runs ``n`` replicas against a workload generated at
    ``n * per_replica_rate`` — if routing scales, every point should look
    like the single-replica run, just wider.
    """
    template = fleet or FleetConfig()
    points: list[tuple[int, FleetRunResult]] = []
    for count in replica_counts:
        workload = workload_factory(count * per_replica_rate)
        result = run_fleet(
            factory,
            cfg,
            workload,
            replace(template, replicas=count),
            stability_ttft=stability_ttft,
        )
        points.append((count, result))
    return points
