"""Chaos harness: one fleet, one workload, one fault plan, one report.

:func:`run_chaos` is :func:`repro.bench.fleet.run_fleet` with a
:class:`~repro.faults.plan.FaultPlan` armed against the fleet and a report
built for regression testing rather than plotting: alongside the usual
fleet summary it carries the router's conservation ledger, the injector's
fault counters and a ``drained`` flag proving bounded termination.

Determinism is the contract: :meth:`ChaosResult.to_json` is byte-identical
across runs of the same (factory, config, workload, plan) — the CI
chaos-smoke job runs the CLI twice and diffs the bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from repro.bench.runner import DRAIN_HORIZON, STABILITY_TTFT, RunStats, SystemFactory, simulate
from repro.cluster import Fleet, FleetConfig, HealthConfig
from repro.faults import FaultInjector, FaultPlan, default_chaos_plan
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary
from repro.trace import Tracer
from repro.workloads.request import Workload


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    summary: Summary
    per_replica: dict[str, Summary]
    conservation: dict[str, int]
    faults: dict[str, object]
    fleet_failures: int
    fleet_restarts: int
    replicas_total: int
    replicas_routable: int
    #: True iff the simulation ran out of productive events (bounded
    #: termination) rather than hitting the time/event cap with work stuck.
    drained: bool
    extras: dict[str, float] = field(default_factory=dict)
    stability_ttft: float = STABILITY_TTFT
    #: KV movement ledger (restored vs recomputed tokens).  None unless
    #: the fleet ran with KV tiers or cross-replica transfer — the payload
    #: must not grow keys on the byte-identical untiered path.
    kv: dict[str, int] | None = None
    stats: RunStats = RunStats()

    def conserved(self) -> bool:
        """Every arrival is in exactly one terminal bucket, none in flight."""
        c = self.conservation
        terminal = c["completed"] + c["dropped"] + c["shed"] + c["lost"]
        pending = c["queued_now"] + c["held_now"] + c["inflight_now"]
        return c["arrivals"] == terminal and pending == 0

    def to_json(self) -> str:
        """Deterministic JSON: same run → same bytes (the replay contract).

        Request ids never appear here — they come from process-global
        counters, so two in-process runs of the same scenario would differ.
        NaN (empty-percentile) values map to null: ``json.dumps`` would
        otherwise emit bare ``NaN``, which is not JSON.
        """
        payload = {
            "summary": _jsonable(self.summary.as_dict()),
            "per_replica": {
                name: _jsonable(s.as_dict()) for name, s in self.per_replica.items()
            },
            "conservation": dict(self.conservation),
            "faults": _jsonable(self.faults),
            "fleet": {
                "failures": self.fleet_failures,
                "restarts": self.fleet_restarts,
                "replicas_total": self.replicas_total,
                "replicas_routable": self.replicas_routable,
            },
            "drained": self.drained,
            "extras": _jsonable(self.extras),
        }
        if self.kv is not None:
            payload["kv"] = dict(self.kv)
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def _jsonable(value):
    """Recursively map NaN/inf floats to None (strict-JSON safe)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def default_chaos_fleet() -> FleetConfig:
    """The chaos default: 4 replicas with the health watchdog enabled."""
    return FleetConfig(replicas=4, health=HealthConfig())


def run_chaos(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    fleet: FleetConfig | None = None,
    plan: FaultPlan | None = None,
    drain_horizon: float = DRAIN_HORIZON,
    tracer: Tracer | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> ChaosResult:
    """Run ``workload`` through a fleet while ``plan``'s faults fire.

    Defaults: a 4-replica fleet with health checking (`fleet=None`), and
    a plan exercising every fault kind once, spread over the workload's
    arrival span (`plan=None`).  The health watchdog is force-enabled even
    for an explicit ``fleet`` without one — an undetectable hang would
    otherwise turn a stall fault into a stuck run.
    """
    if fleet is None:
        fleet = default_chaos_fleet()
    elif fleet.health is None:
        fleet = replace(fleet, health=HealthConfig())
    last_arrival = workload.requests[-1].arrival_time if len(workload) else 0.0
    if plan is None:
        plan = default_chaos_plan(max(1.0, last_arrival))

    def build(sim):
        cluster = Fleet(sim, factory, cfg, fleet)
        # Armed before the workload is submitted: fault events take the
        # earlier sequence numbers at equal timestamps.
        FaultInjector(sim, cluster, plan).arm()
        return cluster

    cluster, stats = simulate(
        build,
        workload,
        tracer=tracer,
        drain_horizon=drain_horizon,
        not_before=max((spec.at for spec in plan), default=0.0),
    )
    injector = cluster.router.network  # arm() installed it there
    extras: dict[str, float] = {
        "requests_queued": float(cluster.router.requests_queued),
        **stats.as_extras(),
    }
    if cluster.autoscaler is not None:
        extras["scale_ups"] = float(cluster.autoscaler.scale_ups)
        extras["scale_downs"] = float(cluster.autoscaler.scale_downs)
        extras["replacements"] = float(cluster.autoscaler.replacements)
    if cluster.health is not None:
        extras["health_probes"] = float(cluster.health.probes)
        extras["health_failures_detected"] = float(cluster.health.failures_detected)
    return ChaosResult(
        summary=cluster.summarize(),
        per_replica=cluster.per_replica_summaries(),
        conservation=cluster.router.conservation(),
        faults=injector.summary(),
        fleet_failures=cluster.failures,
        fleet_restarts=cluster.restarts,
        replicas_total=len(cluster.replicas),
        replicas_routable=len(cluster.routable_replicas()),
        drained=stats.drained,
        extras=extras,
        stability_ttft=stability_ttft,
        kv=cluster.kv_ledger(),
        stats=stats,
    )
