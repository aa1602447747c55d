"""Experiment runner: one (system, workload) execution with diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.serving.base import ServingSystem, iter_instances
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary
from repro.sim import Simulator, make_sim
from repro.trace import Tracer
from repro.workloads.request import Workload

#: Safety cap on simulator events per run (guards against scheduling bugs).
MAX_EVENTS = 20_000_000
#: Default extra simulated time allowed after the last arrival before a run
#: is cut (override per run via ``run_system(..., drain_horizon=...)``).
DRAIN_HORIZON = 3600.0
#: Default TTFT ceiling used as the instability proxy: once P99 TTFT exceeds
#: this, the system's queue is diverging and the paper would mark it
#: unstable.  Long-tail workloads and fleet runs can pass their own ceiling
#: via ``run_system(..., stability_ttft=...)``.
STABILITY_TTFT = 30.0


@dataclass
class RunResult:
    """Outcome of one serving run."""

    summary: Summary
    cache_hit_rate: float
    sm_utilization: float
    bandwidth_utilization: float
    extras: dict[str, float] = field(default_factory=dict)
    stability_ttft: float = STABILITY_TTFT

    @property
    def stable(self) -> bool:
        """Heuristic stability: all requests done, queues not diverging."""
        s = self.summary
        if s.requests_total == 0:
            # An empty run trivially never diverged; without this guard the
            # finished>=total check is vacuous and the NaN TTFT would mark
            # the run unstable.
            return True
        done = s.requests_finished >= s.requests_total * 0.99
        ttft_ok = not math.isnan(s.ttft_p99) and s.ttft_p99 <= self.stability_ttft
        return done and ttft_ok

    @property
    def meets_slo(self) -> bool:
        """Stable AND P99 TBT within the SLO (the goodput criterion)."""
        return self.stable and self.summary.slo_met


SystemFactory = Callable[[Simulator, ServingConfig], ServingSystem]


def run_system(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    drain_horizon: float = DRAIN_HORIZON,
    tracer: Tracer | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> RunResult:
    """Run ``workload`` through a freshly built system and summarise.

    Pass a :class:`repro.trace.Tracer` to record an event timeline; it is
    attached before the system is built so every layer's hooks see it.
    ``drain_horizon`` and ``stability_ttft`` override the module defaults
    for long-tail workloads or fleet runs with their own stability criteria.
    """
    sim = make_sim()
    if tracer is not None:
        sim.attach_tracer(tracer)
    system = factory(sim, cfg)
    system.submit(workload)
    last_arrival = workload.requests[-1].arrival_time if len(workload) else 0.0
    sim.run(until=last_arrival + drain_horizon, max_events=MAX_EVENTS)
    summary = system.metrics.summarize()
    extras = _extras(system)
    extras["events_processed"] = float(sim.processed_events)
    extras["peak_event_queue"] = float(sim.max_event_queue)
    return RunResult(
        summary=summary,
        cache_hit_rate=_cache_hit_rate(system),
        sm_utilization=_sm_utilization(system),
        bandwidth_utilization=_bw_utilization(system),
        extras=extras,
        stability_ttft=stability_ttft,
    )


def _cache_hit_rate(system: ServingSystem) -> float:
    hits = requested = 0
    for inst in iter_instances(system):
        hits += inst.cache.stats.tokens_hit
        requested += inst.cache.stats.tokens_requested
    if requested == 0:
        return 0.0
    return hits / requested


def _sm_utilization(system: ServingSystem) -> float:
    utils = [inst.device.sm_utilization() for inst in iter_instances(system)]
    return sum(utils) / len(utils) if utils else 0.0


def _bw_utilization(system: ServingSystem) -> float:
    utils = [inst.device.bandwidth_utilization() for inst in iter_instances(system)]
    return sum(utils) / len(utils) if utils else 0.0


def _extras(system: ServingSystem) -> dict[str, float]:
    extras: dict[str, float] = {}
    engine = getattr(system, "engine", None)
    if engine is not None:
        extras["bubble_ratio"] = engine.bubble_ratio()
        extras["reconfigurations"] = float(engine.reconfigurations)
    return extras
