"""Experiment runner: one (system, workload) execution with diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.serving.base import ServingSystem, iter_instances
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary
from repro.sim import Simulator, SimulationError, make_sim
from repro.trace import Tracer
from repro.workloads.request import Workload

Built = TypeVar("Built")

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


class StabilityVerdict:
    """The instability proxy and goodput criterion shared by run results.

    Mixed into result dataclasses that carry a ``summary`` and a
    ``stability_ttft`` ceiling.
    """

    summary: Summary
    stability_ttft: float

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


@dataclass(frozen=True)
class RunStats:
    """Simulator load of one run; ``+`` folds runs (events add).

    ``drained`` is true when the run ended with no productive event
    pending (bounded termination rather than the time horizon cutting
    work off); a sum is drained only if every run was.  The heap's
    high-water mark is not a result (see ``Simulator.max_event_queue``);
    it is the ``peak_queue`` work counter.
    """

    events: int = 0
    drained: bool = True

    def __add__(self, other: "RunStats") -> "RunStats":
        return RunStats(
            events=self.events + other.events,
            drained=self.drained and other.drained,
        )

    def as_extras(self) -> dict[str, float]:
        """The ``events_processed`` result key."""
        return {"events_processed": float(self.events)}


@dataclass
class RunResult(StabilityVerdict):
    """Outcome of one serving run."""

    summary: Summary
    cache_hit_rate: float
    sm_utilization: float
    bandwidth_utilization: float
    extras: dict[str, float] = field(default_factory=dict)
    stability_ttft: float = STABILITY_TTFT
    stats: RunStats = RunStats()

    @classmethod
    def of(
        cls, system: ServingSystem, stats: RunStats, stability_ttft: float = STABILITY_TTFT
    ) -> "RunResult":
        """Summarise a system that :func:`simulate` ran."""
        return cls(
            summary=system.metrics.summarize(),
            cache_hit_rate=_cache_hit_rate(system),
            sm_utilization=_sm_utilization(system),
            bandwidth_utilization=_bw_utilization(system),
            extras={**_extras(system), **stats.as_extras()},
            stability_ttft=stability_ttft,
            stats=stats,
        )


SystemFactory = Callable[[Simulator, ServingConfig], ServingSystem]


def run_capped(sim: Simulator, until: float | None) -> None:
    """``sim.run(until)`` under the :data:`MAX_EVENTS` cap, failing loudly.

    Every harness runs its simulation through here.  A run that stops on
    the cap while productive work is still pending is a scheduling bug (a
    livelock or runaway re-scheduling), and its truncated results must not
    pass for a finished run: raise :class:`SimulationError` naming the
    event count, the simulated time and the head event's callback.
    """
    fired_before = sim.processed_events
    sim.run(until=until, max_events=MAX_EVENTS)
    fired = sim.processed_events - fired_before
    if fired < MAX_EVENTS or sim.pending_productive == 0:
        return
    head = sim.peek_event()
    callback = getattr(head.callback, "__qualname__", repr(head.callback))
    raise SimulationError(
        f"simulation hit the {MAX_EVENTS}-event cap with work pending: "
        f"{fired} events fired, stopped at t={sim.now!r}, "
        f"head event at t={head.time!r} runs {callback}"
    )


def simulate(
    build: Callable[[Simulator], Built],
    workload: Workload,
    *,
    tracer: Tracer | None = None,
    drain_horizon: float = DRAIN_HORIZON,
    not_before: float = 0.0,
) -> tuple[Built, RunStats]:
    """Build a system (or fleet) in a fresh simulator and play ``workload``.

    The one way every harness runs a simulation: a tracer, if given, is
    attached before ``build``, so the trace also holds what construction
    emits (every layer reads ``sim.tracer`` live, so a later attach
    records the rest just the same).  The run is cut
    :data:`DRAIN_HORIZON` (or ``drain_horizon``) simulated seconds after
    the later of the last arrival and ``not_before``, under the
    :func:`run_capped` event cap.  Returns what ``build`` made, for the
    caller to summarise, and the run's :class:`RunStats`.
    """
    sim = make_sim()
    if tracer is not None:
        sim.attach_tracer(tracer)
    system = build(sim)
    system.submit(workload)
    last_arrival = workload.requests[-1].arrival_time if len(workload) else 0.0
    run_capped(sim, max(last_arrival, not_before) + drain_horizon)
    stats = RunStats(events=sim.processed_events, drained=sim.pending_productive == 0)
    return system, stats


def run_system(
    factory: SystemFactory,
    cfg: ServingConfig,
    workload: Workload,
    drain_horizon: float = DRAIN_HORIZON,
    tracer: Tracer | None = None,
    stability_ttft: float = STABILITY_TTFT,
) -> RunResult:
    """Run ``workload`` through a freshly built system and summarise.

    Pass a :class:`repro.trace.Tracer` to record an event timeline.
    ``drain_horizon`` and ``stability_ttft`` override the module defaults
    for long-tail workloads or fleet runs with their own stability criteria.
    """
    system, stats = simulate(
        lambda sim: factory(sim, cfg), workload, tracer=tracer, drain_horizon=drain_horizon
    )
    return RunResult.of(system, stats, stability_ttft)


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
