"""Wall-clock performance harness for the simulator itself.

Every experiment in this repository is bounded by how fast the
discrete-event core executes, so the simulator's own throughput is a
first-class benchmark: :func:`run_perf` times a set of canonical scenarios
(a single-system goodput run, a 4-replica fleet, a chaos run with fault
injection) and reports events/sec, peak event-queue size and wall-clock
per scenario.

Two kinds of numbers come out, with very different stability contracts:

* **Fingerprints** — a SHA-256 digest of each scenario's *simulation
  results* (summaries, utilisations, conservation ledgers, event counts,
  queue high-water marks).  These are byte-stable across runs and across
  optimisation work: the whole point of the perf effort is that making
  the core faster must not change what it computes.  The CI ``perf-smoke``
  job runs the harness twice and diffs the fingerprints.
* **Timings** — wall-clock seconds and derived events/sec.  These vary
  with the machine; the committed ``BENCH_perf.json`` baseline is compared
  with a generous regression threshold (default 2x) rather than exactly.

Each scenario also reports the deterministic decode fast-loop work
counters of every simulator it built (:class:`repro.sim.WorkCounters`).
They say how a result was computed, not what it is, so they are printed
next to the event count but kept out of fingerprints and the JSON report.
With ``by_kind`` (``repro perf --by-kind``) the heap pushes and cancels are
also split by the scheduled callback's qualified name; the tally wraps
``Simulator.schedule_at`` and ``Simulator._note_cancelled`` only while such
a run lasts.

Request/segment ids are process-global counters, so fingerprints never
include raw ids — only id-free aggregates, which are invariant under the
id offsets two scenarios in one process produce.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.baselines import ChunkedPrefillServer
from repro.bench.chaos import _jsonable, run_chaos
from repro.bench.fleet import run_fleet
from repro.bench.runner import run_system
from repro.bench.tenancy import (
    brownout_fleet,
    noisy_neighbor_workload,
    run_tenancy_mode,
    study_tenancy_config,
)
from repro.cluster import FleetConfig, HealthConfig
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.sim import Simulator, WorkCounters, collect_counters
from repro.workloads import sharegpt_workload

#: Schema version of BENCH_perf.json; bump on incompatible layout changes.
SCHEMA_VERSION = 1


def _digest(payload) -> str:
    """Canonical SHA-256 over a JSON-able result payload."""
    canon = json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _default_config() -> ServingConfig:
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #


def _scenario_single(scale: float):
    """One ServingSystem under a goodput-style load (the Fig. 15 shape)."""
    cfg = _default_config()
    workload = sharegpt_workload(max(8, int(200 * scale)), rate=6.0, seed=13)
    result = run_system(ChunkedPrefillServer, cfg, workload)
    payload = {
        "summary": result.summary.as_dict(),
        "cache_hit_rate": result.cache_hit_rate,
        "sm_utilization": result.sm_utilization,
        "bandwidth_utilization": result.bandwidth_utilization,
        "extras": result.extras,
    }
    return payload, result.extras


def _scenario_fleet(scale: float):
    """The acceptance scenario: a 4-replica fleet behind prefix-affinity."""
    cfg = _default_config()
    workload = sharegpt_workload(max(16, int(800 * scale)), rate=12.0, seed=13)
    result = run_fleet(
        ChunkedPrefillServer, cfg, workload, FleetConfig(replicas=4, policy="prefix-affinity")
    )
    payload = {
        "summary": result.summary.as_dict(),
        "per_replica": {n: s.as_dict() for n, s in sorted(result.per_replica.items())},
        "cache_hit_rate": result.cache_hit_rate,
        "sm_utilization": result.sm_utilization,
        "bandwidth_utilization": result.bandwidth_utilization,
        "requests_shed": result.requests_shed,
        "router_decisions": result.router_decisions,
        "extras": result.extras,
    }
    return payload, result.extras


def _scenario_chaos(scale: float):
    """A faulted 4-replica fleet; fingerprints the full chaos report."""
    cfg = _default_config()
    workload = sharegpt_workload(max(8, int(150 * scale)), rate=8.0, seed=0)
    result = run_chaos(
        ChunkedPrefillServer,
        cfg,
        workload,
        fleet=FleetConfig(replicas=4, policy="round-robin", health=HealthConfig()),
    )
    # The chaos report *bytes* are the replay contract — digest them whole.
    payload = {"report": result.to_json()}
    return payload, result.extras


def _scenario_tenancy(scale: float):
    """WFQ + tiered brownout under the noisy-neighbor workload.

    Exercises the tenancy stack end to end — tagged workload, weighted
    fair queue, tiered admission, per-tier slicing — and fingerprints the
    full per-tier report.
    """
    tenancy = study_tenancy_config()
    cfg = ServingConfig(
        model=LLAMA_8B, spec=A100, n_gpus=1, queue_policy="wfq", tenancy=tenancy
    )
    workload = noisy_neighbor_workload(scale=scale * 0.5, seed=0)
    fleet = brownout_fleet(tenancy)
    result = run_tenancy_mode(
        ChunkedPrefillServer, cfg, workload, tenancy, fleet, mode="wfq+brownout"
    )
    return result.as_dict(), result.extras


def _study_scenario(name: str) -> Callable:
    """The registered study ``name`` at seed 0; fingerprints its full report."""

    def scenario(scale: float):
        # Imported on first use: the study modules stay off `import repro`.
        from repro.bench.studies import STUDIES

        report = STUDIES[name].run(scale, 0)
        return report.as_dict(), report.extras

    return scenario


SCENARIOS: dict[str, Callable] = {
    "single_goodput": _scenario_single,
    "fleet_4_replicas": _scenario_fleet,
    "chaos_4_replicas": _scenario_chaos,
    "tenancy_wfq_brownout": _scenario_tenancy,
    "kv_tiers": _study_scenario("kvtiers"),
    "spec_decoding": _study_scenario("spec"),
    "hetero_fleet": _study_scenario("hetero"),
    "agentic_rag": _study_scenario("scenarios"),
}

#: The two fastest scenarios — what the scale tiers (and the CI
#: ``scale-smoke`` job) run, so a 10x workload still finishes in seconds.
SMOKE_SCENARIOS: tuple[str, ...] = ("single_goodput", "tenancy_wfq_brownout")

#: Named workload-scale tiers.  Both are committed to ``BENCH_perf.json``
#: (under ``tiers``) and diffed by CI; the ``"100"`` tier is where a
#: per-operation cost that grows with the workload (such as a full-tree
#: scan per eviction) shows up as a throughput cliff.
TIER_SCALES: dict[str, float] = {"10": 10.0, "100": 100.0}


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class ScenarioTiming:
    """One timed scenario: deterministic fingerprint + machine timings.

    ``counters`` totals the fast-loop work counters of the scenario's
    simulators (see :class:`repro.sim.WorkCounters`); deterministic, but
    not part of :meth:`PerfReport.fingerprints`.
    """

    name: str
    fingerprint: str
    events: int
    peak_event_queue: int
    wall_s: float
    counters: dict[str, int] = field(default_factory=dict)
    #: ``{"pushes": {kind: n}, "cancels": {kind: n}}`` when run ``by_kind``.
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput in events per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s


@dataclass
class PerfReport:
    """Outcome of one harness invocation.

    ``tiers`` holds nested reports for additional workload scales (see
    :data:`TIER_SCALES`); they appear in :meth:`to_json` under a
    ``"tiers"`` key and are compared tier-by-tier by
    :meth:`compare_results` / :meth:`compare_timings`.
    """

    scenarios: dict[str, ScenarioTiming] = field(default_factory=dict)
    scale: float = 1.0
    tiers: dict[str, "PerfReport"] = field(default_factory=dict)

    def fingerprints(self) -> dict[str, dict]:
        """The deterministic view: identical bytes for identical results."""
        return {
            name: {
                "fingerprint": s.fingerprint,
                "events": s.events,
                "peak_event_queue": s.peak_event_queue,
            }
            for name, s in sorted(self.scenarios.items())
        }

    def fingerprint_json(self) -> str:
        """Deterministic JSON of :meth:`fingerprints` (the CI diff target)."""
        return json.dumps(
            {"schema": SCHEMA_VERSION, "scale": self.scale, "results": self.fingerprints()},
            sort_keys=True,
        )

    def _payload(self) -> dict:
        payload = {
            "scale": self.scale,
            "results": self.fingerprints(),
            "timings": {
                name: {
                    "wall_s": round(s.wall_s, 4),
                    "events_per_sec": round(s.events_per_sec, 1),
                }
                for name, s in sorted(self.scenarios.items())
            },
        }
        if self.tiers:
            payload["tiers"] = {
                name: tier._payload() for name, tier in sorted(self.tiers.items())
            }
        return payload

    def to_json(self, indent: int = 2) -> str:
        """Full report: fingerprints plus machine-dependent timings."""
        payload = {"schema": SCHEMA_VERSION, **self._payload()}
        return json.dumps(payload, sort_keys=True, indent=indent) + "\n"

    def compare_results(self, baseline: dict) -> list[str]:
        """Fingerprint mismatches against a parsed baseline report.

        Tiers present in both reports are compared recursively; a tier
        only in the baseline is reported missing wholesale.
        """
        problems = []
        ours = self.fingerprints()
        for name, theirs in sorted(baseline.get("results", {}).items()):
            mine = ours.get(name)
            if mine is None:
                problems.append(f"{name}: scenario missing from this run")
            elif mine != theirs:
                problems.append(f"{name}: result fingerprint changed: {theirs} -> {mine}")
        for name, tier_baseline in sorted(baseline.get("tiers", {}).items()):
            tier = self.tiers.get(name)
            if tier is None:
                problems.append(f"tier {name}: missing from this run")
            else:
                problems += [f"tier {name}: {p}" for p in tier.compare_results(tier_baseline)]
        return problems

    def compare_timings(self, baseline: dict, max_regression: float) -> list[str]:
        """Wall-clock regressions beyond ``max_regression``x the baseline."""
        problems = []
        for name, theirs in sorted(baseline.get("timings", {}).items()):
            mine = self.scenarios.get(name)
            base_wall = theirs.get("wall_s", 0.0)
            if mine is None or base_wall <= 0:
                continue
            if mine.wall_s > base_wall * max_regression:
                problems.append(
                    f"{name}: wall-clock {mine.wall_s:.2f}s exceeds "
                    f"{max_regression:.1f}x baseline {base_wall:.2f}s"
                )
        for name, tier_baseline in sorted(baseline.get("tiers", {}).items()):
            tier = self.tiers.get(name)
            if tier is not None:
                problems += [
                    f"tier {name}: {p}"
                    for p in tier.compare_timings(tier_baseline, max_regression)
                ]
        return problems


def callback_kind(callback: Callable | None) -> str:
    """The qualified name a push or cancel is tallied under."""
    while isinstance(callback, partial):
        callback = callback.func
    if callback is None:
        return "<none>"
    return getattr(callback, "__qualname__", type(callback).__qualname__)


@contextmanager
def count_by_kind() -> Iterator[dict[str, Counter]]:
    """Tally heap pushes and cancels by callback kind inside the block.

    Wraps ``Simulator.schedule_at`` (every counted push goes through it)
    and ``Simulator._note_cancelled`` (every counted cancel), and restores
    both on exit, so runs without the tally pay nothing.
    """
    tally = {"pushes": Counter(), "cancels": Counter()}
    schedule_at = Simulator.schedule_at
    note_cancelled = Simulator._note_cancelled
    pushes = tally["pushes"]
    cancels = tally["cancels"]

    def counted_schedule_at(self, time, callback, *args, **kwargs):
        event = schedule_at(self, time, callback, *args, **kwargs)
        pushes[callback_kind(callback)] += 1
        return event

    def counted_note_cancelled(self, event):
        cancels[callback_kind(event.callback)] += 1
        note_cancelled(self, event)

    Simulator.schedule_at = counted_schedule_at
    Simulator._note_cancelled = counted_note_cancelled
    try:
        yield tally
    finally:
        Simulator.schedule_at = schedule_at
        Simulator._note_cancelled = note_cancelled


def run_perf(
    scenarios: list[str] | None = None,
    scale: float = 1.0,
    repeats: int = 1,
    tiers: list[str] | None = None,
    by_kind: bool = False,
) -> PerfReport:
    """Time the canonical scenarios and fingerprint their results.

    ``scale`` shrinks or grows every scenario's workload (CI smoke uses a
    small scale); ``repeats`` re-runs each scenario and keeps the fastest
    wall-clock (fingerprints must agree across repeats — a mismatch means
    the simulation is non-deterministic, which is itself a bug).
    ``tiers`` names entries of :data:`TIER_SCALES` to additionally run at
    their scale, restricted to :data:`SMOKE_SCENARIOS` (the fast ones — tiers
    exist to measure how throughput holds up as workloads grow, not to
    re-run the slowest studies 10x larger).  ``by_kind`` splits each
    scenario's pushes and cancels by callback kind (:func:`count_by_kind`).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for tier in tiers or []:
        if tier not in TIER_SCALES:
            raise ValueError(f"unknown tier {tier!r}; choose from {sorted(TIER_SCALES)}")
    names = list(SCENARIOS) if scenarios is None else scenarios
    report = PerfReport(scale=scale)
    for name in names:
        try:
            scenario = SCENARIOS[name]
        except KeyError:
            raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
        best: ScenarioTiming | None = None
        for _ in range(repeats):
            tally_kinds = count_by_kind() if by_kind else nullcontext({})
            with collect_counters() as counters, tally_kinds as kinds:
                start = time.perf_counter()
                payload, extras = scenario(scale)
                wall = time.perf_counter() - start
            timing = ScenarioTiming(
                name=name,
                fingerprint=_digest(payload),
                events=int(extras.get("events_processed", 0)),
                peak_event_queue=int(extras.get("peak_event_queue", 0)),
                wall_s=wall,
                counters=WorkCounters.total(counters),
                by_kind={name: dict(tally) for name, tally in kinds.items()},
            )
            if best is not None and best.fingerprint != timing.fingerprint:
                raise RuntimeError(
                    f"scenario {name!r} is non-deterministic across repeats: "
                    f"{best.fingerprint} != {timing.fingerprint}"
                )
            if best is None or timing.wall_s < best.wall_s:
                best = timing
        assert best is not None
        report.scenarios[name] = best
    for tier in tiers or []:
        report.tiers[tier] = run_perf(
            scenarios=list(SMOKE_SCENARIOS),
            scale=TIER_SCALES[tier],
            repeats=repeats,
            by_kind=by_kind,
        )
    return report
