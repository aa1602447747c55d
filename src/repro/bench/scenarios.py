"""Agentic & RAG scenarios study: routing, tool-pauses, profile replay.

Three questions, one deterministic report (``python -m repro study scenarios``):

* **RAG routing.**  A fleet serving the RAG workload — Zipf-popular shared
  document prefixes with per-query retrieval fan-out — under round-robin
  vs prefix-affinity routing.  Affinity follows the radix cache, so it
  must win on fleet cache hit rate (verdict ``affinity_wins_cache``).
* **Agentic tool-pauses.**  MuxWise (one multiplexed node) vs SGLang-style
  disaggregation on the agentic loop, with external tool delays on vs off.
  The two workloads carry *identical token shapes* (the generator draws
  delays as scaled unit exponentials), so any change in the mux-minus-
  disagg goodput gap is attributable to the pauses alone: idle-KV
  retention pressure and bursty resumes load the two architectures
  differently (verdict ``pause_shifts_gap``).
* **Profile self-calibration.**  Capture a latency profile from a roofline
  chunked-prefill run, replay it through :class:`ProfiledCostModel`, and
  compare summary metrics.  The round trip must land within
  ``CALIBRATION_TOLERANCE`` (verdict ``calibration_ok``) — the bound a
  real deployment's profile inherits when replayed here.

Deterministic: same (scale, seed) → byte-identical :meth:`as_dict`
payload.  The CI ``study-smoke`` job runs the CLI twice, diffs the
bytes, and asserts all three verdicts; the ``agentic_rag`` perf scenario
fingerprints the same payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import ChunkedPrefillServer, SGLangPDServer
from repro.bench.fleet import run_fleet
from repro.bench.runner import RunStats, run_system
from repro.cluster import FleetConfig
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.profiles import capture_profile
from repro.serving.config import ServingConfig
from repro.workloads import agentic_workload, rag_workload, sharegpt_workload

#: RAG routing leg: fleet size, workload size and rate at scale 1.0.
RAG_REPLICAS = 4
RAG_REQUESTS = 160
RAG_RATE = 6.0
ROUTING_POLICIES = ("round-robin", "prefix-affinity")

#: Agentic leg: sessions and aggregate rate at scale 1.0, and the external
#: tool delay of the "paused" mode (the "instant" mode uses 0.0).
AGENTIC_SESSIONS = 36
AGENTIC_RATE = 2.0
AGENTIC_TOOL_DELAY = 4.0

#: Calibration leg: source workload size/rate at scale 1.0 and the replay
#: tolerance — every compared metric's replay/roofline ratio must sit in
#: [1 - tol, 1 + tol].
CALIBRATION_REQUESTS = 80
CALIBRATION_RATE = 4.0
CALIBRATION_TOLERANCE = 0.35
CALIBRATION_METRICS = ("useful_throughput", "ttft_p50", "tbt_p50", "e2e_p50")

#: Minimum relative shift of the mux-minus-disagg gap (normalised by the
#: instant-tools gap magnitude) for the pause verdict.
PAUSE_GAP_MIN_SHIFT = 0.10


@dataclass(frozen=True)
class RoutingPoint:
    """One routing policy serving the RAG workload."""

    policy: str
    cache_hit_rate: float
    useful_throughput: float
    ttft_p50: float
    requests_finished: int

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "cache_hit_rate": self.cache_hit_rate,
            "useful_throughput": self.useful_throughput,
            "ttft_p50": self.ttft_p50,
            "requests_finished": self.requests_finished,
        }


@dataclass(frozen=True)
class PausePoint:
    """Mux vs disagg on the agentic workload in one tool-delay mode."""

    mode: str
    tool_delay_mean: float
    mux_useful_throughput: float
    disagg_useful_throughput: float
    mux_ttft_p99: float
    disagg_ttft_p99: float

    @property
    def gap(self) -> float:
        """Mux advantage in useful tokens/sec (positive → mux wins)."""
        return self.mux_useful_throughput - self.disagg_useful_throughput

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "tool_delay_mean": self.tool_delay_mean,
            "mux_useful_throughput": self.mux_useful_throughput,
            "disagg_useful_throughput": self.disagg_useful_throughput,
            "mux_ttft_p99": self.mux_ttft_p99,
            "disagg_ttft_p99": self.disagg_ttft_p99,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class CalibrationMetric:
    """One summary metric of the roofline run vs its profile replay."""

    metric: str
    roofline: float
    replay: float

    @property
    def ratio(self) -> float:
        if self.roofline == 0.0:
            return float("nan")
        return self.replay / self.roofline

    def as_dict(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "roofline": self.roofline,
            "replay": self.replay,
            "ratio": self.ratio,
        }


@dataclass
class ScenariosStudy:
    """The full agentic/RAG report with its three verdicts."""

    routing: list[RoutingPoint]
    pauses: list[PausePoint]
    calibration: list[CalibrationMetric]
    replay_finished: bool
    extras: dict[str, float] = field(default_factory=dict)

    def _routing_point(self, policy: str) -> RoutingPoint:
        for point in self.routing:
            if point.policy == policy:
                return point
        raise KeyError(policy)

    def _pause_point(self, mode: str) -> PausePoint:
        for point in self.pauses:
            if point.mode == mode:
                return point
        raise KeyError(mode)

    @property
    def affinity_wins_cache(self) -> bool:
        """Prefix-affinity routing beats round-robin on RAG cache hits."""
        return (
            self._routing_point("prefix-affinity").cache_hit_rate
            > self._routing_point("round-robin").cache_hit_rate
        )

    @property
    def pause_shifts_gap(self) -> bool:
        """Tool pauses move the mux-vs-disagg goodput gap materially.

        The shift is normalised by the mean observed throughput so the
        verdict is scale-invariant; its *direction* is data (reported in
        the payload), not part of the verdict.
        """
        paused = self._pause_point("paused")
        instant = self._pause_point("instant")
        norm = max(1.0, abs(instant.gap))
        return abs(paused.gap - instant.gap) / norm >= PAUSE_GAP_MIN_SHIFT

    @property
    def calibration_ok(self) -> bool:
        """Profile replay reproduces the roofline run within tolerance."""
        if not self.replay_finished or not self.calibration:
            return False
        for point in self.calibration:
            ratio = point.ratio
            if ratio != ratio or abs(ratio - 1.0) > CALIBRATION_TOLERANCE:
                return False
        return True

    def as_dict(self) -> dict[str, object]:
        return {
            "routing": [p.as_dict() for p in self.routing],
            "pauses": [p.as_dict() for p in self.pauses],
            "calibration": [p.as_dict() for p in self.calibration],
            "calibration_tolerance": CALIBRATION_TOLERANCE,
            "replay_finished": self.replay_finished,
            "verdicts": {
                "affinity_wins_cache": self.affinity_wins_cache,
                "pause_shifts_gap": self.pause_shifts_gap,
                "calibration_ok": self.calibration_ok,
            },
            "extras": dict(sorted(self.extras.items())),
        }


def _routing_leg(scale: float, seed: int, stats: list[RunStats]) -> list[RoutingPoint]:
    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    points = []
    for policy in ROUTING_POLICIES:
        # Regenerated per run: segment uids are process-global, so sharing
        # one workload object across simulators would be unsound.
        workload = rag_workload(max(24, int(RAG_REQUESTS * scale)), rate=RAG_RATE, seed=seed)
        result = run_fleet(
            ChunkedPrefillServer, cfg, workload, FleetConfig(replicas=RAG_REPLICAS, policy=policy)
        )
        stats.append(result.stats)
        points.append(
            RoutingPoint(
                policy=policy,
                cache_hit_rate=result.cache_hit_rate,
                useful_throughput=result.summary.useful_throughput,
                ttft_p50=result.summary.ttft_p50,
                requests_finished=result.summary.requests_finished,
            )
        )
    return points


def _pause_leg(scale: float, seed: int, stats: list[RunStats]) -> list[PausePoint]:
    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=2)
    sessions = max(8, int(AGENTIC_SESSIONS * scale))
    points = []
    for mode, delay in (("instant", 0.0), ("paused", AGENTIC_TOOL_DELAY)):
        results = {}
        for system, factory in (("mux", MuxWiseServer), ("disagg", SGLangPDServer)):
            workload = agentic_workload(
                sessions, AGENTIC_RATE, seed=seed, tool_delay_mean=delay
            )
            result = run_system(factory, cfg, workload)
            stats.append(result.stats)
            results[system] = result
        points.append(
            PausePoint(
                mode=mode,
                tool_delay_mean=delay,
                mux_useful_throughput=results["mux"].summary.useful_throughput,
                disagg_useful_throughput=results["disagg"].summary.useful_throughput,
                mux_ttft_p99=results["mux"].summary.ttft_p99,
                disagg_ttft_p99=results["disagg"].summary.ttft_p99,
            )
        )
    return points


def _calibration_leg(
    scale: float, seed: int, stats: list[RunStats]
) -> tuple[list[CalibrationMetric], bool]:
    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    requests = max(16, int(CALIBRATION_REQUESTS * scale))
    capture = capture_profile(
        ChunkedPrefillServer,
        cfg,
        sharegpt_workload(requests, rate=CALIBRATION_RATE, seed=seed),
        name="scenarios-calibration",
    )
    replay_cfg = ServingConfig(
        model=LLAMA_8B, spec=A100, n_gpus=1, cost_profile=capture.profile
    )
    replay = run_system(
        ChunkedPrefillServer,
        replay_cfg,
        sharegpt_workload(requests, rate=CALIBRATION_RATE, seed=seed),
    )
    stats += [capture.result.stats, replay.stats]
    metrics = [
        CalibrationMetric(
            metric=name,
            roofline=getattr(capture.summary, name),
            replay=getattr(replay.summary, name),
        )
        for name in CALIBRATION_METRICS
    ]
    finished = replay.summary.requests_finished >= replay.summary.requests_total
    return metrics, finished


def run_scenarios_study(scale: float = 1.0, seed: int = 0) -> ScenariosStudy:
    """Run all three legs and fold them into one deterministic report."""
    stats: list[RunStats] = []
    routing = _routing_leg(scale, seed, stats)
    pauses = _pause_leg(scale, seed, stats)
    calibration, replay_finished = _calibration_leg(scale, seed, stats)
    return ScenariosStudy(
        routing=routing,
        pauses=pauses,
        calibration=calibration,
        replay_finished=replay_finished,
        extras=sum(stats, RunStats()).as_extras(),
    )
