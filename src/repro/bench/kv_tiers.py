"""KV-tier bandwidth sweep: multiplexing vs disaggregation as transfer cost varies.

Two studies back the tiered-KV work:

* :func:`bandwidth_sweep` pits :class:`~repro.core.server.MuxWiseServer`
  (prefill/decode multiplexed on one node — KV never crosses a link)
  against :class:`~repro.baselines.sglang_pd.SGLangPDServer` (disaggregated
  prefill/decode — every migrated request ships its KV over an
  interconnect) while the interconnect bandwidth varies.  The mux run is
  bandwidth-independent, so it executes once; the disagg run repeats per
  bandwidth with a :class:`~repro.kvcache.transfer.TransferEngine` supplying
  the migration cost.  The expected shape is the paper's motivation:
  multiplexing wins outright at low bandwidth and the gap narrows as the
  link approaches NVLink speeds.
* :func:`failover_restore_study` runs a 2-replica fleet with DRAM/NVMe KV
  tiers under a scripted replica kill.  The tier store is slot-owned (it
  survives the kill), so after restart the replica *restores* demoted
  prefixes instead of recomputing them — the returned ledger's
  ``restored_tokens`` is the acceptance signal.

Both studies are deterministic: same (scale, seed) → identical
:meth:`KVTiersStudy.as_dict` payload, which is what the perf-harness
fingerprint and the CI study-smoke job rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import ChunkedPrefillServer, SGLangPDServer
from repro.bench.chaos import run_chaos
from repro.bench.runner import RunStats, run_system
from repro.cluster import FleetConfig, HealthConfig
from repro.core import MuxWiseServer
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.gpu.specs import A100
from repro.kvcache import TransferConfig, TransferEngine, TransferLink, default_tier_config
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.workloads import conversation_workload

#: Interconnect bandwidths swept (bytes/sec, ascending): commodity TCP,
#: fast Ethernet RDMA, PCIe-class, NVLink-class.
DEFAULT_BANDWIDTHS: tuple[float, ...] = (2e9, 16e9, 128e9, 300e9)

#: Per-hop latency of the modeled interconnect (seconds).
LINK_LATENCY = 50e-6

#: KV pool clamp for the failover study (bytes).  Small enough that the
#: conversation trace overflows HBM and spills into the DRAM/NVMe tiers —
#: without evictions there is nothing to restore after the kill — but
#: comfortably above the trace's largest single context+output footprint:
#: a request that cannot fit *alone* would livelock decode (nothing left
#: to evict once its own lease pins the pool).
FAILOVER_POOL_BYTES = 3 * 1024**3


@dataclass(frozen=True)
class BandwidthPoint:
    """Mux vs disagg at one interconnect bandwidth."""

    bandwidth: float
    mux_useful_throughput: float
    disagg_useful_throughput: float
    mux_ttft_p50: float
    disagg_ttft_p50: float

    @property
    def gap(self) -> float:
        """Mux advantage in useful tokens/sec (positive → mux wins)."""
        return self.mux_useful_throughput - self.disagg_useful_throughput

    def as_dict(self) -> dict[str, float]:
        return {
            "bandwidth": self.bandwidth,
            "mux_useful_throughput": self.mux_useful_throughput,
            "disagg_useful_throughput": self.disagg_useful_throughput,
            "mux_ttft_p50": self.mux_ttft_p50,
            "disagg_ttft_p50": self.disagg_ttft_p50,
            "gap": self.gap,
        }


@dataclass
class KVTiersStudy:
    """Combined bandwidth-sweep + failover-restore report."""

    points: list[BandwidthPoint]
    failover: dict[str, int]
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def crossover(self) -> bool:
        """Mux wins at the lowest bandwidth and the gap narrows at the top."""
        if len(self.points) < 2:
            return False
        first, last = self.points[0], self.points[-1]
        return first.gap > 0 and last.gap < first.gap

    def as_dict(self) -> dict[str, object]:
        return {
            "points": [p.as_dict() for p in self.points],
            "crossover": self.crossover,
            "failover": dict(sorted(self.failover.items())),
            "extras": dict(sorted(self.extras.items())),
        }


def _sweep_config() -> ServingConfig:
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=2)


def _sweep_workload(scale: float, seed: int):
    return conversation_workload(max(6, int(120 * scale)), request_rate=4.0, seed=seed)


def bandwidth_sweep(
    scale: float = 1.0, seed: int = 0
) -> tuple[list[BandwidthPoint], RunStats]:
    """Mux (once) vs disagg (per bandwidth) on the conversation trace.

    The workload is regenerated per run from the same seed: request ids are
    process-global counters, so reuse across simulators would be unsound,
    but the arrival/token shapes are identical — the comparison is
    apples-to-apples.
    """
    cfg = _sweep_config()
    mux = run_system(MuxWiseServer, cfg, _sweep_workload(scale, seed))
    stats = mux.stats

    points: list[BandwidthPoint] = []
    for bandwidth in DEFAULT_BANDWIDTHS:
        engine = TransferEngine(
            TransferConfig(
                links=(TransferLink("interconnect", bandwidth, LINK_LATENCY),)
            ),
            cfg.model.kv_bytes_per_token,
        )
        disagg = run_system(
            lambda sim, c, eng=engine: SGLangPDServer(sim, c, transfer=eng),
            cfg,
            _sweep_workload(scale, seed),
        )
        stats += disagg.stats
        points.append(
            BandwidthPoint(
                bandwidth=bandwidth,
                mux_useful_throughput=mux.summary.useful_throughput,
                disagg_useful_throughput=disagg.summary.useful_throughput,
                mux_ttft_p50=mux.summary.ttft_p50,
                disagg_ttft_p50=disagg.summary.ttft_p50,
            )
        )
    return points, stats


def failover_restore_study(scale: float = 1.0, seed: int = 0) -> dict[str, int]:
    """Kill a tiered replica mid-trace; count restored vs recomputed tokens.

    The fleet runs 2 replicas behind prefix-affinity with DRAM/NVMe tiers
    and cross-replica transfer enabled, HBM clamped small enough that the
    radix cache demotes prefixes into the tiers before the kill fires.
    ``r0``'s tiers survive the kill (slot-owned), so the restarted replica
    promotes them back instead of recomputing — ``restored_tokens`` in the
    returned ledger proves it.
    """
    cfg = ServingConfig(
        model=LLAMA_8B,
        spec=A100,
        n_gpus=1,
        kv_tiers=default_tier_config(),
        kv_pool_limit_bytes=FAILOVER_POOL_BYTES,
    )
    fleet = FleetConfig(
        replicas=2,
        policy="prefix-affinity",
        health=HealthConfig(),
        transfer=TransferConfig(),
    )
    # Floor of 20 sessions: the restore path needs sessions whose prefixes
    # were demoted *before* the kill and whose next turn lands *after* the
    # restart — too thin a trace and no session straddles the window.
    workload = conversation_workload(max(20, int(60 * scale)), request_rate=3.0, seed=seed)
    last_arrival = workload.requests[-1].arrival_time if len(workload) else 1.0
    plan = FaultPlan(
        specs=(
            FaultSpec(
                at=max(0.5, 0.4 * last_arrival),
                kind=FaultKind.REPLICA_KILL,
                target="r0",
                restart_after=0.5,
            ),
        )
    )
    result = run_chaos(ChunkedPrefillServer, cfg, workload, fleet, plan)
    ledger = dict(result.kv or {})
    ledger["requests_finished"] = int(result.summary.requests_finished)
    ledger["drained"] = int(result.drained)
    ledger["events_processed"] = result.stats.events
    return ledger


def run_kv_tiers_study(scale: float = 1.0, seed: int = 0) -> KVTiersStudy:
    """Run both studies and fold them into one deterministic report."""
    points, stats = bandwidth_sweep(scale, seed)
    failover = failover_restore_study(scale, seed)
    stats += RunStats(failover["events_processed"], bool(failover["drained"]))
    return KVTiersStudy(points=points, failover=failover, extras=stats.as_extras())
