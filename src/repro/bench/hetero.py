"""Heterogeneous-fleet cost study: goodput per dollar across SKU mixes.

Three fleets at the same hourly budget serve the same two-tier workload:

* ``h100x2`` — two H100 replicas: the strongest homogeneous option per
  dollar on raw FLOPs.
* ``l40sx8`` — eight L40S replicas: the most replicas per dollar, but
  bandwidth-poor — decode iterations stream the full weights through
  864 GB/s GDDR6, so even relaxed streaming latency is a stretch.
* ``mixed`` — one H200 plus two L40S behind
  :class:`~repro.cluster.router.CostAwareRoutingPolicy` with tier pins:
  interactive traffic rides the big-HBM H200 (one weight stream, 4.8 TB/s),
  batch traffic rides the cheap L40S pair under its relaxed tier SLO.

Goodput here is *tenancy-aware*: each tier's useful tokens are judged
against that tier's scaled SLO (see :data:`STUDY_TENANCY`), exactly the
accounting of :func:`repro.tenancy.accounting.tier_reports`.  The headline
metrics divide that goodput by what the fleet costs: tokens per dollar
(from the SKU hourly prices) and tokens per kWh (from board TDP).

The interactive tier is *realtime-grade*: its TBT target is
``0.36 x`` the deployment SLO (18 ms at the 50 ms 8B default, ~55 tok/s —
voice-agent streaming, not reading speed).  That target is the study's
hinge, and it is a pure hardware-bandwidth fact, measurable per SKU:

* A full 256-token chunked-prefill iteration on an **H100** costs
  ~19.5–20.5 ms (5.6 ms weight stream at 2.85 TB/s effective + ~7.5 ms
  GEMM + KV reads), so every interactive request's own P99 token gap
  lands above 18 ms — H100s cannot sell realtime tokens at any count.
* The same iteration on an **H200** costs ~16.5 ms (3.9 ms weight stream
  at 4.08 TB/s effective, faster KV reads) — comfortably inside 18 ms.
* An **L40S** needs ~100 ms (21.8 ms weight stream through GDDR6 plus an
  81 ms chunk GEMM on 50 TF effective) — out of reach for realtime, yet
  well inside the batch tier's 4x (200 ms) allowance, and at $1/hr the
  L40S is the cheapest qualified batch token in the lineup.

So the homogeneous fleets each forfeit one tier: ``h100x2`` and
``l40sx8`` lose every realtime token to the 18 ms target, while the mixed
fleet serves both tiers inside SLO — interactive isolated on the H200,
batch on the L40S pair.  At equal $/hr that asymmetry, not raw capacity,
is what ``tests/bench/test_hetero.py`` asserts as
``mixed_wins_per_dollar`` (and ``_per_kwh``).

The study is deterministic: same (scale, seed) → identical
:meth:`HeteroStudy.as_dict` payload.  The perf harness fingerprints it and
the CI ``study-smoke`` job diffs two back-to-back runs byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines import ChunkedPrefillServer
from repro.bench.runner import RunStats, simulate
from repro.cluster import CostAwareRoutingPolicy, Fleet, FleetConfig
from repro.gpu.specs import A100, H100, H200, L40S, GPUSpec
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.tenancy.accounting import tier_reports
from repro.tenancy.model import TenancyConfig, TenantClass
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.distributions import BoundedLengths
from repro.workloads.request import Request, Workload, request_id_allocator
from repro.kvcache.radix import new_segment

#: Hourly budget every fleet in the study must match (USD/hr).
BUDGET_USD_PER_HOUR = 8.0

#: Realtime interactive TBT target as a fraction of the deployment SLO:
#: 0.36 x 50 ms = 18 ms (~55 tok/s), between a full chunked-prefill
#: iteration on an H200 (~16.5 ms) and on an H100 (~19.5 ms) — see the
#: module docstring for the per-SKU iteration anatomy.
REALTIME_TBT_SCALE = 0.36


def study_tenancy() -> TenancyConfig:
    """The study's tier ladder: realtime interactive, relaxed batch.

    Identical to :func:`repro.tenancy.model.default_classes` except the
    interactive TBT target is tightened to realtime grade
    (:data:`REALTIME_TBT_SCALE`); batch keeps the canonical 4x TBT / 10x
    TTFT allowance that lets it ride bandwidth-poor SKUs.
    """
    return TenancyConfig(
        classes={
            "interactive": TenantClass(
                "interactive",
                weight=4.0,
                rank=2,
                tbt_scale=REALTIME_TBT_SCALE,
                ttft_scale=0.5,
            ),
            "standard": TenantClass("standard", weight=2.0, rank=1),
            "batch": TenantClass(
                "batch", weight=1.0, rank=0, tbt_scale=4.0, ttft_scale=10.0
            ),
        },
        default_tier="standard",
    )

#: Interactive tier: short prompts, long strict-latency generations —
#: decode-bound, so it wants HBM bandwidth and a single weight stream.
INTERACTIVE_INPUT = BoundedLengths(minimum=16, mean=256, maximum=1024, sigma=1.0)
INTERACTIVE_OUTPUT = BoundedLengths(minimum=64, mean=448, maximum=1536, sigma=0.8)

#: Batch tier: bulk generation (synthetic-data / evaluation harnesses) —
#: throughput-oriented and latency-tolerant, so it can ride cheap parts
#: whose per-iteration weight stream would break the interactive TBT.
BATCH_INPUT = BoundedLengths(minimum=128, mean=1024, maximum=4096, sigma=0.9)
BATCH_OUTPUT = BoundedLengths(minimum=64, mean=512, maximum=1536, sigma=0.8)

#: Fraction of arrivals that are interactive (the rest are batch).
INTERACTIVE_FRACTION = 0.7

#: Aggregate arrival rate (requests/sec).  Sized so the L40S batch
#: partition of the mixed fleet runs busy but below saturation (~65%):
#: over capacity, its drain tail stretches every plan comparison; far
#: under, no fleet is distinguishable.
REQUEST_RATE = 4.0

#: Requests at ``scale=1.0``.
NUM_REQUESTS = 360


@dataclass(frozen=True)
class FleetPlan:
    """One costed fleet shape under study."""

    name: str
    skus: tuple[GPUSpec, ...]
    #: tier → SKU name routing pins for the cost-aware policy (tenancy
    #: tie-in: batch onto cheap SKUs, interactive onto the big-HBM part).
    tier_pins: dict[str, str] | None = None

    @property
    def hourly_cost(self) -> float:
        return sum(spec.price_per_hour for spec in self.skus)

    @property
    def power_kw(self) -> float:
        return sum(spec.tdp_watts for spec in self.skus) / 1000.0


#: The studied fleets.  All cost exactly :data:`BUDGET_USD_PER_HOUR`.
FLEET_PLANS: tuple[FleetPlan, ...] = (
    FleetPlan("h100x2", (H100, H100)),
    FleetPlan("l40sx8", (L40S,) * 8),
    FleetPlan(
        "mixed",
        (H200, L40S, L40S),
        tier_pins={"batch": L40S.name, "interactive": H200.name},
    ),
)


def hetero_workload(scale: float = 1.0, seed: int = 0) -> Workload:
    """Two-tier Poisson mix: interactive chat + batch summarisation.

    One arrival process; each request draws its tier (and token shape)
    from the same seeded RNG, so every fleet plan sees byte-identical
    arrival times and token shapes.
    """
    rng = random.Random(seed)
    ids = request_id_allocator()
    # Floor the trace length: below ~120 requests the study is all warmup
    # (empty decode batches iterate faster than steady state) and drain
    # tail, not the steady-state regime the verdicts are about.
    n = max(120, int(NUM_REQUESTS * scale))
    arrivals = poisson_arrivals(rng, REQUEST_RATE, n)
    requests = []
    for i, t in enumerate(arrivals):
        if rng.random() < INTERACTIVE_FRACTION:
            tenant, tier = "chat", "interactive"
            new_input = new_segment(INTERACTIVE_INPUT.sample(rng))
            output = INTERACTIVE_OUTPUT.sample(rng)
        else:
            tenant, tier = "etl", "batch"
            new_input = new_segment(BATCH_INPUT.sample(rng))
            output = BATCH_OUTPUT.sample(rng)
        requests.append(
            Request(
                session_id=i,
                turn_index=0,
                arrival_time=t,
                history=[],
                new_input=new_input,
                output_tokens=output,
                request_id=next(ids),
                tenant=tenant,
                tier=tier,
            )
        )
    return Workload(name="hetero-two-tier", requests=requests)


@dataclass(frozen=True)
class HeteroPoint:
    """One fleet plan's costed outcome."""

    name: str
    skus: tuple[str, ...]
    hourly_cost: float
    power_kw: float
    requests_finished: int
    tier_goodput: dict[str, float]
    usd_spent: float
    kwh_spent: float

    @property
    def goodput(self) -> float:
        """SLO-qualified useful tokens/sec, each tier under its own SLO."""
        return sum(self.tier_goodput.values())

    @property
    def goodput_per_dollar(self) -> float:
        """SLO-qualified useful tokens per dollar of fleet time."""
        return self.goodput * 3600.0 / self.hourly_cost

    @property
    def goodput_per_kwh(self) -> float:
        """SLO-qualified useful tokens per provisioned kWh."""
        return self.goodput * 3600.0 / self.power_kw

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "skus": list(self.skus),
            "hourly_cost": self.hourly_cost,
            "power_kw": self.power_kw,
            "requests_finished": self.requests_finished,
            "tier_goodput": dict(sorted(self.tier_goodput.items())),
            "goodput": self.goodput,
            "goodput_per_dollar": self.goodput_per_dollar,
            "goodput_per_kwh": self.goodput_per_kwh,
            "usd_spent": self.usd_spent,
            "kwh_spent": self.kwh_spent,
        }


@dataclass
class HeteroStudy:
    """Equal-budget SKU-mix comparison."""

    points: list[HeteroPoint]
    extras: dict[str, float] = field(default_factory=dict)

    def point(self, name: str) -> HeteroPoint:
        for point in self.points:
            if point.name == name:
                return point
        raise KeyError(name)

    @property
    def equal_budget(self) -> bool:
        """Every plan costs the same per hour (the study's premise)."""
        costs = {round(p.hourly_cost, 6) for p in self.points}
        return len(costs) == 1

    @property
    def mixed_wins_per_dollar(self) -> bool:
        """Mixed fleet strictly beats every homogeneous fleet on tokens/$."""
        mixed = self.point("mixed")
        return all(
            mixed.goodput_per_dollar > p.goodput_per_dollar
            for p in self.points
            if p.name != "mixed"
        )

    @property
    def mixed_wins_per_kwh(self) -> bool:
        """Mixed fleet strictly beats every homogeneous fleet on tokens/kWh."""
        mixed = self.point("mixed")
        return all(
            mixed.goodput_per_kwh > p.goodput_per_kwh
            for p in self.points
            if p.name != "mixed"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "points": [p.as_dict() for p in self.points],
            "equal_budget": self.equal_budget,
            "mixed_wins_per_dollar": self.mixed_wins_per_dollar,
            "mixed_wins_per_kwh": self.mixed_wins_per_kwh,
            "extras": dict(sorted(self.extras.items())),
        }


def _run_plan(plan: FleetPlan, scale: float, seed: int, tenancy: TenancyConfig) -> tuple[HeteroPoint, RunStats]:
    """Run one plan against a fresh copy of the workload and cost it.

    The workload is regenerated per run from the same seed (request ids
    are process-global counters, so instances cannot be shared across
    simulators), keeping arrival/token shapes identical across plans.
    """
    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    fleet_cfg = FleetConfig(
        skus=plan.skus,
        policy=CostAwareRoutingPolicy(tier_pins=plan.tier_pins),
    )
    fleet, stats = simulate(
        lambda sim: Fleet(sim, ChunkedPrefillServer, cfg, fleet_cfg),
        hetero_workload(scale, seed),
    )
    merged = fleet.merged_metrics(plan.name)
    reports = tier_reports(merged, tenancy, cfg.slo)
    ledger = fleet.cost_ledger()
    point = HeteroPoint(
        name=plan.name,
        skus=tuple(spec.name for spec in plan.skus),
        hourly_cost=plan.hourly_cost,
        power_kw=plan.power_kw,
        requests_finished=int(merged.summarize().requests_finished),
        tier_goodput={r.tier: r.goodput_tokens_per_s for r in reports},
        usd_spent=float(ledger["usd"]),
        kwh_spent=float(ledger["kwh"]),
    )
    return point, stats


def run_hetero_study(scale: float = 1.0, seed: int = 0) -> HeteroStudy:
    """Run every fleet plan at equal budget and fold into one report."""
    tenancy = study_tenancy()
    points: list[HeteroPoint] = []
    stats = RunStats()
    for plan in FLEET_PLANS:
        point, plan_stats = _run_plan(plan, scale, seed, tenancy)
        points.append(point)
        stats += plan_stats
    return HeteroStudy(points=points, extras=stats.as_extras())
