"""Goodput measurement: rate sweeps under the TBT SLO (§4.2.3, Fig. 15).

Goodput is the highest request rate at which the system stays stable and
its P99 TBT meets the SLO.  The sweep evaluates a list of rates (as the
paper does, gradually increasing Poisson arrival rates) and reports both
the per-rate results and the peak compliant rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.runner import RunResult, StabilityVerdict, SystemFactory, run_system
from repro.serving.config import ServingConfig
from repro.workloads.request import Workload

WorkloadFactory = Callable[[float], Workload]


@dataclass
class RatePoint:
    """Result at one arrival rate."""

    rate: float
    result: RunResult

    @property
    def meets_slo(self) -> bool:
        """Whether this rate is goodput-eligible."""
        return self.result.meets_slo


@dataclass
class GoodputResult:
    """Full sweep outcome for one system."""

    system: str
    points: list[RatePoint]

    @property
    def goodput(self) -> float:
        """Peak compliant request rate (0 when no rate qualifies)."""
        eligible = [p.rate for p in self.points if p.meets_slo]
        return max(eligible) if eligible else 0.0

    def point_at(self, rate: float) -> RatePoint | None:
        """The sweep point measured at ``rate``, if any."""
        for point in self.points:
            if abs(point.rate - rate) < 1e-9:
                return point
        return None


def goodput_sweep(
    name: str,
    factory: SystemFactory,
    cfg: ServingConfig,
    workload_factory: WorkloadFactory,
    rates: list[float],
    stop_after_failures: int = 2,
) -> GoodputResult:
    """Sweep ascending rates; stop after consecutive SLO failures.

    Mirrors the paper's methodology: "we stop testing once the serving
    system becomes unstable or fails to meet the TBT SLO target."
    """
    run_at = lambda rate: run_system(factory, cfg, workload_factory(rate))
    return _sweep(name, run_at, rates, stop_after_failures)


def _sweep(
    name: str,
    run_at: Callable[[float], StabilityVerdict],
    rates: list[float],
    stop_after_failures: int,
) -> GoodputResult:
    """The ascending-rate loop shared by the single-system and fleet sweeps."""
    points: list[RatePoint] = []
    failures = 0
    for rate in sorted(rates):
        point = RatePoint(rate=rate, result=run_at(rate))
        points.append(point)
        if point.meets_slo:
            failures = 0
        else:
            failures += 1
            if failures >= stop_after_failures:
                break
    return GoodputResult(system=name, points=points)


def goodput_ratio(target: GoodputResult, baseline: GoodputResult) -> float:
    """Goodput improvement of ``target`` over ``baseline`` (inf if baseline
    never met the SLO)."""
    if baseline.goodput == 0:
        return float("inf")
    return target.goodput / baseline.goodput
