"""Table/series formatting for experiment outputs.

Prints the same row shapes the paper reports: Tables 3/4 (avg/P50 of TTFT,
TBT, E2E, TPOT), Table 5 (throughput and GPU utilisation), and generic
labelled series for the figures.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.bench.runner import RunResult, RunStats
from repro.serving.metrics import Summary


@dataclass(frozen=True)
class FigureReport:
    """One paper figure or table as a study report.

    ``payload`` holds the figure's series and per-system results, which
    its render reads directly, and under ``"verdicts"`` the yes/no
    verdict per paper shape; :meth:`as_dict` turns it into plain JSON
    values (result dataclasses become dicts).  ``extras`` is the
    simulator load of the runs behind it.
    """

    payload: dict[str, Any]
    extras: dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, payload: dict[str, Any], runs: Iterable[Any] = ()) -> "FigureReport":
        """The report with ``extras`` summed over ``runs``: run results
        (anything with a ``stats``) or bare :class:`RunStats`."""
        stats = [getattr(run, "stats", run) for run in runs]
        return cls(payload, sum(stats, RunStats()).as_extras() if stats else {})

    def as_dict(self) -> dict[str, Any]:
        return {**_plain(self.payload), "extras": dict(sorted(self.extras.items()))}


def _plain(value: Any) -> Any:
    """``value`` with every dataclass, tuple and dict key made JSON-plain."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _fmt(value: float, scale: float = 1.0, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value * scale:.{digits}f}"


def latency_table(rows: dict[str, Summary]) -> str:
    """Tables 3/4: TTFT (s), TBT (ms), E2E (s), TPOT (ms) — Avg. and P50."""
    header = (
        f"{'System':<12} {'TTFT avg':>9} {'TTFT p50':>9} {'TBT avg':>8} {'TBT p50':>8} "
        f"{'E2E avg':>8} {'E2E p50':>8} {'TPOT avg':>9} {'TPOT p50':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, s in rows.items():
        lines.append(
            f"{name:<12} {_fmt(s.ttft_avg):>9} {_fmt(s.ttft_p50):>9} "
            f"{_fmt(s.tbt_avg, 1e3):>8} {_fmt(s.tbt_p50, 1e3):>8} "
            f"{_fmt(s.e2e_avg):>8} {_fmt(s.e2e_p50):>8} "
            f"{_fmt(s.tpot_avg, 1e3):>9} {_fmt(s.tpot_p50, 1e3):>9}"
        )
    return "\n".join(lines)


def tail_latency_table(rows: dict[str, Summary]) -> str:
    """Fig. 14/16/17 rows: P99 TTFT (s) and P99 TBT (ms) per system."""
    header = f"{'System':<12} {'TTFT p99 (s)':>13} {'TBT p99 (ms)':>13} {'SLO met':>8}"
    lines = [header, "-" * len(header)]
    for name, s in rows.items():
        lines.append(
            f"{name:<12} {_fmt(s.ttft_p99, 1.0, 2):>13} {_fmt(s.tbt_p99, 1e3):>13} "
            f"{'yes' if s.slo_met else 'no':>8}"
        )
    return "\n".join(lines)


def throughput_table(rows: dict[str, RunResult]) -> str:
    """Table 5: token throughput and GPU utilisation at goodput.

    "Useful Token/s" counts each request's input once plus its outputs;
    "Computed Token/s" additionally counts recomputation (LoongServe's
    cross-request recompute inflates the latter, not the former).
    """
    header = (
        f"{'System':<12} {'Useful Tok/s':>13} {'Computed Tok/s':>15} "
        f"{'GPU util %':>11} {'Cache hit %':>12}"
    )
    lines = [header, "-" * len(header)]
    for name, r in rows.items():
        lines.append(
            f"{name:<12} {_fmt(r.summary.useful_throughput, 1.0, 0):>13} "
            f"{_fmt(r.summary.token_throughput, 1.0, 0):>15} "
            f"{_fmt(r.sm_utilization, 100.0):>11} {_fmt(r.cache_hit_rate, 100.0):>12}"
        )
    return "\n".join(lines)


def tier_table(rows: dict[str, list]) -> str:
    """Per-tier QoS breakdown: one line per (mode, tier) pair.

    ``rows`` maps a mode label to its :class:`~repro.tenancy.TierReport`
    list (rank order).  Attainments are percentages against each tier's own
    scaled SLO, so a batch tier at 100% is meeting its *relaxed* targets,
    not the interactive ones.
    """
    header = (
        f"{'Mode':<14} {'Tier':<12} {'Done/Total':>11} {'TTFT p99':>9} "
        f"{'TBT p99':>8} {'TTFT att%':>10} {'TBT att%':>9} {'Goodput':>9}"
    )
    lines = [header, "-" * len(header)]
    for mode, reports in rows.items():
        for t in reports:
            lines.append(
                f"{mode:<14} {t.tier:<12} "
                f"{f'{t.requests_finished}/{t.requests_total}':>11} "
                f"{_fmt(t.ttft_p99, 1.0, 2):>9} {_fmt(t.tbt_p99, 1e3):>8} "
                f"{_fmt(t.ttft_attainment, 100.0):>10} "
                f"{_fmt(t.tbt_attainment, 100.0):>9} "
                f"{_fmt(t.goodput_tokens_per_s, 1.0, 0):>9}"
            )
    return "\n".join(lines)


def series(label: str, xs: list[float], ys: list[float], x_name: str = "x", y_name: str = "y") -> str:
    """A labelled (x, y) series, one row per point (figure data)."""
    lines = [f"# {label}: {x_name} -> {y_name}"]
    for x, y in zip(xs, ys):
        lines.append(f"{x:>12.4g} {y:>12.4g}")
    return "\n".join(lines)
