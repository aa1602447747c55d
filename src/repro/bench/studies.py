"""The study registry: every deterministic study with its verdicts.

A study is one ``run(scale, seed)`` returning a report whose
``as_dict()`` is the byte-stable payload, plus the yes/no ``verdicts`` it
must pass, a human-readable ``render`` and the scale its CI smoke run
uses.  The paper's figures and tables are studies too
(:mod:`repro.bench.characterize`, :mod:`repro.bench.figures`): each
verdict is one of the paper's shapes, checked at ``smoke_scale`` 1.0.
Everything that drives studies goes through :data:`STUDIES`:

* ``python -m repro study <name> [--scale S --seed N --json]`` runs one,
  prints its report and exits 1 when any verdict fails;
* the perf harness fingerprints kvtiers, spec, hetero and scenarios
  (:data:`repro.bench.perf.SCENARIOS`);
* the CI ``study-smoke`` matrix runs each at ``smoke_scale`` twice and
  diffs the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench import characterize as ch
from repro.bench import figures as fig
from repro.bench.hetero import HeteroStudy, run_hetero_study
from repro.bench.kv_tiers import KVTiersStudy, run_kv_tiers_study
from repro.bench.report import FigureReport, tier_table
from repro.bench.scenarios import ScenariosStudy, run_scenarios_study
from repro.bench.spec import SpecStudy, run_spec_study
from repro.bench.tenancy import (
    BROWNOUT_MAX_LOSS_PTS,
    FIFO_MIN_LOSS_PTS,
    IsolationStudy,
    compare_isolation,
)
from repro.tenancy import TIER_BATCH, TIER_INTERACTIVE


@dataclass(frozen=True)
class Study:
    """One registered study (see the module docstring)."""

    run: Callable[[float, int], Any]
    verdicts: Callable[[Any], dict[str, bool]]
    render: Callable[[Any], str]
    #: ``--scale`` of the CI smoke run: every verdict holds there.
    smoke_scale: float


def _tenancy_verdicts(study: IsolationStudy) -> dict[str, bool]:
    protected = study.contended["wfq+brownout"]
    batch = protected.attainment(TIER_BATCH)
    return {
        "fifo_degrades": study.degradation("fifo") >= FIFO_MIN_LOSS_PTS,
        "brownout_protects": study.degradation("wfq+brownout") <= BROWNOUT_MAX_LOSS_PTS,
        # A batch tier with no served requests has nothing to out-attain.
        "interactive_not_below_batch": protected.attainment(TIER_INTERACTIVE)
        >= (0.0 if math.isnan(batch) else batch),
    }


def _render_tenancy(study: IsolationStudy) -> str:
    rows = {"isolated": study.isolated.tiers}
    rows.update({mode: r.tiers for mode, r in study.contended.items()})
    lines = [tier_table(rows), ""]
    for mode, result in study.contended.items():
        lines.append(
            f"{mode:<14} interactive TBT attainment "
            f"{result.attainment(TIER_INTERACTIVE):6.2f}% "
            f"({study.degradation(mode):+.2f} pts vs isolated), "
            f"shed {result.requests_shed}, fairness {result.fairness:.3f}"
        )
    return "\n".join(lines)


def _kvtiers_verdicts(study: KVTiersStudy) -> dict[str, bool]:
    return {
        "crossover": study.crossover,
        "failover_drained": study.failover.get("drained") == 1,
        "failover_restored": study.failover.get("restored_tokens", 0) > 0,
    }


def _render_kvtiers(study: KVTiersStudy) -> str:
    lines = [f"{'bandwidth':>12} {'mux tok/s':>12} {'disagg tok/s':>13} {'gap':>10}"]
    for point in study.points:
        lines.append(
            f"{point.bandwidth / 1e9:>10.1f}GB {point.mux_useful_throughput:>12.1f} "
            f"{point.disagg_useful_throughput:>13.1f} {point.gap:>10.1f}"
        )
    lines.append("failover ledger:")
    lines += [f"  {key:<22} {value}" for key, value in sorted(study.failover.items())]
    return "\n".join(lines)


def _spec_verdicts(study: SpecStudy) -> dict[str, bool]:
    return {"accepted_monotone": study.accepted_monotone, "gap_shift": study.gap_shift}


def _render_spec(study: SpecStudy) -> str:
    base = study.baseline
    lines = [
        f"baseline (spec off): mux {base['mux_useful_throughput']:.1f} tok/s, "
        f"disagg {base['disagg_useful_throughput']:.1f} tok/s, "
        f"decode SMs {base['mux_decode_sms']:.1f}",
        f"{'k':>3} {'accept':>7} {'E[tok]':>7} {'acc/step':>9} "
        f"{'mux tok/s':>10} {'disagg tok/s':>13} {'gap':>9} {'dec SMs':>8}",
    ]
    for point in study.points:
        lines.append(
            f"{point.draft_len:>3} {point.rate:>7.2f} {point.expected_tokens:>7.2f} "
            f"{point.mux_accepted_per_step:>9.2f} {point.mux_useful_throughput:>10.1f} "
            f"{point.disagg_useful_throughput:>13.1f} {point.gap:>9.1f} "
            f"{point.mux_decode_sms:>8.1f}"
        )
    return "\n".join(lines)


def _hetero_verdicts(study: HeteroStudy) -> dict[str, bool]:
    return {
        "equal_budget": study.equal_budget,
        "mixed_wins_per_dollar": study.mixed_wins_per_dollar,
        "mixed_wins_per_kwh": study.mixed_wins_per_kwh,
        # The bandwidth-poor fleet cannot sell one realtime token.
        "l40s_no_realtime_goodput": study.point("l40sx8").tier_goodput.get("interactive")
        == 0.0,
    }


def _render_hetero(study: HeteroStudy) -> str:
    lines = [
        f"{'fleet':>8} {'$/hr':>6} {'kW':>6} {'fin':>5} "
        f"{'goodput':>10} {'tok/$':>12} {'tok/kWh':>12}"
    ]
    for point in study.points:
        lines.append(
            f"{point.name:>8} {point.hourly_cost:>6.2f} {point.power_kw:>6.2f} "
            f"{point.requests_finished:>5d} {point.goodput:>10.1f} "
            f"{point.goodput_per_dollar:>12.0f} {point.goodput_per_kwh:>12.0f}"
        )
        for tier, goodput in sorted(point.tier_goodput.items()):
            lines.append(f"{'':>8}   {tier:<12} {goodput:>10.1f} tok/s in-SLO")
    return "\n".join(lines)


def _render_scenarios(study: ScenariosStudy) -> str:
    lines = ["RAG routing (fleet of 4):"]
    for point in study.routing:
        lines.append(
            f"  {point.policy:<16} cache hit {point.cache_hit_rate * 100:5.1f} %  "
            f"useful {point.useful_throughput:8.1f} tok/s  "
            f"TTFT p50 {point.ttft_p50 * 1e3:7.1f} ms"
        )
    lines.append("Agentic tool-pauses (mux vs disagg):")
    for point in study.pauses:
        lines.append(
            f"  {point.mode:<8} (delay {point.tool_delay_mean:.1f}s)  "
            f"mux {point.mux_useful_throughput:8.1f}  "
            f"disagg {point.disagg_useful_throughput:8.1f}  gap {point.gap:+8.1f} tok/s"
        )
    lines.append("Profile self-calibration (replay / roofline):")
    for point in study.calibration:
        lines.append(
            f"  {point.metric:<18} roofline {point.roofline:10.4f}  "
            f"replay {point.replay:10.4f}  ratio {point.ratio:6.3f}"
        )
    return "\n".join(lines)


def _figure(
    run: Callable[[float, int], FigureReport], render: Callable[[FigureReport], str]
) -> Study:
    """A paper figure or table: its run computes its verdicts into the
    payload, and every verdict holds at scale 1.0."""
    return Study(run, lambda report: report.payload["verdicts"], render, smoke_scale=1.0)


#: Every study, by CLI name.
STUDIES: dict[str, Study] = {
    "tenancy": Study(compare_isolation, _tenancy_verdicts, _render_tenancy, smoke_scale=0.25),
    "kvtiers": Study(run_kv_tiers_study, _kvtiers_verdicts, _render_kvtiers, smoke_scale=0.05),
    "spec": Study(
        lambda scale, seed: run_spec_study(scale=scale, seed=seed),
        _spec_verdicts,
        _render_spec,
        smoke_scale=0.05,
    ),
    "hetero": Study(run_hetero_study, _hetero_verdicts, _render_hetero, smoke_scale=0.1),
    "scenarios": Study(
        run_scenarios_study,
        lambda study: study.as_dict()["verdicts"],
        _render_scenarios,
        smoke_scale=0.25,
    ),
    "fig3": _figure(ch.run_fig3, ch.render_fig3),
    "fig5": _figure(ch.run_fig5, ch.render_fig5),
    "fig6": _figure(ch.run_fig6, ch.render_fig6),
    "fig11": _figure(ch.run_fig11, ch.render_fig11),
    "fig13": _figure(ch.run_fig13, ch.render_fig13),
    "estimator": _figure(ch.run_estimator, ch.render_estimator),
    "overheads": _figure(ch.run_overheads, ch.render_overheads),
    "fleet": _figure(fig.run_fleet_study, fig.render_fleet),
    "fig14": _figure(fig.run_fig14, fig.render_fig14),
    "fig15": _figure(fig.run_fig15, fig.render_fig15),
    "fig16": _figure(fig.run_fig16, fig.render_fig16),
    "fig17": _figure(fig.run_fig17, fig.render_fig17),
    "fig18": _figure(fig.run_fig18, fig.render_fig18),
    "fig19": _figure(fig.run_fig19, fig.render_fig19),
    "fig20": _figure(fig.run_fig20, fig.render_fig20),
    "tables34": _figure(fig.run_tables34, fig.render_tables34),
    "table5": _figure(fig.run_table5, fig.render_table5),
    "variants": _figure(fig.run_variants, fig.render_variants),
}
