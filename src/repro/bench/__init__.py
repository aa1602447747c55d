"""Experiment harness: runners, goodput sweeps, fleet studies, reports.

The names below are resolved on first access, so importing one harness
module (``from repro.bench.runner import simulate``) does not import every
study.
"""

from repro import _lazy_exports

#: The public names, by defining module.
_EXPORTS = {
    "repro.bench.ascii": ("cdf_chart",),
    "repro.bench.chaos": ("ChaosResult", "default_chaos_fleet", "run_chaos"),
    "repro.bench.fleet": (
        "FleetRunResult",
        "compare_policies",
        "fleet_goodput_sweep",
        "replica_scaling",
        "run_fleet",
    ),
    "repro.bench.goodput": ("GoodputResult", "RatePoint", "goodput_ratio", "goodput_sweep"),
    "repro.bench.kv_tiers": (
        "BandwidthPoint",
        "KVTiersStudy",
        "bandwidth_sweep",
        "failover_restore_study",
        "run_kv_tiers_study",
    ),
    "repro.bench.perf": ("SCENARIOS", "PerfReport", "ScenarioTiming", "run_perf"),
    "repro.bench.runner": (
        "DRAIN_HORIZON",
        "MAX_EVENTS",
        "STABILITY_TTFT",
        "RunResult",
        "run_system",
    ),
    "repro.bench.report": (
        "latency_table",
        "series",
        "tail_latency_table",
        "throughput_table",
        "tier_table",
    ),
    "repro.bench.tenancy": (
        "IsolationStudy",
        "TenancyRunResult",
        "compare_isolation",
        "noisy_neighbor_workload",
        "run_tenancy_mode",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
