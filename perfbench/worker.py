"""One simulation of one workload in a fresh process; prints one JSON line.

Started by ``run.py``; not meant to be run by hand.  The process starts
cold on purpose: ``setup_s`` covers interpreter start, imports, workload
generation and system construction, including MuxWise's estimator
calibration, which is memoised per process.

    python3 perfbench/worker.py <workload> <seed> <mode> <spawn time>

``mode`` is ``run`` (simulate untraced), ``trace`` (simulate with the
per-layer probes installed) or ``setup`` (set up, then stop before the
first event).  Untraced workers then time a few passes of the host-speed
reference loop (``hostspeed.py``).  ``spawn time`` is the parent's
``time.monotonic()`` just before it started this process; both read the
same system-wide monotonic clock.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro.serving.base import iter_instances  # noqa: E402

import hostspeed  # noqa: E402
import scenarios  # noqa: E402


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(run: scenarios.Run, probe) -> dict[str, float]:
    """The per-layer table: probe counts and times plus public counters."""
    calls, self_s = probe.calls, probe.self_s
    instances = [inst for system in run.systems for inst in iter_instances(system)]
    stats = [inst.cache.stats for inst in instances]
    requested = sum(s.tokens_requested for s in stats)
    engines = [s.engine for s in run.systems if getattr(s, "engine", None) is not None]
    fleet = run.fleet
    plans = calls["fastpath.plan"]
    return {
        "sim.events": run.sim.processed_events,
        "sim.schedule_calls": calls["sim.schedule"],
        "sim.peak_queue": run.sim.max_event_queue,
        "sim.run_self_s": self_s["sim.run"],
        "fastpath.plan_calls": plans,
        "fastpath.commit_calls": calls["fastpath.commit"],
        "fastpath.commit_ratio": calls["fastpath.commit"] / plans if plans else 0.0,
        "fastpath.self_s": self_s["fastpath.plan"] + self_s["fastpath.commit"],
        "device.submit_calls": calls["device.submit"],
        "device.submit_s": self_s["device.submit"],
        "device.waterfill_calls": calls["device.waterfill"],
        "device.waterfill_s": self_s["device.waterfill"],
        "device.sm_util": _mean([inst.device.sm_utilization() for inst in instances]),
        "device.bw_util": _mean(
            [inst.device.bandwidth_utilization() for inst in instances]
        ),
        "costs.calls": calls["costs"],
        "costs.self_s": self_s["costs"],
        "radix.acquire_calls": calls["radix.acquire"],
        "radix.insert_s": self_s["radix.insert"],
        "radix.extend_calls": calls["radix.extend"],
        "radix.extend_s": self_s["radix.extend"],
        "radix.fit_check_s": self_s["radix.fit_check"],
        "radix.evictions": sum(s.evictions for s in stats),
        "radix.evicted_tokens": sum(s.evicted_tokens for s in stats),
        "radix.hit_rate": sum(s.tokens_hit for s in stats) / requested if requested else 0.0,
        "serving.emit_decode_calls": calls["serving.emit_decode"],
        "serving.emit_decode_s": self_s["serving.emit_decode"],
        "serving.on_tokens_calls": calls["serving.on_tokens"],
        "serving.on_tokens_s": self_s["serving.on_tokens"],
        "serving.summarize_s": self_s["serving.summarize"],
        "core.estimator_calls": calls["core.estimator"],
        "core.estimator_s": self_s["core.estimator"],
        "core.partition_changes": calls["core.set_partition"],
        "core.prefill_groups": calls["core.prefill_group"],
        "core.bubble_ratio": _mean([e.bubble_ratio() for e in engines]),
        "router.route_calls": calls["router.route"],
        "router.route_s": self_s["router.route"],
        "router.choose_s": self_s["router.choose"],
        "cluster.cache_hit_rate": fleet.cache_hit_rate() if fleet is not None else 0.0,
        "router.shed": fleet.router.requests_shed if fleet is not None else 0,
    }


def main(argv: list[str]) -> int:
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    scenario = scenarios.SCENARIOS[name]
    probe = None
    if mode == "trace":
        from layers import Probe

        probe = Probe()
        probe.install()
    gen_start = time.perf_counter()
    workload = scenario.generate(seed)
    gen_s = time.perf_counter() - gen_start
    if len(workload) < scenarios.MIN_REQUESTS:
        raise SystemExit(f"{name}: seed {seed} gives only {len(workload)} requests")
    run = scenarios.Run(scenario, workload)
    if probe is not None:
        probe.reset()
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        reference_s = hostspeed.reference_passes()
        print(json.dumps({"errors": [], "setup_s": setup_s, "reference_s": reference_s}))
        return 0
    run.run()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = run.summary
    sent = len(workload)
    result = {
        "digest": scenarios.digest(run.result_payload()),
        "errors": run.conservation_errors(),
        "sent": sent,
        "finished": summary.requests_finished,
        "wall_s": run.wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "quarter_walls": run.quarter_walls(),
        "sim_ttft_p50_s": summary.ttft_p50,
        "sim_ttft_p99_s": summary.ttft_p99,
        "sim_tbt_p50_s": summary.tbt_p50,
        "sim_tbt_p99_s": summary.tbt_p99,
        "sim_slo_attainment": run.slo_attainment(),
        "gen_s": gen_s,
    }
    if run.sim.pending_productive:
        result["errors"].append("simulation did not drain")
    if probe is not None:
        result["layers"] = layer_metrics(run, probe)
    else:
        result["reference_s"] = hostspeed.reference_passes()
    for key, value in result.items():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, float) and not math.isfinite(item):
                result["errors"].append(f"{key} is {value}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
