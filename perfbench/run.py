"""The repo benchmark: run one workload, check the output, print metrics.

    python3 perfbench/run.py --workload chunked_sharegpt_long \
        [--seed 0] [--seconds 50] [--trace 0|1]

A run simulates a few traces (``Scenario.traces``) drawn from seeds derived
from ``--seed``, each in a fresh worker process (``worker.py``), so set-up time
and peak memory are those of a cold start.  With ``--trace 0`` the traces
run untraced, in rounds, for about ``--seconds`` (at least one round).
With ``--trace 1`` an untraced and a traced run of the first trace
alternate for about ``--seconds`` (at least one pair); the traced run wraps
each layer's public entry points and yields the per-layer table, and its
result digest must equal the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  When a check
fails, the benchmark names the workload and exits with status 1.  See
README.md for the workloads, the metrics and the prediction table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S

ROOT = Path(__file__).resolve().parents[1]

#: The seed used when none is given.
DEFAULT_SEED = 0
#: A seed never used while tuning the benchmark or a change; a claimed
#: gain must also hold on it (the unseen-seed check).
HELD_OUT_SEED = 7919
#: A single worker must finish within this many seconds.
WORKER_TIMEOUT = 120
#: ``setup_s`` is the median of at least this many cold starts.
MIN_SETUPS = 9

#: End-to-end metrics in print order: (name, unit).  ``finished_frac`` and
#: the ``sim_*`` metrics come from the simulation and repeat exactly for a
#: seed; the others are host measurements.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slowdown_q4_q1", "ratio"),
    ("finished_frac", "ratio"),
    ("sim_ttft_p50_s", "sim_s"),
    ("sim_ttft_p99_s", "sim_s"),
    ("sim_tbt_p50_s", "sim_s"),
    ("sim_tbt_p99_s", "sim_s"),
    ("sim_slo_attainment", "ratio"),
]
SIM_METRICS = tuple(name for name, _ in END_TO_END if name.startswith("sim_"))


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_util", "hit_rate")):
        return "ratio"
    return "count"


#: Per-layer metrics in print order (computed by ``worker.layer_metrics``
#: plus the two the traced invocation derives itself).
PER_LAYER_NAMES = [
    "sim.events",
    "sim.schedule_calls",
    "sim.peak_queue",
    "sim.run_self_s",
    "fastpath.plan_calls",
    "fastpath.commit_calls",
    "fastpath.commit_ratio",
    "fastpath.self_s",
    "device.submit_calls",
    "device.submit_s",
    "device.waterfill_calls",
    "device.waterfill_s",
    "device.sm_util",
    "device.bw_util",
    "costs.calls",
    "costs.self_s",
    "radix.acquire_calls",
    "radix.insert_s",
    "radix.extend_calls",
    "radix.extend_s",
    "radix.fit_check_s",
    "radix.evictions",
    "radix.evicted_tokens",
    "radix.hit_rate",
    "serving.emit_decode_calls",
    "serving.emit_decode_s",
    "serving.on_tokens_calls",
    "serving.on_tokens_s",
    "serving.summarize_s",
    "core.estimator_calls",
    "core.estimator_s",
    "core.partition_changes",
    "core.prefill_groups",
    "core.bubble_ratio",
    "router.route_calls",
    "router.route_s",
    "router.choose_s",
    "cluster.cache_hit_rate",
    "router.shed",
    "workloads.gen_s",
    "trace.overhead_s",
]
PER_LAYER = [(name, _per_layer_unit(name)) for name in PER_LAYER_NAMES]


class CheckFailed(Exception):
    """An output check failed; the message names the workload."""


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """One worker in a fresh process (see ``worker.py`` for ``mode``);
    returns its parsed result."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        workload,
        str(seed),
        mode,
        repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{workload}: worker did not finish in {WORKER_TIMEOUT} s")
    if done.returncode != 0:
        raise CheckFailed(
            f"{workload}: worker exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["errors"]:
        raise CheckFailed(f"{workload}: " + "; ".join(result["errors"]))
    return result


def check_same(workload: str, runs: list[dict], what: str) -> None:
    """Every run must have computed the same simulation."""
    first = runs[0]
    for other in runs[1:]:
        if other["digest"] != first["digest"]:
            raise CheckFailed(
                f"{workload}: {what} digest {other['digest']} != {first['digest']}"
            )
        for name in ("finished", *SIM_METRICS):
            if other[name] != first[name]:
                raise CheckFailed(f"{workload}: {what} {name} differs between runs")


def median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def trace_seeds(seed: int, traces: int) -> list[int]:
    """The seeds of the traces one run simulates, from ``--seed``."""
    return [traces * seed + i for i in range(traces)]


def host_scale(workers: list[dict]) -> float:
    """``hostspeed.REFERENCE_S`` over the fastest reference pass of the run.

    The shared host runs every Python loop up to 70% slower for a minute
    at a time.  The reference loop slows with the simulator, so host times
    multiplied by this factor read as if measured on a host where the
    fastest reference pass takes ``REFERENCE_S``.  Like the simulations,
    the reference counts with its fastest pass.
    """
    fastest = min(seconds for worker in workers for seconds in worker["reference_s"])
    return REFERENCE_S / fastest


def repeat(seconds: float, minimum: int, step) -> list:
    """Call ``step`` at least ``minimum`` times, then again while one more
    call, as long as the longest so far, still ends within ``seconds``."""
    start = time.monotonic()
    results: list = []
    longest = 0.0
    while len(results) < minimum or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        results.append(step())
        longest = max(longest, time.monotonic() - began)
    return results


def measure(
    workload: str, seeds: list[int], seconds: float
) -> tuple[list[dict], dict]:
    """Rounds of untraced traces for about ``seconds``: end-to-end metrics.

    Each round simulates every trace once.  Other load on the host only
    ever slows a simulation down, so each trace counts with its fastest
    round: ``wall_s`` is the sum over the traces of their fastest
    ``Simulator.run``, and ``slowdown_q4_q1`` is the median over the traces
    of the fastest last quarter over the fastest first quarter.
    ``setup_s`` and ``peak_rss_mb`` are medians over every worker; extra
    set-up-only workers bring the cold starts to ``MIN_SETUPS``.
    ``wall_s`` and ``setup_s`` are then scaled by ``host_scale``.  The
    simulated metrics are medians over the traces and must repeat exactly
    between rounds.
    """
    rounds = repeat(seconds, 1, lambda: [run_worker(workload, s, "run") for s in seeds])
    per_trace = [[r[index] for r in rounds] for index in range(len(seeds))]
    for trace in per_trace:
        check_same(workload, trace, "repeated untraced run")
    runs = [run for r in rounds for run in r]
    setups = list(runs)
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seeds[0], "setup"))
    scale = host_scale(setups)
    fastest_quarters = [
        [min(run["quarter_walls"][q] for run in trace) for q in (0, 1)]
        for trace in per_trace
    ]
    metrics = {
        "wall_s": scale * sum(min(run["wall_s"] for run in trace) for trace in per_trace),
        "setup_s": scale * median(setups, "setup_s"),
        "peak_rss_mb": median(runs, "peak_rss_mb"),
        "slowdown_q4_q1": statistics.median(last / first for first, last in fastest_quarters),
        "finished_frac": sum(run["finished"] for run in rounds[0])
        / sum(run["sent"] for run in rounds[0]),
    }
    metrics.update({name: median(rounds[0], name) for name in SIM_METRICS})
    metrics["host_scale"] = scale
    return runs, metrics


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Untraced/traced pairs of one trace for about ``seconds``.

    The traced run gives the per-layer table; its digest must equal the
    untraced run's.
    """

    def pair() -> tuple[dict, dict]:
        plain = run_worker(workload, seed, "run")
        traced = run_worker(workload, seed, "trace")
        if traced["digest"] != plain["digest"]:
            raise CheckFailed(
                f"{workload}: traced digest {traced['digest']} != "
                f"untraced digest {plain['digest']}: the probes changed the result"
            )
        return plain, traced

    pairs = repeat(seconds, 1, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    check_same(workload, plain + traced, "traced/untraced run")
    layers = [run["layers"] for run in traced]
    metrics = {name: statistics.median(t[name] for t in layers) for name in layers[0]}
    metrics["workloads.gen_s"] = median(plain, "gen_s")
    metrics["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
    return plain + traced, metrics


def _format(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    toggles = [name for name in ("REPRO_FASTPATH", "REPRO_SHARDED") if name in os.environ]
    if toggles:
        print(
            f"perfbench: refusing to run with {', '.join(toggles)} set; the benchmark "
            "measures the default configuration",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(SCENARIOS)}", file=sys.stderr)
        return 2

    workload = args.workload
    seeds = trace_seeds(args.seed, SCENARIOS[workload].traces)
    try:
        if args.trace:
            runs, metrics = measure_layers(workload, seeds[0], args.seconds)
            table = PER_LAYER
        else:
            runs, metrics = measure(workload, seeds, args.seconds)
            table = END_TO_END
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    # One entry per distinct trace: the first round (or the traced seed).
    counted = runs[: 1 if args.trace else len(seeds)]
    sent = sum(run["sent"] for run in counted)
    failed = sent - sum(run["finished"] for run in counted)
    print(
        f"perfbench workload={workload} seed={args.seed} trace={args.trace} "
        f"runs={len(runs)} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print(
        f"requests: sent {sent} finished {sent - failed} failed {failed} "
        f"(failed_frac {failed / sent:.6g})"
    )
    for index, (run, trace_seed) in enumerate(zip(counted, seeds)):
        print(f"digest (trace seed {trace_seed}): {run['digest']}")
        if not args.trace:
            walls = " ".join(f"{r['wall_s']:.3f}" for r in runs[index :: len(seeds)])
            print(f"  wall_s of each round: {walls}")
    if not args.trace:
        print(f"host_scale {metrics['host_scale']:.6g} (applied to wall_s and setup_s)")
    for name, unit in table:
        print(f"  {name:<28} {_format(metrics[name]):>14} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(run["sent"] for run in runs),
                "failed": sum(run["sent"] - run["finished"] for run in runs),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in table
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
