"""Command-line interface: run serving experiments from a shell.

Subcommands::

    python -m repro run        --system muxwise --workload toolagent --rate 1.0
    python -m repro compare    --workload sharegpt --rate 4.0
    python -m repro goodput    --system muxwise --workload toolagent --rates 0.5,1,2
    python -m repro cluster    --replicas 4 --policy prefix-affinity --rate 4.0
    python -m repro chaos      --replicas 4 --seed 0   # fault-injection run
    python -m repro perf       --output BENCH_perf.json   # simulator benchmark
    python -m repro study      fig15   # a registered study or paper figure + its verdicts
    python -m repro profile capture --output prof.json   # fit a latency profile
    python -m repro table1     # Table-1 statistics of the generated traces
    python -m repro specs      # supported models and GPUs

The run commands accept ``--model``, ``--gpu`` and ``--gpus`` to pick the
deployment (defaults: Llama-70B on 8xA100, the paper's main testbed).
``study`` runs one entry of :data:`repro.bench.studies.STUDIES` and exits 1
when any verdict fails: the system studies (tenancy, kvtiers, spec, hetero,
scenarios) and the paper's figures and tables (fig3 ... fig20, tables34,
table5, estimator, overheads, fleet, variants).

Each handler imports the harness modules it uses, so ``table1`` and
``--help`` load neither numpy nor :mod:`repro.bench`, and ``specs`` loads
only the system table (:mod:`repro.bench.systems`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster import (
    POLICIES,
    AdmissionConfig,
    AutoscalerConfig,
    FleetConfig,
    HealthConfig,
)
from repro.gpu.specs import SPECS_BY_NAME
from repro.models.config import MODELS_BY_NAME
from repro.serving.config import ServingConfig
from repro.workloads import (
    agentic_workload,
    conversation_workload,
    loogle_workload,
    mixed_workload,
    openthoughts_workload,
    rag_workload,
    realworld_trace,
    sharegpt_workload,
    toolagent_workload,
)
from repro.workloads.request import Workload

MODEL_ALIASES = {
    "8b": "Llama-8B",
    "70b": "Llama-70B",
    "qwen": "Qwen3-235B-A22B",
    "34b": "CodeLlama-34B",
}

GPU_ALIASES = {
    "a100": "A100-80GB",
    "h100": "H100-SXM5-80GB",
    "h200": "H200-SXM5-141GB",
    "l40s": "L40S-48GB",
}


def build_config(args: argparse.Namespace) -> ServingConfig:
    """ServingConfig from the common CLI options."""
    model_name = MODEL_ALIASES.get(args.model.lower(), args.model)
    gpu_name = GPU_ALIASES.get(args.gpu.lower(), args.gpu)
    try:
        model = MODELS_BY_NAME[model_name]
    except KeyError:
        raise SystemExit(f"unknown model {args.model!r}; see `python -m repro specs`")
    try:
        spec = SPECS_BY_NAME[gpu_name]
    except KeyError:
        raise SystemExit(f"unknown GPU {args.gpu!r}; see `python -m repro specs`")
    return ServingConfig(model=model, spec=spec, n_gpus=args.gpus)


def build_workload(args: argparse.Namespace, rate: float | None = None) -> Workload:
    """Workload from the common CLI options."""
    rate = rate if rate is not None else args.rate
    n = args.requests
    seed = args.seed
    kind = args.workload.lower()
    if kind == "sharegpt":
        return sharegpt_workload(n, rate=rate, seed=seed)
    if kind == "loogle":
        return loogle_workload(n, rate=rate, seed=seed)
    if kind == "openthoughts":
        return openthoughts_workload(n, rate=rate, seed=seed)
    if kind == "conversation":
        return conversation_workload(n, request_rate=rate, seed=seed)
    if kind == "toolagent":
        return toolagent_workload(n, request_rate=rate, seed=seed)
    if kind == "mixed":
        return mixed_workload(n, rate=rate, seed=seed)
    if kind == "agentic":
        return agentic_workload(n, rate, seed=seed)
    if kind == "rag":
        return rag_workload(n, rate=rate, seed=seed)
    if kind in ("conversation-trace", "toolagent-trace"):
        name = "Conversation" if kind.startswith("conversation") else "Tool&Agent"
        return realworld_trace(name, duration=float(n), base_request_rate=rate, seed=seed)
    raise SystemExit(f"unknown workload {args.workload!r}")


def __getattr__(name: str):
    """``SYSTEMS`` and ``make_factory``, resolved from :mod:`repro.bench.systems`
    on first use so the parser loads no serving system."""
    if name in ("SYSTEMS", "make_factory"):
        from repro.bench import systems

        return getattr(systems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_tracer(args: argparse.Namespace):
    """Tracer for ``--trace PATH`` runs (None when tracing is off)."""
    if not args.trace:
        return None
    from repro.trace import Tracer

    # Fail on an unwritable destination now, not after the simulation.
    try:
        with open(args.trace, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write trace file {args.trace!r}: {exc}")
    return Tracer()


def cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.report import latency_table, tail_latency_table, throughput_table
    from repro.bench.runner import RunResult, simulate
    from repro.bench.systems import make_factory
    from repro.workloads.serialization import save_records

    cfg = build_config(args)
    workload = build_workload(args)
    factory = make_factory(args.system, args.token_budget)
    tracer = make_tracer(args)
    system, stats = simulate(lambda sim: factory(sim, cfg), workload, tracer=tracer)
    result = RunResult.of(system, stats)
    print(tail_latency_table({args.system: result.summary}))
    print()
    print(latency_table({args.system: result.summary}))
    print()
    print(throughput_table({args.system: result}))
    if args.output:
        save_records(system.metrics.records.values(), args.output)
        print(f"\nper-request records written to {args.output}")
    if tracer is not None:
        from repro.trace import export, phase_summary

        print()
        print(phase_summary(tracer))
        print()
        print(export(tracer, args.trace))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.report import tail_latency_table, throughput_table
    from repro.bench.runner import run_system
    from repro.bench.systems import make_factory

    cfg = build_config(args)
    workload = build_workload(args)
    names = args.systems.split(",") if args.systems else ["muxwise", "chunked", "sglang-pd"]
    results = {}
    for name in names:
        factory = make_factory(name.strip(), args.token_budget)
        results[name.strip()] = run_system(factory, cfg, workload)
    print(tail_latency_table({n: r.summary for n, r in results.items()}))
    print()
    print(throughput_table(results))
    return 0


def cmd_goodput(args: argparse.Namespace) -> int:
    from repro.bench.goodput import goodput_sweep
    from repro.bench.systems import make_factory

    cfg = build_config(args)
    rates = [float(r) for r in args.rates.split(",")]
    factory = make_factory(args.system, args.token_budget)
    sweep = goodput_sweep(
        args.system,
        factory,
        cfg,
        lambda rate: build_workload(args, rate=rate),
        rates=rates,
    )
    for point in sweep.points:
        summary = point.result.summary
        flag = "ok" if point.meets_slo else "FAIL"
        print(
            f"rate {point.rate:6.2f} [{flag:>4}]  P99 TBT {summary.tbt_p99 * 1e3:7.1f} ms  "
            f"P99 TTFT {summary.ttft_p99:7.2f} s"
        )
    print(f"goodput: {sweep.goodput:.2f} req/s")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.bench.fleet import run_fleet
    from repro.bench.report import latency_table, tail_latency_table
    from repro.bench.systems import make_factory

    cfg = build_config(args)
    workload = build_workload(args)
    factory = make_factory(args.system, args.token_budget)
    admission = None
    if args.admission != "off":
        admission = AdmissionConfig(
            max_outstanding_per_replica=args.max_outstanding, mode=args.admission
        )
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=args.min_replicas, max_replicas=args.max_replicas
        )
    fleet_cfg = FleetConfig(
        replicas=args.replicas,
        policy=args.policy,
        admission=admission,
        autoscaler=autoscaler,
    )
    tracer = make_tracer(args)
    result = run_fleet(factory, cfg, workload, fleet_cfg, tracer=tracer)
    rows = {"fleet": result.summary, **result.per_replica}
    print(tail_latency_table(rows))
    print()
    print(latency_table({"fleet": result.summary}))
    print()
    s = result.summary
    print(
        f"replicas: {result.replicas_routable} routable of {result.replicas_total} "
        f"({args.policy} routing, {result.router_decisions} decisions)"
    )
    print(
        f"requests: {s.requests_total} admitted, {s.requests_finished} finished, "
        f"{result.requests_shed} shed, {result.extras.get('requests_queued', 0):.0f} queued"
    )
    print(
        f"fleet cache hit {result.cache_hit_rate * 100:.1f} %, "
        f"SM util {result.sm_utilization * 100:.1f} %, "
        f"useful {s.useful_throughput:.0f} tok/s"
    )
    goodput = args.rate if result.meets_slo else 0.0
    print(f"fleet goodput: {goodput:.2f} req/s ({'SLO met' if result.meets_slo else 'SLO MISSED'})")
    if tracer is not None:
        from repro.trace import export

        print()
        print(export(tracer, args.trace))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Deterministic fault-injection run; prints one JSON report.

    The output is byte-stable for a fixed (deployment, workload, plan,
    seed), which is what the CI chaos-smoke job asserts by running this
    command twice and diffing the bytes.
    """
    from repro.bench.chaos import run_chaos
    from repro.bench.systems import make_factory
    from repro.faults import FaultPlan, default_chaos_plan

    cfg = build_config(args)
    workload = build_workload(args)
    factory = make_factory(args.system, args.token_budget)
    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        last_arrival = workload.requests[-1].arrival_time if len(workload) else 1.0
        plan = default_chaos_plan(
            max(1.0, last_arrival), restart_after=args.restart_after, seed=args.seed
        )
    fleet_cfg = FleetConfig(
        replicas=args.replicas,
        policy=args.policy,
        health=HealthConfig(),
    )
    tracer = make_tracer(args)
    result = run_chaos(factory, cfg, workload, fleet=fleet_cfg, plan=plan, tracer=tracer)
    print(result.to_json())
    if tracer is not None:
        from repro.trace import export

        print(export(tracer, args.trace), file=sys.stderr)
    if not result.drained:
        print("chaos run did not drain (work stuck in flight)", file=sys.stderr)
        return 1
    if not result.conserved():
        print("request conservation violated", file=sys.stderr)
        return 1
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Benchmark the simulator core on the canonical scenarios.

    Prints a per-scenario table (events/sec, peak queue, wall-clock and the
    deterministic fast-loop work counters) and optionally writes the full
    ``BENCH_perf.json``.  ``--fingerprint``
    prints only the deterministic result digests — the CI ``perf-smoke``
    job runs the harness twice and diffs exactly that output.  With
    ``--baseline`` the run fails when any result fingerprint differs from
    the committed report or wall-clock regresses beyond
    ``--max-regression`` times the baseline.
    """
    from repro.bench.perf import SCENARIOS, TIER_SCALES, run_perf

    names = args.scenarios.split(",") if args.scenarios else None
    if names is not None:
        for name in names:
            if name not in SCENARIOS:
                raise SystemExit(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    tiers = args.tiers.split(",") if args.tiers else None
    if tiers is not None:
        for tier in tiers:
            if tier not in TIER_SCALES:
                raise SystemExit(f"unknown tier {tier!r}; choose from {sorted(TIER_SCALES)}")
    report = run_perf(
        scenarios=names, scale=args.scale, repeats=args.repeats, tiers=tiers, by_kind=args.by_kind
    )
    if args.fingerprint:
        print(report.fingerprint_json())
    else:
        print(
            f"{'scenario':<20} {'events':>10} {'peak queue':>10} {'wall (s)':>9} "
            f"{'events/s':>12} {'pushes':>9} {'cancels':>8} {'elided':>8} "
            f"{'stretches':>9} {'ledger':>9}  "
            "bails head/busy/prefill/plan/pages/partition"
        )
        print(
            f"{'':<20} realloc lone/pair/general, co-run stretches, "
            "co-run bails state/partition/group/horizon/pages/plan"
        )
        for name, s in sorted(report.scenarios.items()):
            print(_perf_row(name, s))
        for tier_name, tier in sorted(report.tiers.items()):
            print(f"-- tier {tier_name} (scale {tier.scale:g}) --")
            for name, s in sorted(tier.scenarios.items()):
                print(_perf_row(name, s))
        if args.by_kind:
            for label, scenarios in [("", report.scenarios)] + [
                (f" (tier {tier_name})", tier.scenarios)
                for tier_name, tier in sorted(report.tiers.items())
            ]:
                for name, s in sorted(scenarios.items()):
                    print(f"\n{name}{label}: heap pushes / cancels by callback kind")
                    print(_by_kind_table(s.by_kind))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        if not args.fingerprint:
            print(f"\nreport written to {args.output}")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline.get("scale") != report.scale:
            # A run at a tier's scale compares against that committed tier
            # (the CI scale-smoke job runs --scale 10 against the "10"
            # tier of BENCH_perf.json).
            for tier in baseline.get("tiers", {}).values():
                if tier.get("scale") == report.scale:
                    baseline = tier
                    break
            else:
                print(
                    f"perf regression: scale mismatch: baseline ran at "
                    f"--scale {baseline.get('scale')}, this run at --scale "
                    f"{report.scale} (fingerprints are only comparable at the "
                    "same scale)",
                    file=sys.stderr,
                )
                return 1
        baseline = _measured_part(baseline, names, tiers)
        problems = report.compare_results(baseline)
        problems += report.compare_timings(baseline, args.max_regression)
        for problem in problems:
            print(f"perf regression: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"ok: results match {args.baseline}, wall-clock within "
              f"{args.max_regression:.1f}x", file=sys.stderr)
    return 0


def _perf_row(name: str, s) -> str:
    """One ``repro perf`` table row: timings, then the work counters."""
    c = s.counters
    bails = "/".join(
        str(c.get(key, 0))
        for key in (
            "bail_head", "bail_busy", "bail_prefill", "bail_plan", "bail_pages", "bail_partition"
        )
    )
    realloc = "/".join(
        str(c.get(key, 0)) for key in ("realloc_lone", "realloc_pair", "realloc_general")
    )
    corun = "/".join(
        str(c.get(f"corun_bail_{reason}", 0))
        for reason in ("state", "partition", "group", "horizon", "pages", "plan")
    )
    return (
        f"{name:<20} {s.events:>10} {s.peak_event_queue:>10} "
        f"{s.wall_s:>9.3f} {s.events_per_sec:>12.0f} {c.get('pushes', 0):>9} "
        f"{c.get('cancels', 0):>8} {c.get('chains_elided', 0):>8} "
        f"{c.get('stretches', 0):>9} {c.get('ledger_writes', 0):>9}  {bails}\n"
        f"{'':<20} {realloc}, {c.get('corun_stretches', 0)}, {corun}"
    )


def _by_kind_table(by_kind: dict[str, dict[str, int]]) -> str:
    """Pushes and cancels per callback kind, most pushed first."""
    pushes = by_kind.get("pushes", {})
    cancels = by_kind.get("cancels", {})
    kinds = sorted(set(pushes) | set(cancels), key=lambda k: (-pushes.get(k, 0), k))
    return "\n".join(
        f"  {pushes.get(kind, 0):>9} {cancels.get(kind, 0):>8}  {kind}" for kind in kinds
    )


def _measured_part(baseline: dict, names: list[str] | None, tiers: list[str] | None) -> dict:
    """The part of a perf baseline this run measured.

    ``BENCH_perf.json`` commits every scenario and several tiers; a run
    restricted by ``--scenarios`` / ``--tiers`` is compared only on what
    it ran.
    """

    def ran(rows: dict) -> dict:
        return {name: row for name, row in rows.items() if names is None or name in names}

    return {
        **baseline,
        "results": ran(baseline.get("results", {})),
        "timings": ran(baseline.get("timings", {})),
        "tiers": {
            name: tier for name, tier in baseline.get("tiers", {}).items() if name in (tiers or ())
        },
    }


def cmd_study(args: argparse.Namespace) -> int:
    """Run one registered study; exit 1 when any of its verdicts fails.

    Prints the study's table and one ``verdict: yes|no`` line per verdict,
    or with ``--json`` the full deterministic report (the CI study-smoke
    job runs that twice and diffs the bytes).  Failed verdicts are also
    named on stderr.
    """
    from repro.bench.studies import STUDIES

    study = STUDIES.get(args.name)
    if study is None:
        raise SystemExit(f"unknown study {args.name!r}; choose from {list(STUDIES)}")
    report = study.run(args.scale, args.seed)
    verdicts = study.verdicts(report)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(study.render(report))
        for name, ok in verdicts.items():
            print(f"{name}: {'yes' if ok else 'no'}")
    failed = [name for name, ok in verdicts.items() if not ok]
    if failed:
        print(f"{args.name}: verdicts failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Latency profiles: capture from a run, replay one, or inspect one.

    ``capture`` runs the chosen system/workload under recording cost
    models (byte-identical to the plain run) and writes the fitted JSON
    profile.  ``replay`` loads a profile into ``ServingConfig.cost_profile``
    and re-runs the workload on sampled empirical latencies instead of the
    analytic roofline.  ``show`` prints a profile's per-phase bucket table.
    """
    from repro.bench.report import tail_latency_table, throughput_table
    from repro.bench.runner import run_system
    from repro.bench.systems import make_factory
    from repro.profiles import capture_profile, load_profile, save_profile

    if args.action == "show":
        profile = load_profile(args.profile)
        print(f"profile {profile.name!r}  model {profile.model!r}  gpu {profile.gpu!r}")
        for key, value in sorted(profile.meta.items()):
            print(f"  meta {key}: {value}")
        for phase_name in sorted(profile.phases):
            phase = profile.phases[phase_name]
            print(f"phase {phase_name}:")
            print(f"  {'bucket':>8} {'mean tok':>9} {'n':>6} {'p0 (ms)':>9} {'p50 (ms)':>9} {'p100 (ms)':>9}")
            for bucket in phase.buckets:
                mid = bucket.quantiles[len(bucket.quantiles) // 2]
                print(
                    f"  {bucket.max_tokens:>8} {bucket.mean_tokens:>9.1f} {bucket.count:>6} "
                    f"{bucket.quantiles[0] * 1e3:>9.3f} {mid * 1e3:>9.3f} "
                    f"{bucket.quantiles[-1] * 1e3:>9.3f}"
                )
        return 0

    cfg = build_config(args)
    workload = build_workload(args)
    factory = make_factory(args.system, args.token_budget)
    if args.action == "capture":
        capture = capture_profile(factory, cfg, workload, name=args.name)
        save_profile(capture.profile, args.output)
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(capture.sample_counts.items()))
        print(f"captured {counts} samples from {workload.name!r}")
        print(tail_latency_table({"capture (roofline)": capture.summary}))
        print(f"profile written to {args.output}")
        return 0
    # replay
    profile = load_profile(args.profile)
    cfg.cost_profile = profile
    result = run_system(factory, cfg, workload)
    print(f"replaying profile {profile.name!r} ({profile.model or 'unknown model'})")
    print(tail_latency_table({args.system: result.summary}))
    print()
    print(throughput_table({args.system: result}))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.workloads.stats import table1

    seed = args.seed
    workloads = [
        sharegpt_workload(500, rate=2.0, seed=seed),
        loogle_workload(300, rate=0.5, seed=seed),
        openthoughts_workload(300, rate=1.0, seed=seed),
        conversation_workload(300, request_rate=2.0, seed=seed),
        toolagent_workload(300, request_rate=2.0, seed=seed),
    ]
    print(table1(workloads))
    return 0


def cmd_specs(_args: argparse.Namespace) -> int:
    from repro.bench.systems import SYSTEMS

    print("Models:")
    for name, model in MODELS_BY_NAME.items():
        kind = "MoE" if model.is_moe else "dense"
        print(
            f"  {name:<18} {model.total_params / 1e9:6.1f}B {kind:<6} "
            f"{model.num_layers} layers, KV {model.kv_bytes_per_token / 1024:.0f} KiB/token"
        )
    print("GPUs:")
    for name, spec in SPECS_BY_NAME.items():
        print(
            f"  {name:<18} {spec.sms} SMs, {spec.peak_flops / 1e12:.0f} TFLOPS, "
            f"{spec.mem_bandwidth / 1e9:.0f} GB/s, {spec.mem_bytes / 2**30:.0f} GiB"
        )
    print(f"Systems: {', '.join(sorted(SYSTEMS))}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="70b", help="model (8b|70b|qwen|34b or full name)")
    parser.add_argument("--gpu", default="a100", help="GPU (a100|h100|h200 or full name)")
    parser.add_argument("--gpus", type=int, default=8, help="GPUs in the server")
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument("--requests", type=int, default=100, help="requests/sessions to generate")
    parser.add_argument("--token-budget", type=int, default=256, help="chunked-prefill token budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one system on one workload")
    _add_common(run_p)
    run_p.add_argument("--system", default="muxwise")
    run_p.add_argument("--workload", default="toolagent")
    run_p.add_argument("--rate", type=float, default=1.0)
    run_p.add_argument("--output", default=None, help="write per-request JSONL here")
    run_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an event trace; .json for chrome://tracing, .jsonl for a flat log",
    )
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several systems on one workload")
    _add_common(cmp_p)
    cmp_p.add_argument("--systems", default=None, help="comma-separated system names")
    cmp_p.add_argument("--workload", default="toolagent")
    cmp_p.add_argument("--rate", type=float, default=1.0)
    cmp_p.set_defaults(func=cmd_compare)

    good_p = sub.add_parser("goodput", help="rate sweep under the TBT SLO")
    _add_common(good_p)
    good_p.add_argument("--system", default="muxwise")
    good_p.add_argument("--workload", default="toolagent")
    good_p.add_argument("--rates", default="0.5,1.0,2.0", help="comma-separated req/s")
    good_p.set_defaults(func=cmd_goodput)

    clu_p = sub.add_parser("cluster", help="multi-replica fleet behind a routing policy")
    _add_common(clu_p)
    clu_p.add_argument("--system", default="muxwise", help="serving system of every replica")
    clu_p.add_argument("--workload", default="sharegpt")
    clu_p.add_argument("--rate", type=float, default=4.0, help="fleet-wide request rate")
    clu_p.add_argument("--replicas", type=int, default=4, help="replicas at start")
    clu_p.add_argument(
        "--policy", default="prefix-affinity", choices=sorted(POLICIES), help="routing policy"
    )
    clu_p.add_argument(
        "--admission",
        default="queue",
        choices=["queue", "shed", "off"],
        help="admission control mode at the router",
    )
    clu_p.add_argument(
        "--max-outstanding", type=int, default=64, help="in-flight budget per replica"
    )
    clu_p.add_argument("--autoscale", action="store_true", help="enable the SLO autoscaler")
    clu_p.add_argument("--min-replicas", type=int, default=1, help="autoscaler floor")
    clu_p.add_argument("--max-replicas", type=int, default=8, help="autoscaler replica budget")
    clu_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an event trace; .json for chrome://tracing, .jsonl for a flat log",
    )
    clu_p.set_defaults(func=cmd_cluster)

    chaos_p = sub.add_parser("chaos", help="deterministic fault-injection run (JSON report)")
    _add_common(chaos_p)
    chaos_p.add_argument("--system", default="chunked", help="serving system of every replica")
    chaos_p.add_argument("--workload", default="sharegpt")
    chaos_p.add_argument("--rate", type=float, default=8.0, help="fleet-wide request rate")
    chaos_p.add_argument("--replicas", type=int, default=4, help="replicas at start")
    chaos_p.add_argument(
        "--policy", default="round-robin", choices=sorted(POLICIES), help="routing policy"
    )
    chaos_p.add_argument(
        "--plan", default=None, metavar="PATH", help="FaultPlan JSON (default: one of each kind)"
    )
    chaos_p.add_argument(
        "--restart-after", type=float, default=2.0, help="replica restart delay after a kill"
    )
    chaos_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an event trace; .json for chrome://tracing, .jsonl for a flat log",
    )
    chaos_p.set_defaults(func=cmd_chaos)

    perf_p = sub.add_parser("perf", help="benchmark the simulator core (BENCH_perf.json)")
    perf_p.add_argument(
        "--scenarios", default=None, help="comma-separated scenario names (default: all)"
    )
    perf_p.add_argument(
        "--scale", type=float, default=1.0, help="workload scale factor for every scenario"
    )
    perf_p.add_argument(
        "--repeats", type=int, default=1, help="runs per scenario; fastest wall-clock is kept"
    )
    perf_p.add_argument(
        "--tiers",
        default=None,
        help="comma-separated scale tiers (10, 100) to additionally run on the smoke scenarios",
    )
    perf_p.add_argument("--output", default=None, metavar="PATH", help="write BENCH_perf.json here")
    perf_p.add_argument(
        "--fingerprint",
        action="store_true",
        help="print only the deterministic result fingerprints (for byte-diffing)",
    )
    perf_p.add_argument(
        "--baseline", default=None, metavar="PATH", help="compare against a committed BENCH_perf.json"
    )
    perf_p.add_argument(
        "--by-kind",
        action="store_true",
        help="also print heap pushes and cancels per callback kind",
    )
    perf_p.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when wall-clock exceeds this factor of the baseline",
    )
    perf_p.set_defaults(func=cmd_perf)

    study_p = sub.add_parser("study", help="run a registered study and check its verdicts")
    study_p.add_argument(
        "name",
        help="which study: tenancy, kvtiers, spec, hetero, scenarios, or a paper figure "
        "or table: fig3, fig5, fig6, fig11, fig13, estimator, overheads, fleet, fig14, "
        "fig15, fig16, fig17, fig18, fig19, fig20, tables34, table5, variants",
    )
    study_p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    study_p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    study_p.add_argument(
        "--json", action="store_true", help="emit the full study as JSON (machine-readable)"
    )
    study_p.set_defaults(func=cmd_study)

    prof_p = sub.add_parser(
        "profile", help="capture, replay or inspect an empirical latency profile"
    )
    prof_p.add_argument(
        "action", choices=["capture", "replay", "show"], help="what to do with the profile"
    )
    _add_common(prof_p)
    prof_p.add_argument("--system", default="chunked", help="system to capture/replay with")
    prof_p.add_argument("--workload", default="sharegpt")
    prof_p.add_argument("--rate", type=float, default=4.0)
    prof_p.add_argument("--name", default="captured", help="profile name (capture)")
    prof_p.add_argument(
        "--output", default="profile.json", metavar="PATH", help="profile destination (capture)"
    )
    prof_p.add_argument(
        "--profile", default="profile.json", metavar="PATH", help="profile source (replay, show)"
    )
    prof_p.set_defaults(func=cmd_profile)

    t1_p = sub.add_parser("table1", help="print Table-1 stats of the traces")
    t1_p.add_argument("--seed", type=int, default=0)
    t1_p.set_defaults(func=cmd_table1)

    specs_p = sub.add_parser("specs", help="list models, GPUs, systems")
    specs_p.set_defaults(func=cmd_specs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
