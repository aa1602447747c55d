#!/usr/bin/env python
"""Pin a trace to disk, replay it, and inspect the execution timeline.

Demonstrates the artifact-style workflow: generate a workload, save it as
JSONL, reload it byte-identically, serve it with MuxWise while tracing the
green contexts' kernel spans, and dump per-request records — then list one
window of those spans per green context and draw the TTFT CDF as ASCII.

Usage:
    python examples/trace_replay.py [out_dir]
"""

import sys
from pathlib import Path

from repro import A100, LLAMA_70B, MuxWiseServer, ServingConfig, Simulator
from repro.bench import cdf_chart
from repro.trace import Tracer, bubble_ratio_from_spans, busy_seconds
from repro.workloads import (
    load_workload,
    save_records,
    save_workload,
    toolagent_workload,
    workload_stats,
)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("/tmp/repro-replay")
    out_dir.mkdir(parents=True, exist_ok=True)

    # 1. Generate and pin the trace.
    trace_path = out_dir / "toolagent.jsonl"
    workload = toolagent_workload(num_sessions=40, request_rate=0.8, seed=99)
    save_workload(workload, trace_path)
    reloaded = load_workload(trace_path)
    stats = workload_stats(reloaded)
    print(f"pinned {stats.requests} requests ({stats.sessions} sessions, "
          f"{stats.mean_turns:.1f} turns avg) to {trace_path}")
    print(f"Table-1 row: {stats.table_row()}")

    # 2. Serve the reloaded trace with a tracer attached.  Every layer reads
    #    the simulator's tracer when it emits, so attaching it after the
    #    server is built records everything from this point on.
    cfg = ServingConfig(model=LLAMA_70B, spec=A100, n_gpus=8)
    sim = Simulator()
    server = MuxWiseServer(sim, cfg)
    tracer = Tracer()
    sim.attach_tracer(tracer)
    server.submit(reloaded)
    server.run()

    summary = server.metrics.summarize()
    print(f"\nserved: P99 TTFT {summary.ttft_p99:.2f} s, "
          f"P99 TBT {summary.tbt_p99 * 1e3:.1f} ms, SLO met: {summary.slo_met}")

    # 3. Dump per-request records (artifact-style output).
    records_path = out_dir / "records.jsonl"
    save_records(server.metrics.records.values(), records_path)
    print(f"records written to {records_path}")

    # 4. Inspect a one-second window of the two green contexts, starting
    #    at the first prefill span.
    engine = server.engine
    prefill = tracer.spans(track=engine.prefill_stream.trace_track)
    start = prefill[0].ts if prefill else 0.0
    end = start + 1.0
    print(f"\nspans in window [{start:.2f}s, {end:.2f}s]:")
    for stream in (engine.prefill_stream, engine.decode_stream):
        spans = [
            s for s in tracer.spans(track=stream.trace_track) if start <= s.ts <= end
        ]
        print(f"  {stream.trace_track}: {len(spans)} spans, "
              f"busy {busy_seconds(spans) * 1e3:.1f} ms")
        for span in spans[:4]:
            print(f"    {span.ts:8.3f}s  {span.name:<14}{span.dur * 1e3:7.2f} ms")
        if len(spans) > 4:
            print(f"    ... {len(spans) - 4} more")
    decode_bubble = bubble_ratio_from_spans(
        tracer, engine.decode_stream.trace_track, start, end
    )
    print(f"decode bubble ratio in window: {decode_bubble * 100:.1f}%")

    # 5. TTFT CDF (ASCII).
    ttfts = [r.ttft for r in server.metrics.records.values() if r.first_token]
    print("\nTTFT CDF (s):")
    print(cdf_chart(ttfts, points=8, unit="s"))


if __name__ == "__main__":
    main()
