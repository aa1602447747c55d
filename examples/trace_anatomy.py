#!/usr/bin/env python
"""Trace anatomy: record an event trace of one MuxWise run and dissect it.

Serves a small ShareGPT-style workload on Llama-8B / 1xA100 with a Tracer
attached, then walks the recorded timeline: kernel spans per green context,
launch-thread occupancy, request lifecycle phases, cache activity — and
derives the paper's bubble ratio (sec 4.4.2) straight from the spans,
cross-checked against the stream's own accounting.

Writes `trace_anatomy.json` (load it at https://ui.perfetto.dev or in
chrome://tracing) and `trace_anatomy.jsonl` (one JSON event per line).

Usage:
    python examples/trace_anatomy.py
"""

from repro import (
    A100,
    LLAMA_8B,
    MuxWiseServer,
    ServingConfig,
    Simulator,
    sharegpt_workload,
)
from repro.trace import (
    Tracer,
    bubble_ratio_from_spans,
    busy_seconds,
    phase_summary,
    write_chrome_trace,
    write_jsonl,
)


def main() -> None:
    # 1. Attach the tracer.  Every subsystem (streams, host thread, KV
    #    cache, dispatcher) reads it from the simulator when it emits, so it
    #    may be attached (or detached) at any time; attaching it before the
    #    server is built also records what construction emits.
    sim = Simulator()
    tracer = Tracer()
    sim.attach_tracer(tracer)

    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    server = MuxWiseServer(sim, cfg)

    # 2. Run a small traced workload.
    workload = sharegpt_workload(12, rate=2.0, seed=7)
    server.submit(workload)
    server.run()
    summary = server.metrics.summarize()
    print(f"Ran {summary.requests_finished}/{summary.requests_total} requests "
          f"in {sim.now:.2f} simulated seconds -> {len(tracer)} trace events")

    # 3. The timeline is organised into named tracks (rows in the viewer).
    print("\nTracks recorded:")
    for track in tracer.tracks():
        n_spans = len(tracer.spans(track=track))
        n_instants = len(tracer.instants(track=track))
        print(f"  {track:<28} {n_spans:>5} spans  {n_instants:>4} instants")

    # 4. Kernel occupancy per green context, and the span-derived bubble
    #    ratio -- identical to Stream.bubble_ratio() by construction.
    print("\nGreen-context occupancy:")
    for stream in (server.engine.decode_stream, server.engine.prefill_stream):
        track = stream.trace_track
        busy = busy_seconds(tracer.spans(track=track))
        derived = bubble_ratio_from_spans(tracer, track, 0.0, sim.now)
        print(f"  {track:<28} busy {busy:7.3f} s   "
              f"bubble {derived * 100:5.1f}% (stream says "
              f"{stream.bubble_ratio() * 100:5.1f}%)")

    # 5. One request's lifecycle, phase by phase.
    first_req = next(t for t in tracer.tracks() if t.startswith("req/"))
    print(f"\nLifecycle of {first_req}:")
    for span in tracer.spans(track=first_req):
        print(f"  {span.ts:8.3f}s  {span.name:<8} for {span.dur * 1e3:8.2f} ms")
    for instant in tracer.instants(track=first_req):
        print(f"  {instant.ts:8.3f}s  * {instant.name}")

    # 6. The aggregate per-phase breakdown the CLI prints with --trace.
    print()
    print(phase_summary(tracer))

    # 7. Export: Chrome trace-event JSON for the viewer, JSONL for jq/pandas.
    write_chrome_trace(tracer, "trace_anatomy.json")
    write_jsonl(tracer, "trace_anatomy.jsonl")
    print("\nWrote trace_anatomy.json (chrome://tracing / ui.perfetto.dev)")
    print("Wrote trace_anatomy.jsonl (flat event log)")


if __name__ == "__main__":
    main()
