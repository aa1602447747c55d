"""End-to-end event tracing and profiling for simulation runs.

Attach a :class:`Tracer` to a simulator and every instrumented layer — GPU
kernels per stream/partition, host launch occupancy, green-context resizes,
bandwidth-share changes, request lifecycle phases, KV-cache hits and
evictions, scheduler decisions — records typed events.  Export to Chrome
``chrome://tracing`` JSON, a flat JSONL log, or a text summary::

    from repro.sim import Simulator
    from repro.trace import Tracer, write_chrome_trace

    sim = Simulator()
    tracer = Tracer()
    sim.attach_tracer(tracer)
    ...  # build a serving system on `sim` and run it
    write_chrome_trace(tracer, "out.json")

Tracing is strictly opt-in and has one switch, ``sim.tracer``: with no
tracer attached (the default) the hooks reduce to one ``is not None`` test
and allocate nothing.  Every layer reads the tracer from the simulator when
it emits, so attaching or detaching one — before the system is built or
mid-run — takes effect everywhere at once.
"""

from repro.trace.exporters import (
    StreamingTraceWriter,
    chrome_trace_events,
    export,
    jsonl_record,
    phase_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.tracer import (
    CAT_BANDWIDTH,
    CAT_CACHE,
    CAT_GREENCTX,
    CAT_KERNEL,
    CAT_LAUNCH,
    CAT_LIFECYCLE,
    CAT_SCHED,
    CAT_TENANCY,
    TENANCY_TRACK,
    TraceEvent,
    Tracer,
    bubble_ratio_from_spans,
    busy_seconds,
)

__all__ = [
    "CAT_BANDWIDTH",
    "CAT_CACHE",
    "CAT_GREENCTX",
    "CAT_KERNEL",
    "CAT_LAUNCH",
    "CAT_LIFECYCLE",
    "CAT_SCHED",
    "CAT_TENANCY",
    "StreamingTraceWriter",
    "TENANCY_TRACK",
    "TraceEvent",
    "Tracer",
    "jsonl_record",
    "bubble_ratio_from_spans",
    "busy_seconds",
    "chrome_trace_events",
    "export",
    "phase_summary",
    "write_chrome_trace",
    "write_jsonl",
]
