"""Typed event recording for simulation traces.

A :class:`Tracer` collects a flat, append-only list of :class:`TraceEvent`
records during a run: *complete* spans (an interval of work on a track),
*begin/end* phase markers (request lifecycle), *instant* events (preemption
requested, cache eviction) and *counter* samples (bandwidth shares, SM
partition sizes).

Design constraints, in order of importance:

1. **Zero overhead when off.**  Tracing has one switch: ``sim.tracer`` is
   a :class:`Tracer` or None (the default).  Every layer reads it from the
   simulator when it emits and guards on ``tracer is not None``, so an
   untraced run pays one test per hook (two in the KV caches, which may
   also stand alone with no simulator) and builds no argument dictionary,
   and a tracer attached or detached with
   :meth:`~repro.sim.Simulator.attach_tracer` at any point takes effect
   for every layer from that instant on.
2. **Determinism.**  Events are recorded in emission order with a
   monotonically increasing sequence number, so two runs of the same seed
   produce byte-identical traces.
3. **Exporter-agnostic.**  A ``track`` is a plain string ("gpu/decode-gc",
   "req/17", "host/MuxWise-inst-host"); exporters map tracks onto Chrome
   pid/tid rows or JSONL fields without the emitting code knowing about
   either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

#: Phase letters, mirroring the Chrome trace-event format.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_BEGIN = "B"
PH_END = "E"
PH_COUNTER = "C"

#: Well-known categories used by the built-in hooks.
CAT_KERNEL = "kernel"
CAT_GREENCTX = "greenctx"
CAT_LAUNCH = "launch"
CAT_LIFECYCLE = "lifecycle"
CAT_CACHE = "cache"
CAT_SCHED = "sched"
CAT_BANDWIDTH = "bandwidth"
CAT_ROUTER = "router"
CAT_FAULT = "fault"
CAT_TENANCY = "tenancy"
CAT_KV_XFER = "kvxfer"

#: Trace track carrying multi-tenant QoS occurrences (rate-limit denials,
#: quota exhaustion, tiered-brownout sheds), one row for the whole fleet.
TENANCY_TRACK = "fleet/tenancy"


@dataclass(slots=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        seq: Emission order (monotonic, unique within a tracer).
        ts: Simulation time in seconds at which the event occurred (for
            complete spans, the *start* of the interval).
        dur: Interval length in seconds (complete spans only; 0 otherwise).
        ph: Phase letter (see the ``PH_*`` constants).
        track: Row this event belongs to, e.g. ``"gpu/decode-gc"``.
        name: Event name, e.g. ``"decode-iter"`` or ``"resize"``.
        cat: Category (see the ``CAT_*`` constants); used for filtering and
            for the per-phase summary breakdown.
        args: Optional free-form payload (token counts, SM sizes, ...).
    """

    seq: int
    ts: float
    dur: float
    ph: str
    track: str
    name: str
    cat: str
    args: dict[str, Any] | None = None


class Tracer:
    """Accumulates :class:`TraceEvent` records for one simulation run.

    Attach to a :class:`~repro.sim.Simulator` with
    :meth:`Simulator.attach_tracer`; instrumented components look the tracer
    up through the simulator at each emit, so every call here records.

    With a ``sink`` (any object with a ``write(TraceEvent)`` method, e.g.
    :class:`repro.trace.exporters.StreamingTraceWriter`), events are
    forwarded instead of accumulated: ``events`` stays empty and memory
    stays flat no matter how long the run — the streaming mode scaled
    traces need.  Batch exporters require the accumulating mode.
    """

    __slots__ = ("events", "sink", "_seq")

    def __init__(self, sink: Any = None) -> None:
        self.events: list[TraceEvent] = []
        self.sink = sink
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events) if self.sink is None else self._seq

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def _emit(
        self,
        ts: float,
        dur: float,
        ph: str,
        track: str,
        name: str,
        cat: str,
        args: dict[str, Any] | None,
    ) -> None:
        event = TraceEvent(self._seq, ts, dur, ph, track, name, cat, args)
        if self.sink is not None:
            self.sink.write(event)
        else:
            self.events.append(event)
        self._seq += 1

    def complete(
        self,
        track: str,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a finished interval ``[start, end]`` on ``track``."""
        self._emit(start, max(0.0, end - start), PH_COMPLETE, track, name, cat, args)

    def instant(
        self,
        track: str,
        name: str,
        cat: str,
        ts: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a zero-duration event at ``ts``."""
        self._emit(ts, 0.0, PH_INSTANT, track, name, cat, args)

    def begin(
        self,
        track: str,
        name: str,
        cat: str,
        ts: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Open a phase on ``track``; close with :meth:`end`."""
        self._emit(ts, 0.0, PH_BEGIN, track, name, cat, args)

    def end(self, track: str, name: str, cat: str, ts: float) -> None:
        """Close the most recently opened phase with ``name`` on ``track``."""
        self._emit(ts, 0.0, PH_END, track, name, cat, None)

    def counter(
        self,
        track: str,
        name: str,
        ts: float,
        values: dict[str, float],
        cat: str = CAT_SCHED,
    ) -> None:
        """Record a sample of one or more numeric series on ``track``."""
        self._emit(ts, 0.0, PH_COUNTER, track, name, cat, dict(values))

    # ------------------------------------------------------------------ #
    # Queries (used by exporters and tests)
    # ------------------------------------------------------------------ #

    def tracks(self) -> list[str]:
        """Distinct track names in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def spans(self, track: str | None = None, cat: str | None = None) -> list[TraceEvent]:
        """Complete spans, optionally filtered by track and/or category."""
        return [
            e
            for e in self.events
            if e.ph == PH_COMPLETE
            and (track is None or e.track == track)
            and (cat is None or e.cat == cat)
        ]

    def instants(self, track: str | None = None, name: str | None = None) -> list[TraceEvent]:
        """Instant events, optionally filtered by track and/or name."""
        return [
            e
            for e in self.events
            if e.ph == PH_INSTANT
            and (track is None or e.track == track)
            and (name is None or e.name == name)
        ]


def busy_seconds(spans: Iterable[TraceEvent]) -> float:
    """Total time covered by the union of span intervals.

    Overlapping spans (which should not occur on a serial stream track, but
    may on aggregated views) are merged so no interval is double-counted.
    """
    intervals = sorted((s.ts, s.ts + s.dur) for s in spans)
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in intervals:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def bubble_ratio_from_spans(
    tracer: Tracer, track: str, start: float, end: float
) -> float:
    """Fraction of ``[start, end]`` in which ``track`` ran nothing.

    The span-derived twin of :meth:`repro.gpu.stream.Stream.bubble_ratio`
    (§4.4.2): both must agree on any window in which the stream's
    accounting was not reset mid-span.
    """
    window = end - start
    if window <= 0:
        return 0.0
    clipped = 0.0
    for span in tracer.spans(track=track):
        lo = max(span.ts, start)
        hi = min(span.ts + span.dur, end)
        if hi > lo:
            clipped += hi - lo
    return max(0.0, 1.0 - clipped / window)
