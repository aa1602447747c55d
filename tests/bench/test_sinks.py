"""Streaming sinks: flat memory over growing event streams, exact output.

The scaled perf tiers only work if output cost is O(batch), not O(trace):
a 10x run's trace no longer fits comfortably in memory.  The tracemalloc
test below pins that contract by streaming 10^4 and then 10^5 events and
requiring the same peak; the remaining tests pin that streaming produces
byte-for-byte the same files and records the batch paths do.
"""

import io
import json
import tracemalloc

import pytest

from repro.bench.sinks import CountingSink, JsonlSink, ListSink
from repro.kvcache.radix import Segment
from repro.serving.metrics import MetricsCollector
from repro.serving.slo import SLO
from repro.trace import StreamingTraceWriter, Tracer, write_jsonl
from repro.workloads.request import Request

#: Stream lengths of the flat-memory test: a 10x longer stream must not
#: raise the peak, so the sinks absorb any scale-tier trace volume.
STREAM_EVENTS = (10_000, 100_000)

#: Peak traced allocation allowed while streaming.  The buffer holds at
#: most ``batch`` serialized lines (~100 bytes each); 10^5 *accumulated*
#: TraceEvents would already be well over 10 MB.
PEAK_BUDGET = 32 * 1024 * 1024

#: Largest allowed growth of the peak from the short to the long stream.
PEAK_GROWTH = 1.25


class TestJsonlSink:
    def test_flushes_in_batches(self):
        out = io.StringIO()
        sink = JsonlSink(out, batch=3)
        for i in range(7):
            sink.emit({"i": i})
        assert len(out.getvalue().splitlines()) == 6  # two full batches
        sink.close()
        lines = out.getvalue().splitlines()
        assert [json.loads(line)["i"] for line in lines] == list(range(7))
        assert sink.records_emitted == 7

    def test_close_is_idempotent_and_final(self):
        out = io.StringIO()
        sink = JsonlSink(out, batch=10)
        sink.emit({"a": 1})
        sink.close()
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"a": 2})

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError, match="batch"):
            JsonlSink(io.StringIO(), batch=0)

    def test_owns_path_destination(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(str(path), batch=100) as sink:
            sink.emit({"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}


class TestStreamingTracer:
    def test_streamed_file_matches_batch_export(self, tmp_path):
        def emit_all(tracer):
            tracer.complete("gpu/dev", "kernel", "kernel", 0.0, 1.5e-3, {"sms": 8})
            tracer.instant("sched/q", "enqueue", "sched", 2e-3)
            tracer.counter("kvcache/pool", "used", 3e-3, {"pages": 7.0})

        batch_tracer = Tracer()
        emit_all(batch_tracer)
        batch_file = io.StringIO()
        write_jsonl(batch_tracer, batch_file)

        stream_path = tmp_path / "stream.jsonl"
        with StreamingTraceWriter(str(stream_path), batch=2) as writer:
            stream_tracer = Tracer(sink=writer)
            emit_all(stream_tracer)
        assert stream_path.read_text() == batch_file.getvalue()
        assert stream_tracer.events == []  # nothing accumulated
        assert len(stream_tracer) == 3

    def test_million_event_stream_keeps_flat_memory(self, tmp_path):
        peaks = []
        for events in STREAM_EVENTS:
            path = tmp_path / f"stream-{events}.jsonl"
            writer = StreamingTraceWriter(str(path), batch=4096)
            tracer = Tracer(sink=writer)
            emit = tracer.instant
            tracemalloc.start()
            for i in range(events):
                emit("gpu/dev", "tick", "kernel", i * 1e-6)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            writer.close()
            assert writer.events_written == events
            assert tracer.events == []
            assert peak < PEAK_BUDGET, f"peak {peak / 1e6:.1f} MB"
            # Count the file's lines without loading it whole.
            with open(path, encoding="utf-8") as fh:
                count = sum(1 for _ in fh)
            assert count == events
            peaks.append(peak)
        # Peak is O(batch), not O(trace): 10x the events, same peak.
        short, long = peaks
        assert long <= PEAK_GROWTH * short, f"peaks {short / 1e6:.2f} -> {long / 1e6:.2f} MB"


def _request(session_id=0):
    seg = Segment(uid=f"req-{session_id}", tokens=16)
    return Request(
        session_id=session_id,
        turn_index=0,
        arrival_time=0.0,
        history=[],
        new_input=seg,
        output_tokens=4,
    )


class TestMetricsSinkTap:
    def test_tap_records_every_gap_in_order(self):
        sink = ListSink()
        metrics = MetricsCollector(SLO(tbt=0.1), sink=sink)
        request = _request()
        metrics.on_arrival(request, 0.0)
        metrics.on_prefill_done(request, 0.5, 16)
        metrics.on_tokens(request, 0.6)
        metrics.on_tokens(request, 0.75, count=2)
        assert sink.records == [
            {"req": 0, "ts": 0.6, "gaps": [0.6 - 0.5]},
            {"req": 0, "ts": 0.75, "gaps": [0.75 - 0.6, 0.0]},
        ]
        # The tap is additive: the record still holds the full gap list.
        gaps = metrics.records[request.request_id].token_gaps
        assert gaps == [0.6 - 0.5, 0.75 - 0.6, 0.0]

    def test_counting_sink_smoke(self):
        sink = CountingSink()
        metrics = MetricsCollector(SLO(tbt=0.1), sink=sink)
        request = _request(1)
        metrics.on_arrival(request, 0.0)
        metrics.on_prefill_done(request, 0.1, 16)
        metrics.on_tokens(request, 0.2)
        assert sink.records_emitted == 1
