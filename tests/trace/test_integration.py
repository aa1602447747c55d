"""End-to-end tracing tests: a traced MuxWise run, exporter schema validity,
determinism, and the span-derived bubble ratio cross-check (§4.4.2)."""

import hashlib
import io
import json
from dataclasses import asdict

import pytest

from repro.baselines import ChunkedPrefillServer
from repro.bench import run_system
from repro.core import MuxWiseServer
from repro.gpu import A100, Device, ExecTask, Stream
from repro.sim import Simulator
from repro.trace import (
    Tracer,
    bubble_ratio_from_spans,
    chrome_trace_events,
    phase_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads import sharegpt_workload


def traced_run(cfg):
    tracer = Tracer()
    workload = sharegpt_workload(6, rate=2.0, seed=0)
    result = run_system(lambda sim, c: MuxWiseServer(sim, c), cfg, workload, tracer=tracer)
    return tracer, result


@pytest.fixture(scope="module")
def traced(cfg_8b_single_module):
    return traced_run(cfg_8b_single_module)


@pytest.fixture(scope="module")
def cfg_8b_single_module():
    from repro.models import LLAMA_8B
    from repro.serving import ServingConfig

    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)


class TestMuxWiseTrace:
    def test_kernel_spans_on_both_partitions(self, traced):
        tracer, _ = traced
        tracks = tracer.tracks()
        decode_track = next(t for t in tracks if t.endswith("decode-gc"))
        prefill_track = next(t for t in tracks if t.endswith("prefill-gc"))
        assert tracer.spans(track=decode_track, cat="kernel")
        assert tracer.spans(track=prefill_track, cat="kernel")

    def test_resize_events_recorded(self, traced):
        tracer, _ = traced
        resizes = [s for s in tracer.spans(cat="greenctx") if s.name == "resize"]
        assert resizes
        for span in resizes:
            assert span.args is not None
            assert span.args["from_sms"] != span.args["to_sms"]

    def test_request_lifecycle_rows(self, traced):
        tracer, result = traced
        req_tracks = [t for t in tracer.tracks() if t.startswith("req/")]
        assert len(req_tracks) == result.summary.requests_total
        for track in req_tracks:
            names = [s.name for s in tracer.spans(track=track)]
            assert "prefill" in names and "decode" in names
            finished = tracer.instants(track=track, name="finished")
            assert finished

    def test_lifecycle_spans_ordered_and_non_overlapping(self, traced):
        """Within one request row the queued -> prefill -> decode spans tile
        the request's lifetime back-to-back, deterministically ordered."""
        tracer, _ = traced
        for track in (t for t in tracer.tracks() if t.startswith("req/")):
            spans = tracer.spans(track=track)
            assert spans == sorted(spans, key=lambda s: (s.ts, s.seq))
            for earlier, later in zip(spans, spans[1:]):
                assert earlier.ts + earlier.dur <= later.ts + 1e-9
            assert spans[0].name == "queued"

    def test_launch_spans_present(self, traced):
        tracer, _ = traced
        launches = tracer.spans(cat="launch")
        names = {s.name for s in launches}
        assert "decode-graph" in names
        assert "prefill-piecewise" in names

    def test_trace_is_deterministic(self, cfg_8b_single_module):
        """Two runs of the same seed produce identical traces (request ids
        are globally monotonic, so tracks compare by appearance order)."""
        first, _ = traced_run(cfg_8b_single_module)
        second, _ = traced_run(cfg_8b_single_module)

        def normalized(tracer):
            order = {track: i for i, track in enumerate(tracer.tracks())}
            return [
                (e.seq, e.ts, e.ph, order[e.track], e.name, e.cat, e.dur)
                for e in tracer.events
            ]

        assert normalized(first) == normalized(second)


def chunked_server(cfg, tracer=None):
    """A chunked-prefill server on a fresh simulator (``tracer`` attached
    before the build), 50 ShareGPT requests submitted over about 8 s;
    chunked decode batches are where the decode fast path elides chains."""
    sim = Simulator()
    sim.attach_tracer(tracer)
    server = ChunkedPrefillServer(sim, cfg, token_budget=256)
    server.submit(sharegpt_workload(50, rate=6.0, seed=0))
    return sim, server


def result_digest(sim, server) -> str:
    """SHA-256 over what the run computed (summary, cache stats, event
    counts) — the same payload the benchmark digests per replica."""
    payload = {
        "summary": server.metrics.summarize().as_dict(),
        "cache": [asdict(server.instance.cache.stats)],
        "events": sim.processed_events,
        "peak_event_queue": sim.max_event_queue,
    }
    canon = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class TestOneSwitch:
    """``sim.tracer`` is the only switch, and every layer reads it live."""

    def test_tracer_attached_after_build_records_every_layer(self, cfg_8b_single_module):
        sim, server = chunked_server(cfg_8b_single_module)
        tracer = Tracer()
        sim.attach_tracer(tracer)
        server.run()
        prefixes = {track.split("/", 1)[0] for track in tracer.tracks()}
        assert {"gpu", "req", "kvcache"} <= prefixes
        assert tracer.instants(track=server.instance.cache.trace_track)

    def test_detached_tracer_records_nothing_more(self, cfg_8b_single_module):
        tracer = Tracer()
        sim, server = chunked_server(cfg_8b_single_module, tracer)
        server.run(until=4.0)  # about half the arrivals
        assert tracer.instants(track=server.instance.cache.trace_track)
        recorded = len(tracer)
        sim.attach_tracer(None)
        server.run()
        assert len(tracer) == recorded
        assert sim.counters.chains_elided > 0  # the fast path took over

    def test_tracing_leaves_the_result_byte_identical(self, cfg_8b_single_module):
        """Tracing observes only: a traced chunked run computes exactly what
        the untraced one does, though only the untraced one elides chains."""
        plain_sim, plain = chunked_server(cfg_8b_single_module)
        plain.run()
        tracer = Tracer()
        traced_sim, traced = chunked_server(cfg_8b_single_module, tracer)
        traced.run()
        assert len(tracer) > 0
        assert plain_sim.counters.chains_elided > 0
        assert traced_sim.counters.chains_elided == 0
        assert traced.metrics.summarize().as_dict() == plain.metrics.summarize().as_dict()
        assert result_digest(traced_sim, traced) == result_digest(plain_sim, plain)


class TestBubbleCrossCheck:
    def test_stream_bubble_matches_span_derived_ratio(self):
        """The §4.4.2 bubble ratio computed from trace spans must agree with
        the stream's own busy-time accounting."""
        sim = Simulator()
        tracer = Tracer()
        sim.attach_tracer(tracer)
        device = Device(sim, A100)
        stream = Stream(device, 54)

        def task(seconds):
            return ExecTask(flops=device.compute_rate(54) * seconds, bytes=0.0)

        stream.submit(task(0.3))
        sim.schedule(0.5, lambda: stream.resize(27))
        sim.schedule(0.7, lambda: stream.submit(task(0.2)))
        sim.schedule(1.2, lambda: None)  # idle tail extends the window
        sim.run()
        expected = stream.bubble_ratio()
        derived = bubble_ratio_from_spans(tracer, stream.trace_track, 0.0, sim.now)
        assert derived == pytest.approx(expected, abs=1e-9)

    def test_muxwise_run_bubble_cross_check(self, traced):
        tracer, _ = traced
        # Rebuild the window from the trace itself: accounting started at 0.
        spans = tracer.spans(cat="kernel") + tracer.spans(cat="greenctx")
        window_end = max(s.ts + s.dur for s in spans)
        for suffix in ("decode-gc", "prefill-gc"):
            track = next(t for t in tracer.tracks() if t.endswith(suffix))
            derived = bubble_ratio_from_spans(tracer, track, 0.0, window_end)
            assert 0.0 <= derived <= 1.0


class TestExporters:
    def test_chrome_json_schema(self, traced):
        tracer, _ = traced
        buffer = io.StringIO()
        write_chrome_trace(tracer, buffer)
        payload = json.loads(buffer.getvalue())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert event["ph"] in {"X", "i", "B", "E", "C", "M"}
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "name" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0
        metadata = [e for e in events if e["ph"] == "M"]
        thread_names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
        assert set(tracer.tracks()) == thread_names

    def test_chrome_rows_group_by_process(self, traced):
        tracer, _ = traced
        events = chrome_trace_events(tracer)
        by_name = {
            e["args"]["name"]: e["pid"] for e in events if e.get("name") == "thread_name"
        }
        gpu_pids = {pid for name, pid in by_name.items() if name.startswith("gpu/")}
        req_pids = {pid for name, pid in by_name.items() if name.startswith("req/")}
        assert len(gpu_pids) == 1
        assert len(req_pids) == 1
        assert gpu_pids != req_pids

    def test_jsonl_round_trip(self, traced):
        tracer, _ = traced
        buffer = io.StringIO()
        write_jsonl(tracer, buffer)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert len(lines) == len(tracer.events)
        assert [r["seq"] for r in lines] == [e.seq for e in tracer.events]

    def test_phase_summary_mentions_phases(self, traced):
        tracer, _ = traced
        text = phase_summary(tracer)
        for needle in ("queued", "prefill", "decode", "decode-iter"):
            assert needle in text

    def test_phase_summary_empty_tracer(self):
        assert "no events" in phase_summary(Tracer())
