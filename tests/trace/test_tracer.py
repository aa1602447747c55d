"""Unit tests for the Tracer core: recording, ordering, attach and detach."""

from repro.sim import Simulator
from repro.trace import Tracer, bubble_ratio_from_spans, busy_seconds
from repro.trace.tracer import PH_COMPLETE, PH_INSTANT


class TestRecording:
    def test_complete_span_records_interval(self):
        tracer = Tracer()
        tracer.complete("gpu/s", "kern", "kernel", 1.0, 2.5, {"sms": 54})
        (event,) = tracer.events
        assert event.ph == PH_COMPLETE
        assert event.ts == 1.0
        assert event.dur == 1.5
        assert event.args == {"sms": 54}

    def test_instant_has_zero_duration(self):
        tracer = Tracer()
        tracer.instant("sched", "preempt", "sched", 3.0)
        (event,) = tracer.events
        assert event.ph == PH_INSTANT
        assert event.dur == 0.0

    def test_counter_copies_values(self):
        tracer = Tracer()
        values = {"decode": 16.0}
        tracer.counter("sched", "sms", 0.0, values)
        values["decode"] = 99.0
        assert tracer.events[0].args == {"decode": 16.0}

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.complete("t", "x", "c", 2.0, 1.0)
        assert tracer.events[0].dur == 0.0

    def test_sequence_numbers_strictly_increase(self):
        tracer = Tracer()
        for i in range(10):
            tracer.instant("t", "e", "c", float(i))
        seqs = [e.seq for e in tracer.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10

    def test_tracks_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.instant("b", "e", "c", 0.0)
        tracer.instant("a", "e", "c", 0.0)
        tracer.instant("b", "e", "c", 1.0)
        assert tracer.tracks() == ["b", "a"]

    def test_span_and_instant_filters(self):
        tracer = Tracer()
        tracer.complete("x", "k", "kernel", 0.0, 1.0)
        tracer.complete("y", "k", "launch", 0.0, 1.0)
        tracer.instant("x", "evict", "cache", 0.5)
        assert len(tracer.spans()) == 2
        assert len(tracer.spans(track="x")) == 1
        assert len(tracer.spans(cat="launch")) == 1
        assert len(tracer.instants(name="evict")) == 1


class TestDisabledFastPath:
    def test_simulator_has_no_tracer_by_default(self):
        assert Simulator().tracer is None

    def test_attach_and_detach(self):
        sim = Simulator()
        tracer = Tracer()
        sim.attach_tracer(tracer)
        assert sim.tracer is tracer
        sim.attach_tracer(None)
        assert sim.tracer is None


class TestIntervalMath:
    def test_busy_seconds_merges_overlaps(self):
        tracer = Tracer()
        tracer.complete("t", "a", "c", 0.0, 2.0)
        tracer.complete("t", "b", "c", 1.0, 3.0)
        tracer.complete("t", "c", "c", 5.0, 6.0)
        assert busy_seconds(tracer.spans()) == 4.0

    def test_bubble_ratio_from_spans_basic(self):
        tracer = Tracer()
        tracer.complete("t", "a", "c", 0.0, 1.0)
        tracer.complete("t", "b", "c", 3.0, 4.0)
        assert bubble_ratio_from_spans(tracer, "t", 0.0, 4.0) == 0.5

    def test_bubble_ratio_clips_to_window(self):
        tracer = Tracer()
        tracer.complete("t", "a", "c", 0.0, 10.0)
        assert bubble_ratio_from_spans(tracer, "t", 2.0, 4.0) == 0.0

    def test_bubble_ratio_empty_window(self):
        assert bubble_ratio_from_spans(Tracer(), "t", 1.0, 1.0) == 0.0
        assert bubble_ratio_from_spans(Tracer(), "t", 0.0, 2.0) == 1.0
