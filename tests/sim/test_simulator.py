"""Unit tests for the discrete-event simulator core."""

import math

import pytest

from repro.sim import PRIORITY_EARLY, PRIORITY_LATE, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda lab=label: order.append(lab))
        sim.run()
        assert order == list("abcde")

    def test_sequence_numbers_are_per_simulator(self):
        """Each simulator numbers its own events from 0, whatever other
        simulators in the process have scheduled before it."""
        other = Simulator()
        for _ in range(3):
            other.schedule(1.0, lambda: None)
        fresh = Simulator()
        assert fresh.schedule(1.0, lambda: None).seq == 0
        assert fresh.schedule(1.0, lambda: None).seq == 1

    def test_priority_overrides_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("normal"))
        sim.schedule(1.0, lambda: order.append("early"), priority=PRIORITY_EARLY)
        sim.schedule(1.0, lambda: order.append("late"), priority=PRIORITY_LATE)
        sim.run()
        assert order == ["early", "normal", "late"]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_zero_delay_event_from_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("fired"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancelled_events_do_not_count_as_pending(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        seen = []
        later = sim.schedule(2.0, lambda: seen.append("later"))
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert seen == []

    def test_heap_compacts_when_mostly_cancelled(self):
        """Cancelled events used to linger until they reached the heap head;
        a schedule/cancel loop grew the queue without bound."""
        sim = Simulator()
        for _ in range(10_000):
            sim.schedule(1.0, lambda: None).cancel()
        # All dead weight is gone from the queue, not just uncounted.
        assert len(sim._heap) < Simulator.COMPACT_MIN_SIZE
        assert sim.pending_events == 0

    def test_pending_events_is_exact_after_mixed_cancellation(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending_events == 250
        assert sim.pending_events == sum(
            1 for entry in sim._heap if not entry[3].cancelled
        )
        fired = []
        sim.schedule(600.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [600.0]
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        event.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_leaves_clock_at_last_event_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 1.0  # no artificial idle time appended

    def test_max_events_limits_firing(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: seen.append(i))
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_max_events_with_until_does_not_jump_clock(self):
        """Stopping on max_events must not clamp the clock to ``until``:
        events scheduled before ``until`` are still pending, and a resumed
        run would otherwise fire them with the clock moving backwards."""
        sim = Simulator()
        times = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda: times.append(sim.now))
        sim.run(until=10.0, max_events=2)
        assert times == [1.0, 2.0]
        assert sim.now == 2.0  # not clamped to 10.0
        sim.run(until=10.0)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert times == sorted(times)  # monotone across the resume
        assert sim.now == 5.0

    def test_resume_after_max_events_keeps_time_monotone_stepwise(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=50.0, max_events=1)
        before = sim.now
        sim.step()
        assert sim.now >= before

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_event_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0

    def test_chained_events_advance_clock(self):
        sim = Simulator()
        times = []

        def chain(depth: int):
            times.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run()
        assert times == [1.0, 2.0, 3.0, 4.0]


class TestStretchHorizon:
    """``Simulator.horizon`` and the pending-stretch guard of the decode
    fast path (``repro.sim.fastpath``)."""

    @staticmethod
    def _fleet_like(isolated: bool) -> Simulator:
        sim = Simulator()
        sim.set_isolation(lambda: isolated)
        sim.schedule_at(5.0, lambda: None)  # an unscoped arrival
        sim.schedule_at(1.0, lambda: None, scope="b")  # another replica
        sim.schedule_at(3.0, lambda: None, scope="a")  # this replica
        return sim

    def test_unscoped_horizon_is_the_raw_head(self):
        sim = self._fleet_like(isolated=True)
        assert sim.horizon(None) == 1.0
        # The whole queue's head, but a live one: a cancelled head is
        # dropped, as the run loop drops it.
        sim.schedule_at(0.5, lambda: None).cancel()
        assert sim.horizon(None) == 1.0
        assert sim.pending_events == len(sim._heap) == 3

    def test_excluded_head_yields_the_next_live_entry(self):
        sim = Simulator()
        taken = sim.schedule_at(1.0, lambda: None)
        # Cancelled entries just below the excluded head are skipped too.
        for time in (1.5, 2.0, 2.5, 3.0):
            sim.schedule_at(time, lambda: None).cancel()
        sim.schedule_at(4.0, lambda: None)
        assert sim.horizon(None, exclude=taken) == 4.0
        sim.schedule_at(3.5, lambda: None)
        assert sim.horizon(None, exclude=taken) == 3.5
        only = Simulator()
        assert only.horizon(None, exclude=only.schedule_at(1.0, lambda: None)) == math.inf

    def test_isolated_scope_sees_only_its_own_and_unscoped_events(self):
        sim = self._fleet_like(isolated=True)
        assert sim.horizon("a") == 3.0
        assert sim.horizon("b") == 1.0
        assert sim.horizon("c") == 5.0
        # Fired and cancelled unscoped events no longer bound it.
        sim.schedule_at(2.0, lambda: None).cancel()
        assert sim.horizon("c") == 5.0

    def test_without_isolation_every_scope_sees_the_raw_head(self):
        sim = self._fleet_like(isolated=False)
        assert sim.horizon("a") == sim.horizon("c") == 1.0
        plain = Simulator()
        plain.schedule_at(1.0, lambda: None, scope="b")
        assert plain.horizon("a") == 1.0

    def test_reaching_into_a_pending_stretch_raises(self):
        sim = Simulator()
        fired = []
        with sim.scope("a"):
            sim.begin_stretch(2.0, lambda: (sim.end_stretch(), fired.append(sim.now)))
        assert "a" in sim._stretch_ends
        with pytest.raises(SimulationError, match=r"'a' inside its decode stretch ending at 2\.0"):
            sim.schedule_at(1.5, lambda: None, scope="a")
        with pytest.raises(SimulationError, match="ending at 2.000000000"):
            sim.schedule_at(2.0, lambda: None, scope=None)
        # Other scopes, and anything after the stretch, are free.
        sim.schedule_at(1.0, lambda: None, scope="b")
        sim.schedule_at(2.5, lambda: None, scope="a")
        sim.run()
        assert fired == [2.0] and not sim._stretch_ends

    def test_counters_tally_pushes_and_cancels(self):
        sim = Simulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(4)]
        events[0].cancel()
        events[0].cancel()
        sim.run()
        events[1].cancel()  # already fired: not a queued cancellation
        assert sim.counters.pushes == 4
        assert sim.counters.cancels == 1
