"""Property: the co-run dry run IS the scalar heap's event sequence.

:class:`repro.sim.fastpath.CoRunPlan` replays one replica's host thread,
two streams and device for at most two tasks without touching the heap.
Random two-lane programmes — a decode-like lane and a prefill-like lane,
each relaunching its next task through the shared host thread when the
previous one completes, with drawn work, SM partitions, host launch times
and serialized tails — run through the plan and, in lockstep, through the
real heap on the frozen :class:`tests.gpu.reference_device.ReferenceDevice`
with real :class:`~repro.gpu.host.HostThread` and
:class:`~repro.gpu.stream.Stream` objects.

Both must agree bit for bit on every fired event's time, the state at
every completion (clock, device integrals, occupancy) and the host and
stream busy time.  The reference run is also stopped at, just before and
just after drawn virtual instants: the events it fired by then must be
exactly the plan's.  (Pushes and cancels are the heap's shape, which the
plan does not keep.)
"""

from __future__ import annotations

import itertools
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device, ExecTask
from repro.gpu.host import HostThread
from repro.gpu.specs import A100
from repro.gpu.stream import Stream
from repro.sim import Simulator
from repro.sim.fastpath import CoRunPlan
from tests.gpu.reference_device import ReferenceDevice, ReferenceExecTask

FULL_FLOPS = A100.effective_flops
FULL_BW = A100.effective_bandwidth

seconds = st.floats(min_value=1e-5, max_value=2e-2)
tails = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5e-3))
launch_times = st.floats(min_value=0.0, max_value=2e-3)


@st.composite
def tasks(draw):
    """``(flops, bytes, fixed tail, host launch)`` with non-zero work."""
    flops = FULL_FLOPS * draw(seconds)
    nbytes = FULL_BW * draw(seconds)
    return (flops, nbytes, draw(tails), draw(launch_times))


lanes = st.lists(tasks(), min_size=1, max_size=5)

_reference_ids = itertools.count()


class ReferenceStreamTask(ExecTask):
    """A task streams accept, planned by the reference device: it carries
    :class:`ReferenceExecTask`'s demand helper and a task id."""

    bandwidth_demand = ReferenceExecTask.bandwidth_demand

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.task_id = next(_reference_ids)


class FiredLog:
    """The time of every scalar event the plan fires, read from
    :meth:`CoRunPlan.next_completion`'s locals by a line tracer: each
    event moves the loop's clock ``now`` and then increments its ``fired``
    count, and the time is logged at that increment.  Tracing is this
    test's own and is off outside the block, so the plan pays nothing for
    it."""

    code = CoRunPlan.next_completion.__code__

    def __init__(self) -> None:
        self.fired: list[float] = []

    def __enter__(self) -> "FiredLog":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        if frame.f_code is not self.code:
            return None
        seen = [None]

        def line(frame, event, arg):
            fired = frame.f_locals.get("fired")
            if fired is not None:
                if seen[0] is not None and fired != seen[0]:
                    assert fired == seen[0] + 1
                    self.fired.append(frame.f_locals["now"])
                seen[0] = fired
            return line

        return line


def _reference(programme, decode_sms, until=math.inf, spec=A100):
    """Run the programme on the real heap; returns what it observed."""
    sim = Simulator()
    device = ReferenceDevice(sim, spec)
    host = HostThread(sim)
    streams = [
        Stream(device, decode_sms, name="decode"),
        Stream(device, spec.sms - decode_sms, name="prefill"),
    ]
    states: list[tuple] = []

    def launch(lane: int, index: int) -> None:
        flops, nbytes, fixed, launch_s = programme[lane][index]
        task = ReferenceStreamTask(
            flops, nbytes, fixed_time=fixed, on_complete=lambda _t: done(lane, index)
        )
        host.enqueue(launch_s, lambda: streams[lane].submit(task))

    def done(lane: int, index: int) -> None:
        states.append(
            (
                lane,
                sim.now,
                device._last_advance,
                device._bw_capacity_seconds,
                device._sm_seconds,
                device._bw_bytes_served,
                device._sm_occupancy,
                host.busy_seconds,
                tuple(stream._busy_seconds for stream in streams),
            )
        )
        if index + 1 < len(programme[lane]):
            launch(lane, index + 1)

    for lane in (0, 1):
        launch(lane, 0)
    fired: list[float] = []
    while True:
        event = sim.peek_event()
        if event is None or event.time > until:
            break
        fired.append(event.time)
        sim.step()
    return sim, fired, states


def _planned(programme, decode_sms, spec=A100):
    """Run the programme through the dry run; returns the plan, the times
    of the events it fired and the state at each completion."""
    sim = Simulator()
    device = Device(sim, spec)
    plan = CoRunPlan(sim, device, HostThread(sim), math.inf)
    lane_of = [
        plan.lane(Stream(device, decode_sms, name="decode")),
        plan.lane(Stream(device, spec.sms - decode_sms, name="prefill")),
    ]
    which: dict[int, tuple[int, int]] = {}

    def launch(lane: int, index: int) -> None:
        flops, nbytes, fixed, launch_s = programme[lane][index]
        task = ExecTask(flops, nbytes, fixed_time=fixed)
        which[id(task)] = (lane, index)
        plan.launch(launch_s, lane_of[lane], task, "")

    for lane in (0, 1):
        launch(lane, 0)
    states: list[tuple] = []
    remaining = sum(len(tasks) for tasks in programme)
    with FiredLog() as log:
        while remaining:
            lane, index = which[id(plan.next_completion().task)]
            plan.release(lane_of[lane])
            states.append(
                (
                    lane,
                    plan.now,
                    plan.last,
                    plan.bw_cap,
                    plan.sm_sec,
                    plan.served,
                    plan.occ,
                    plan.host_seconds,
                    tuple(each.seconds for each in lane_of),
                )
            )
            remaining -= 1
            if index + 1 < len(programme[lane]):
                launch(lane, index + 1)
    return plan, log.fired, states


@settings(max_examples=150 * settings.default.max_examples // 100, deadline=None)
@given(
    decode=lanes,
    prefill=lanes,
    decode_sms=st.integers(min_value=1, max_value=A100.sms - 1),
    interrupts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
)
def test_dry_run_matches_the_heap_in_lockstep(decode, prefill, decode_sms, interrupts):
    programme = (decode, prefill)
    plan, planned_fired, planned_states = _planned(programme, decode_sms)
    _, fired, states = _reference(programme, decode_sms)
    assert planned_states == states
    assert planned_fired == fired
    assert plan.fired == len(fired)
    # Stop the heap at, just before and just after planned instants.
    for pick in interrupts:
        instant = planned_fired[pick % len(planned_fired)]
        before = math.nextafter(instant, -math.inf)
        after = math.nextafter(instant, math.inf)
        for until in (before, instant, after):
            _, fired_by, _ = _reference(programme, decode_sms, until)
            assert fired_by == [t for t in planned_fired if t <= until]


def test_pair_factors_follow_each_devices_contention():
    """Two devices that differ only in ``contention_kappa`` co-run the same
    SM pair in one process: each plan must use its own device's
    interference factors, as each device does."""
    task = (FULL_FLOPS * 4e-3, FULL_BW * 4e-3, 0.0, 1e-4)
    programme = ([task, task], [task, task])
    for kappa in (A100.contention_kappa, 2.5 * A100.contention_kappa):
        spec = A100.with_overrides(contention_kappa=kappa)
        _, _, planned_states = _planned(programme, 16, spec)
        _, _, states = _reference(programme, 16, spec=spec)
        assert planned_states == states
