"""Bit-equality of the device's fast paths against the reference oracle.

:class:`Device` plans one and two active tasks through shortcuts of its
general path (a lone fused step; MuxWise's decode and prefill green
contexts co-running), advances, snaps and retires in one fused pass per
phase change, and uses a slotted :class:`ExecTask`.  None of that may
change a single bit: random programmes of submits, stalls, degradations
and utilisation probes run on a :class:`Device` and on the verbatim
pre-optimisation :class:`ReferenceDevice` in lockstep, and after every
event both must agree exactly on the clock, each task's remaining work and
rates, the utilisation integrals, the event counters and the trace.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import A100, Device, ExecTask
from repro.gpu.device import _waterfill2, waterfill
from repro.sim import Simulator
from repro.trace import Tracer
from tests.gpu.reference_device import ReferenceDevice, ReferenceExecTask

TOTAL_SMS = A100.sms
#: The A100's solo rates, for sizing work in seconds of device time.
FULL_FLOPS = A100.effective_flops
FULL_BW = A100.effective_bandwidth

seconds = st.floats(min_value=1e-5, max_value=5e-2)
sm_counts = st.one_of(
    st.integers(min_value=1, max_value=TOTAL_SMS),
    st.floats(min_value=0.25, max_value=float(TOTAL_SMS)),
)


@st.composite
def submits(draw):
    zero_work = draw(st.integers(0, 9)) == 0
    flops = 0.0 if zero_work else FULL_FLOPS * draw(st.one_of(st.just(0.0), seconds))
    nbytes = 0.0 if zero_work else FULL_BW * draw(st.one_of(st.just(0.0), seconds))
    fixed = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e-2)))
    max_bw = draw(
        st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.05, max_value=1.5).map(lambda f: f * FULL_BW),
        )
    )
    return ("submit", flops, nbytes, draw(sm_counts), fixed, max_bw)


operations = st.one_of(
    submits(),
    submits(),
    submits(),
    st.tuples(
        st.just("stall"), st.one_of(st.none(), st.floats(min_value=1e-4, max_value=2e-2))
    ),
    st.just(("unstall",)),
    st.tuples(
        st.just("degrade"),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.1, max_value=1.0),
    ),
    st.just(("probe",)),
)

#: (start time, operation) pairs; starts cluster so 1-4 tasks overlap.
programmes = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.08), operations),
    min_size=1,
    max_size=12,
)


#: Clock origins: late in a long run an ulp of the clock (~2e-13 s at
#: t=1327 s) outgrows the residues the completion floors leave, which is
#: what the sub-ulp snap exists for.
origins = st.sampled_from([0.0, 1327.25, 2.0**20])


class Harness:
    """One device on its own simulator, driven by a programme."""

    def __init__(self, device_cls, task_cls, origin: float) -> None:
        self.sim = Simulator(origin)
        self.tracer = Tracer()
        self.sim.attach_tracer(self.tracer)
        self.device = device_cls(self.sim, A100, name="gpu")
        self.task_cls = task_cls
        self.finished: list[tuple[int, float]] = []
        self.probes: list[tuple[float, float]] = []

    def load(self, programme) -> None:
        origin = self.sim.now
        for index, (start, op) in enumerate(programme):
            self.sim.schedule_at(origin + start, lambda i=index, op=op: self.apply(i, op))

    def apply(self, index: int, op: tuple) -> None:
        kind = op[0]
        device = self.device
        if kind == "submit":
            _, flops, nbytes, sm, fixed, max_bw = op
            task = self.task_cls(
                flops=flops,
                bytes=nbytes,
                sm_count=sm,
                fixed_time=fixed,
                max_bandwidth=max_bw,
                on_complete=lambda t, i=index: self.finished.append((i, t)),
            )
            device.submit(task)
        elif kind == "stall":
            device.stall(op[1])
        elif kind == "unstall":
            device.unstall()
        elif kind == "degrade":
            device.set_degradation(op[1], op[2])
        else:
            self.probes.append((device.sm_utilization(), device.bandwidth_utilization()))

    def state(self) -> tuple:
        device = self.device
        return (
            self.sim.now,
            self.sim.processed_events,
            self.sim.pending_events,
            tuple(
                (t.rem_flops, t.rem_bytes, t.compute_rate, t.bw_rate)
                for t in device._active
            ),
            device._sm_occupancy,
            device._sm_seconds,
            device._bw_bytes_served,
            device._bw_capacity_seconds,
            device._last_advance,
            device._update_event is None,
        )


def run_lockstep(programme, origin: float = 0.0) -> tuple[Harness, Harness]:
    fast = Harness(Device, ExecTask, origin)
    slow = Harness(ReferenceDevice, ReferenceExecTask, origin)
    fast.load(programme)
    slow.load(programme)
    # Every stall gets cleared eventually, so both runs drain.
    for harness in (fast, slow):
        harness.sim.schedule_at(origin + 1.0, harness.device.unstall)
    while True:
        stepped = fast.sim.step()
        assert stepped == slow.sim.step()
        if not stepped:
            break
        assert fast.state() == slow.state()
    return fast, slow


@settings(
    max_examples=300 * settings.default.max_examples // 100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programmes, origins)
def test_device_matches_reference_bit_for_bit(programme, origin):
    fast, slow = run_lockstep(programme, origin)
    assert fast.finished == slow.finished
    assert fast.probes == slow.probes
    assert fast.sim.max_event_queue == slow.sim.max_event_queue
    assert fast.tracer.events == slow.tracer.events
    assert fast.device.sm_utilization() == slow.device.sm_utilization()
    assert fast.device.bandwidth_utilization() == slow.device.bandwidth_utilization()


@settings(max_examples=200 * settings.default.max_examples // 100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, 0.02), submits()), min_size=2, max_size=6),
    origins,
)
def test_co_running_pairs_match_reference(programme, origin):
    """Submits only, tightly clustered: mostly two-task co-runs."""
    fast, slow = run_lockstep(programme, origin)
    assert fast.finished == slow.finished
    assert fast.sim.max_event_queue == slow.sim.max_event_queue


def test_pair_path_keeps_the_compute_rate_range_error():
    for device_cls, task_cls in ((Device, ExecTask), (ReferenceDevice, ReferenceExecTask)):
        sim = Simulator()
        device = device_cls(sim, A100)
        device.submit(task_cls(flops=FULL_FLOPS, bytes=FULL_BW, sm_count=40))
        with pytest.raises(ValueError, match="out of range"):
            device.submit(task_cls(flops=FULL_FLOPS, bytes=FULL_BW, sm_count=TOTAL_SMS + 1))


@pytest.mark.parametrize("sm_count", [0, TOTAL_SMS + 1])
def test_lone_path_keeps_the_compute_rate_range_error(sm_count):
    for device_cls, task_cls in ((Device, ExecTask), (ReferenceDevice, ReferenceExecTask)):
        sim = Simulator()
        device = device_cls(sim, A100)
        with pytest.raises(ValueError, match="out of range"):
            device.submit(task_cls(flops=FULL_FLOPS, bytes=FULL_BW, sm_count=sm_count))


demands = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=2.0 * FULL_BW, allow_nan=False),
    st.sampled_from([FULL_BW / 2, FULL_BW / 2 + 1e-9, FULL_BW / 2 - 1e-9, FULL_BW - 1.0]),
)


@settings(max_examples=2000 * settings.default.max_examples // 100, deadline=None)
@given(demands, demands, st.one_of(st.just(FULL_BW), st.floats(0.0, 2.0 * FULL_BW)))
def test_two_demand_waterfill_matches_rounds(d0, d1, capacity):
    assert _waterfill2(d0, d1, capacity) == tuple(waterfill([d0, d1], capacity))


@pytest.mark.parametrize(
    "d0, d1",
    [
        # One capped at exactly share + eps, the other takes the rest.
        (FULL_BW / 2 + 1e-9, FULL_BW),
        (FULL_BW, FULL_BW / 2 + 1e-9),
        # Exactly at the under-capacity margin.
        (FULL_BW / 2 - 0.5, FULL_BW / 2 - 0.5),
        (FULL_BW - 1.0, 0.0),
        (math.inf, 1.0),
        (1e-10, math.inf),
        (0.0, 0.0),
    ],
)
def test_two_demand_waterfill_boundaries(d0, d1):
    assert _waterfill2(d0, d1, FULL_BW) == tuple(waterfill([d0, d1], FULL_BW))
