"""Property: a planned decode iteration IS the scalar heap's event sequence.

For random batch compositions (context lengths, batch sizes, idle gaps,
start times, SM partitions, host launch offsets and stream lanes), the
lone step :func:`repro.sim.fastpath.plan_chain` must predict exactly what
the scalar simulator does when the same task goes through the real heap —
submitted straight to the device, or by a host launch first, as MuxWise's
engine does, directly or through a stream: the same number of fired
events, the same per-event times, the same completion instant, and
bit-equal device, host and stream accounting once the plan is written back
(:func:`repro.sim.fastpath.commit_chain`).  No tolerance anywhere — the
fast path's contract is byte-identity, so every float must match with
``==``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device, ExecTask
from repro.gpu.host import HostThread
from repro.gpu.specs import A100
from repro.gpu.stream import Stream
from repro.models.config import LLAMA_8B
from repro.models.costs import CostModel
from repro.sim import Simulator
from repro.sim.fastpath import CoRunPlan, commit_chain, plan_chain

#: One cost model for the whole module; its per-batch-size caches make
#: repeated examples cheap, exactly as in the serving loops.
MODEL = CostModel(LLAMA_8B, n_gpus=1)

#: Decode launch overhead used by the serving configs (seconds).
LAUNCH = 0.45e-3

batch_compositions = st.lists(
    st.integers(min_value=1, max_value=8192), min_size=1, max_size=48
)
start_times = st.floats(
    min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False
)
#: The task's SM partition: the whole device (None) or a green context.
partitions = st.one_of(st.none(), st.integers(min_value=1, max_value=A100.sms))
#: A host launch before the submit (MuxWise), or none (launch folded into
#: the serialized tail, as the chunked family does).
launches = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=2e-3, allow_nan=False, allow_infinity=False),
)


def _task(device, cost, fixed, sm_count, completions):
    return ExecTask(
        flops=cost.flops,
        bytes=cost.bytes,
        sm_count=device.total_sms if sm_count is None else sm_count,
        fixed_time=fixed,
        tag="prop",
        on_complete=lambda _t: completions.append(device.sim.now),
    )


def _stream(device, sm_count):
    return Stream(device, device.total_sms if sm_count is None else sm_count)


def _start(host, device, stream, task, launch):
    """Submit ``task`` now, or through a host launch of ``launch`` seconds,
    to the device directly or through ``stream``."""
    submit = device.submit if stream is None else stream.submit
    if launch is None:
        submit(task)
    else:
        host.enqueue(launch, lambda: submit(task))


def _fixed(cost, launch):
    # Without a host hop the launch is folded into the serialized tail.
    return cost.comm_time + LAUNCH if launch is None else cost.comm_time


def _scalar_run(cost, t0, sm_count, launch, streamed):
    """Drive the real device through the real heap; record the timeline."""
    sim = Simulator()
    device = Device(sim, A100, 1)
    host = HostThread(sim)
    stream = _stream(device, sm_count) if streamed else None
    completions = []
    task = _task(device, cost, _fixed(cost, launch), sm_count, completions)
    sim.schedule(t0, lambda: _start(host, device, stream, task, launch))
    times = []
    while sim.step():
        times.append(sim.now)
    assert len(completions) == 1
    # times[0] is the start trigger; the rest are the chain's events.
    return {
        "event_times": times[1:],
        "submit": task.start_time,
        "completion": completions[0],
        "sm_seconds": device._sm_seconds,
        "bw_capacity_seconds": device._bw_capacity_seconds,
        "bw_bytes_served": device._bw_bytes_served,
        "last_advance": device._last_advance,
        "host_seconds": host._busy_seconds,
        "stream_seconds": None if stream is None else stream._busy_seconds,
    }


def _plan(t0, sm_count, streamed):
    """An unbounded plan on a fresh device (and a lane on a fresh stream)."""
    sim = Simulator()
    device = Device(sim, A100, 1)
    sim.now = t0
    plan = CoRunPlan(sim, device, HostThread(sim), math.inf)
    lane = plan.lane(_stream(device, sm_count)) if streamed else None
    return sim, plan, lane


def _write_back(sim, plan, end):
    """Run the write-back as a stretch continuation firing at ``end``."""
    sim.schedule_at(end, lambda: commit_chain(sim, plan))
    sim.run()


@settings(max_examples=250 * settings.default.max_examples // 100, deadline=None)
@given(
    ctx_lens=batch_compositions,
    t0=start_times,
    sm_count=partitions,
    launch=launches,
    streamed=st.booleans(),
)
def test_chain_plan_equals_scalar_heap_sequence(ctx_lens, t0, sm_count, launch, streamed):
    cost = MODEL.decode_iter(ctx_lens)
    scalar = _scalar_run(cost, t0, sm_count, launch, streamed)

    sim, plan, lane = _plan(t0, sm_count, streamed)
    end = plan_chain(
        plan, cost.flops, cost.bytes, _fixed(cost, launch),
        sm_count=sm_count, launch=launch, lane=lane,
    )
    assert end is not None, "a real decode cost must be plannable"

    # The plan predicts the scalar heap's exact event sequence.
    assert plan.fired == len(scalar["event_times"])
    assert end == plan.now == scalar["completion"]
    assert end == scalar["event_times"][-1]
    assert plan.last == scalar["last_advance"]
    assert plan.host_seconds == scalar["host_seconds"]
    if streamed:
        # The lane holds the planned submit-to-completion interval.
        assert lane.seconds == scalar["completion"] - scalar["submit"]
        assert lane.seconds == scalar["stream_seconds"]
    else:
        assert scalar["submit"] == (t0 if launch is None else t0 + launch)

    # The write-back copies the scalar chain's accounting bit for bit and
    # charges its events, the continuation standing for the completion.
    _write_back(sim, plan, end)
    device = plan.device
    assert sim.now == scalar["completion"]
    assert sim.processed_events == plan.fired
    assert device._sm_seconds == scalar["sm_seconds"]
    assert device._bw_capacity_seconds == scalar["bw_capacity_seconds"]
    assert device._bw_bytes_served == scalar["bw_bytes_served"]
    assert device._last_advance == scalar["last_advance"]
    assert plan.host._busy_seconds == scalar["host_seconds"]
    if streamed:
        assert plan.lanes[0][0]._busy_seconds == scalar["stream_seconds"]


@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
@given(
    ctx_lens=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=16),
    t0=start_times,
    rounds=st.integers(min_value=2, max_value=5),
    sm_count=partitions,
    launch=launches,
    streamed=st.booleans(),
)
def test_consecutive_chains_match_scalar(ctx_lens, t0, rounds, sm_count, launch, streamed):
    """A stretch of decode iterations — the fast loop's shape — stays exact.

    Each iteration grows every request's context by one token, exactly as
    ``_decode_fast_loop`` advances ``total_ctx`` by the batch size, and is
    planned into the same plan, written back once at the end, as a
    stretch's continuation does.
    """
    sim_s = Simulator()
    dev_s = Device(sim_s, A100, 1)
    host = HostThread(sim_s)
    stream = _stream(dev_s, sm_count) if streamed else None
    sim_f, plan, lane = _plan(t0, sm_count, streamed)

    scalar_events = 0
    clock = t0
    for i in range(rounds):
        lens = [ctx + i for ctx in ctx_lens]
        cost = MODEL.decode_iter(lens)

        completions = []
        task = _task(dev_s, cost, _fixed(cost, launch), sm_count, completions)
        sim_s.schedule_at(clock, lambda t=task: _start(host, dev_s, stream, t, launch))
        fired = 0
        while sim_s.step():
            fired += 1
        scalar_events += fired - 1  # minus the start trigger
        clock = completions[0]

        end = plan_chain(
            plan, cost.flops, cost.bytes, _fixed(cost, launch),
            sm_count=sm_count, launch=launch, lane=lane,
        )
        assert end == clock
        assert plan.fired == scalar_events

    _write_back(sim_f, plan, clock)
    dev_f = plan.device
    assert sim_f.processed_events == scalar_events
    assert dev_f._sm_seconds == dev_s._sm_seconds
    assert dev_f._bw_capacity_seconds == dev_s._bw_capacity_seconds
    assert dev_f._bw_bytes_served == dev_s._bw_bytes_served
    assert dev_f._last_advance == dev_s._last_advance
    assert plan.host._busy_seconds == host._busy_seconds
    if streamed:
        assert plan.lanes[0][0]._busy_seconds == stream._busy_seconds


@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
@given(ctx_lens=batch_compositions, t0=start_times, launch=launches)
def test_lone_step_beyond_the_horizon_leaves_the_plan(ctx_lens, t0, launch):
    """An iteration completing at or after the horizon is not taken, and
    the plan is left exactly as it was."""
    cost = MODEL.decode_iter(ctx_lens)
    fixed = _fixed(cost, launch)
    _, probe, _ = _plan(t0, None, True)
    end = plan_chain(probe, cost.flops, cost.bytes, fixed, launch=launch)
    _, plan, lane = _plan(t0, None, True)
    plan.horizon = end
    before = vars(plan).copy(), lane.seconds
    assert plan_chain(plan, cost.flops, cost.bytes, fixed, launch=launch, lane=lane) is None
    assert (vars(plan), lane.seconds) == before
