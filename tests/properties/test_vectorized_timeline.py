"""Property: a planned decode chain IS the scalar heap's event sequence.

For random batch compositions (context lengths, batch sizes, idle gaps,
start times, SM partitions and host launch offsets),
:func:`repro.sim.fastpath.plan_chain` must predict exactly what the scalar
simulator does when the same task goes through the real heap — submitted
straight to the device, or by a host launch first, as MuxWise's engine
does: the same number of fired events, the same per-event times, the same
completion instant, and bit-equal device accounting integrals.  No
tolerance anywhere — the fast path's contract is byte-identity, so every
float must match with ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device, ExecTask
from repro.gpu.host import HostThread
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.models.costs import CostModel
from repro.sim import Simulator
from repro.sim.fastpath import commit_chain, plan_chain

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


def _start(host, device, task, launch):
    """Submit ``task`` now, or through a host launch of ``launch`` seconds."""
    if launch is None:
        device.submit(task)
    else:
        host.enqueue(launch, lambda: device.submit(task))


def _fixed(cost, launch):
    # Without a host hop the launch is folded into the serialized tail.
    return cost.comm_time + LAUNCH if launch is None else cost.comm_time


def _scalar_run(cost, t0, sm_count, launch):
    """Drive the real device through the real heap; record the timeline."""
    sim = Simulator()
    device = Device(sim, A100, 1)
    host = HostThread(sim)
    completions = []
    task = _task(device, cost, _fixed(cost, launch), sm_count, completions)
    sim.schedule(t0, lambda: _start(host, device, task, launch))
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
    }


@settings(max_examples=250, deadline=None)
@given(ctx_lens=batch_compositions, t0=start_times, sm_count=partitions, launch=launches)
def test_chain_plan_equals_scalar_heap_sequence(ctx_lens, t0, sm_count, launch):
    cost = MODEL.decode_iter(ctx_lens)
    scalar = _scalar_run(cost, t0, sm_count, launch)

    sim = Simulator()
    device = Device(sim, A100, 1)
    sim.now = t0
    plan = plan_chain(
        device, cost.flops, cost.bytes, _fixed(cost, launch), sim.now,
        sm_count=sm_count, launch=launch,
    )
    assert plan is not None, "a real decode cost must be plannable"

    # The plan predicts the scalar heap's exact event sequence.
    assert plan.events == len(scalar["event_times"])
    assert plan.submit == scalar["submit"]
    assert plan.completion == scalar["completion"]
    assert plan.completion == scalar["event_times"][-1]
    assert plan.retire_time == scalar["last_advance"]

    # Committing replays the scalar chain's accounting bit for bit and
    # charges its events; the clock is left to the stretch continuation.
    commit_chain(sim, device, plan)
    assert sim.now == t0
    assert sim.processed_events == plan.events
    assert device._sm_seconds == scalar["sm_seconds"]
    assert device._bw_capacity_seconds == scalar["bw_capacity_seconds"]
    assert device._bw_bytes_served == scalar["bw_bytes_served"]
    assert device._last_advance == scalar["last_advance"]


@settings(max_examples=60, deadline=None)
@given(
    ctx_lens=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=16),
    t0=start_times,
    rounds=st.integers(min_value=2, max_value=5),
    sm_count=partitions,
    launch=launches,
)
def test_consecutive_chains_match_scalar(ctx_lens, t0, rounds, sm_count, launch):
    """A stretch of decode iterations — the fast loop's shape — stays exact.

    Each iteration grows every request's context by one token, exactly as
    ``_decode_fast_loop`` advances ``total_ctx`` by the batch size, and is
    planned before any is committed (``since`` carries the previous
    chain's retire time), as a stretch plans them.
    """
    sim_s = Simulator()
    dev_s = Device(sim_s, A100, 1)
    host = HostThread(sim_s)
    sim_f = Simulator()
    dev_f = Device(sim_f, A100, 1)

    scalar_events = 0
    clock = t0
    now = t0
    since = None
    plans = []
    for i in range(rounds):
        lens = [ctx + i for ctx in ctx_lens]
        cost = MODEL.decode_iter(lens)

        completions = []
        task = _task(dev_s, cost, _fixed(cost, launch), sm_count, completions)
        sim_s.schedule_at(clock, lambda t=task: _start(host, dev_s, t, launch))
        fired = 0
        while sim_s.step():
            fired += 1
        scalar_events += fired - 1  # minus the start trigger
        clock = completions[0]

        plan = plan_chain(
            dev_f, cost.flops, cost.bytes, _fixed(cost, launch), now,
            sm_count=sm_count, launch=launch, since=since,
        )
        assert plan is not None
        assert plan.completion == clock
        plans.append(plan)
        now = plan.completion
        since = plan.retire_time

    for plan in plans:
        commit_chain(sim_f, dev_f, plan)
    assert sim_f.processed_events == scalar_events
    assert dev_f._sm_seconds == dev_s._sm_seconds
    assert dev_f._bw_capacity_seconds == dev_s._bw_capacity_seconds
    assert dev_f._bw_bytes_served == dev_s._bw_bytes_served
    assert dev_f._last_advance == dev_s._last_advance
