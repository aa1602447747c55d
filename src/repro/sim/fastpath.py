"""Decode stretches and co-run stretches — the simulator's fast path.

A steady decode batch produces a long run of *solo chains* on its device:
(host launch ->) submit -> one or two phase-change updates -> completion,
with nothing else able to reach its server before the completion fires.
The scalar path pays several heap pushes/pops, an ``ExecTask``, closures
and a handful of dict operations per generated token batch.  This module
collapses a run of them into one *stretch* with one planned state,
:class:`CoRunPlan`: a dry run of the replica's device integrals, host
thread and stream lanes, read from the real objects at the stretch's start
and written back once, by :func:`commit_chain`, when it ends.

**One entry.**  ``DecodeBatchMixin._decode_fast_loop`` is the only way
into a stretch, of either kind: it owns the gates, the horizon, the head
bail, the KV page budget, the context total, the plan, the iteration loop
(stopping at the limit and where the horizon is too near for one more
iteration), the cut rule and the one continuation.  That event, scheduled
in the server's scope at the last completion ``t_K`` (the clock never
jumps), writes the plan back, applies the stretch's token effects once
per request (``RadixCache.extend_many``,
``MetricsCollector.on_batch_tokens``) and resumes the server's own scalar
completion handler.  Each kind brings a precondition and a **step**,
``ctx -> completion | None``: it accepts one more iteration of a batch
holding ``ctx`` context tokens into the plan and returns its completion,
or returns None — having counted why — and leaves the plan as it stood
after the last accepted iteration.

A decode-only stretch needs an idle decode path; its step is the *lone
step*, :func:`plan_chain`: straight-line arithmetic of the device's fluid
model for a lone task on locals (its re-plan is the device's
:func:`~repro.gpu.device.lone_rates`), reaching the plan only when the
completion is strictly before the horizon, within ``until`` and within
the event budget.

**Co-run stretches.**  MuxWise's decode iterations mostly run beside a
prefill job's layer groups on the other green context.  Its
precondition, ``MuxWiseServer._corun_shadow``, requires the regime the
dry run replicates — layer-wise, query-synchronised MuxWise with one
active job, no preemption pending or requested, no storm or spill hook,
an unstalled device, no queued launch (``corun_bail_state`` counts the
rest) — and returns the in-flight prefill lane's one live event (a group
in host launch, on the device or in its serialized tail): the *shadow*,
which the horizon excludes.  ``_corun_planner``'s step drives
:meth:`CoRunPlan.next_completion`, one dry run of the replica's host
thread, both streams and the device.  In this regime the scalar path
holds at most one live event of each kind (a host finish, a device
update, each lane's completion) and at most one launch waiting on the
host, so the plan keeps a slot for each, not a queue, and fires the
earliest filled slot by ``(time, seq)`` as the heap pops.  The device's
fluid model is not copied: the loop calls the functions ``Device``
itself calls (:mod:`repro.gpu.device`'s ``advance_tasks``, the per-task
advance with its phase-change snap, and the lone and pair re-plans
``lone_rates`` and ``pair_rates``) and keeps only the device's
bookkeeping around them (the utilisation integrals, retirement with
serialized tails, the pending update).  At every planned completion it
makes the server's own decisions in scalar order: ``observe_decode`` (a
max-merge into the guard, so the continuation's repeat of the last one
is idempotent), the decode partition and cost, ``_group_size`` and the
layer costs.  It stops before a partition change, before the job's last
group completes and at a decode completion past the horizon, ``until``
or the event cap, restoring its snapshot of the last accepted
completion.  Its resume callback rebuilds the replica as the scalar path
holds it at ``t_K`` — the group's ``ExecTask`` with its remaining work
and rates, the pending update, host finish or completion, stream op
starts, ``layers_done`` and ``group_in_flight`` — then runs
``_on_decode_done``.

Byte-identity contract (enforced by ``tests/sim/test_fastpath_equivalence``,
the oracles ``tests/properties/test_vectorized_timeline`` (the lone step)
and ``tests/properties/test_corun_planner`` (the co-run dry run, in
lockstep with the heap) and the golden fingerprints in
``tests/bench/test_perf.py``):

* The planners call the device's fluid-model functions (the advance and
  the lone and pair re-plans) and replicate only the host FIFO, the
  stream accounting and the event order: the same additions for the
  launch and the serialized tail, the same ``(time, seq)`` order (the
  shadow keeps its real seq, which orders before every planned one), so
  every float they produce is bit-equal to the scalar path's.  The lone
  step's advance on locals is the one replicated piece of the model, kept
  inline because it is the measured decode-only step.  Accounting is
  accumulated as individual ``+=`` in scalar order (float addition is not
  associative).
* **Horizon.**  ``t_K`` must lie strictly before
  :meth:`Simulator.horizon` of the server's scope (excluding a co-run
  stretch's shadow), within the run's ``until`` and within its
  ``max_events`` budget.  For an unscoped server (a single system) the
  horizon is the earliest live event in the queue.  For a fleet
  replica it is the earliest event that can reach *that* replica: its own
  scope's next event or the next unscoped one (arrival, retry, fault,
  daemon tick).
* **Isolation.**  Between unscoped events one replica's events reach
  another only through ``Router.on_completion``, which dispatches only
  when the router holds a queued or held request.  ``Fleet`` therefore
  declares its replicas isolated (``Simulator.set_isolation``) only while
  the router holds none; otherwise the horizon is the queue's earliest
  live event.  The rule is enforced, not assumed: scheduling into a
  scope — or an unscoped event — at or before that scope's pending
  stretch end raises ``SimulationError`` naming the scope, the time and
  the stretch end.
* **Events and the queue's peak.**  The continuation counts as one fired
  event and the stretch's other events are charged on write-back, so
  ``processed_events`` matches.  The heap's shape is not part of the
  contract: firing order is ``(time, priority, seq)`` whatever the heap
  holds, and compaction only drops cancelled entries
  (``tests/sim/test_heap_shape_oracle`` checks that results do not move
  with either).  A stretch holds one entry where the scalar path holds
  one to four, and a co-run stretch's cancelled entries never reach the
  heap, so ``Simulator.max_event_queue`` — the ``peak_queue`` work
  counter — is the real heap's high-water mark under either path and is
  reported beside the results, not in them.  Other replicas' events
  commute with a stretch; one tied at exactly a planned instant or
  ``t_K`` fires in the real heap's order, which no replica's results can
  observe.
* **Tokens.**  A stretch ends at the iteration in which a batch member
  finishes and before KV growth would need more than free plus evictable
  pages, so no request retires inside it.  Gaps are exact: a request's
  first gap is ``t1 - last_token`` and every later one ``t_i - t_(i-1)``.
  Eviction is exact: the growing tails are pinned, so the sequential
  rounds evict the shortest LRU prefix of victims covering the total page
  demand, which one ``_ensure_free_pages(total)`` call evicts too.  An
  armed preemption storm, a radix ``spill`` hook (whose calls carry the
  eviction clock) or an iteration the page budget cannot cover runs as a
  one-iteration decode-only stretch through the real per-iteration
  emission, and never as a co-run stretch.  Speculative decoding and
  traced runs never reach the loop.

The fast path is ON by default; set ``REPRO_FASTPATH=0`` (or use
:func:`disabled`) to force the scalar reference path, which disables
every stretch, decode-only and co-run.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.gpu.device import _EPS, ExecTask, advance_tasks, lone_rates, pair_rates
from repro.sim.simulator import SimulationError

if TYPE_CHECKING:
    from repro.gpu.device import Device
    from repro.gpu.host import HostThread
    from repro.gpu.stream import Stream
    from repro.sim.events import Event
    from repro.sim.simulator import Simulator

#: Safety valve: a solo chain retires in one or two phase changes; float
#: residue can stretch that by a step or two.  Longer means something is
#: off — bail to the scalar path rather than loop.
_MAX_CHAIN_ROUNDS = 6

_enabled = os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in {
    "0",
    "off",
    "false",
    "no",
}


def set_enabled(on: bool) -> bool:
    """Enable/disable the fast path; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Force the scalar reference path within the block (for tests)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def enabled() -> Iterator[None]:
    """Force the fast path on within the block (for tests)."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)


def decode_fastpath_active(sim: "Simulator") -> bool:
    """Can decode chains be elided on ``sim`` right now?

    Requires the global toggle, an active ``run()`` (single ``step()``
    drivers must see one event per call), and no tracer (the scalar chain
    emits kernel/bandwidth spans the planner does not).
    """
    return _enabled and sim._running and sim.tracer is None


def plan_chain(
    plan: CoRunPlan,
    flops: float,
    bytes_: float,
    fixed_time: float,
    sm_count: float | None = None,
    launch: float | None = None,
    lane: Lane | None = None,
) -> float | None:
    """The lone step: plan one decode-only iteration of a stretch.

    Mirrors ``Device.submit`` -> ``_on_update``* -> ``_finish_task`` for a
    lone task on ``sm_count`` SMs (default: the whole device) of an idle,
    unstalled device, started at ``plan.now``.  With ``launch`` the task
    is submitted by a host launch of that many seconds
    (``HostThread.enqueue``: one more event, submit at ``now + launch``),
    and with ``lane`` it runs on that stream; otherwise it is submitted at
    ``now``.  The arithmetic runs on locals and reaches the plan — its
    clock, fired events, device integrals, host and lane busy seconds —
    only when the completion is strictly before ``plan.horizon``, no later
    than ``plan.until`` and within ``plan.budget``; it is then returned.
    Returns ``None`` otherwise, or when the chain falls outside the
    replicated regime (zero-work task, non-finite horizon, degenerate
    float step): the plan is untouched and the caller's stretch ends.
    """
    rem_flops = float(flops)
    rem_bytes = float(bytes_)
    if rem_flops <= _EPS and rem_bytes <= _EPS:
        # Zero-work tasks complete synchronously inside submit().
        return None
    # ExecTask.__init__ floors.
    flops_floor = max(_EPS, 1e-9 * rem_flops)
    bytes_floor = max(_EPS, 1e-9 * rem_bytes)
    eff_bw = plan.eff_bw
    total = plan.total
    sm = total if sm_count is None else sm_count
    if not 0 < sm <= total:
        return None
    fps = plan.fps
    fired = plan.fired
    now = plan.now
    if launch is not None:
        # HostThread._pump schedules its finish at ``now + duration``.
        now = now + launch
        fired += 1
    # Device._advance_to_now for the idle gap preceding the submit.
    bw_cap = plan.bw_cap
    dt = now - plan.last
    if dt > 0:
        bw_cap += eff_bw * dt
    sm_sec = plan.sm_sec
    served = plan.served
    cur = now
    for _ in range(_MAX_CHAIN_ROUNDS):
        occ, rate, bw_rate, horizon = lone_rates(
            sm, fps, eff_bw, rem_flops, rem_bytes, flops_floor, bytes_floor, math.inf
        )
        if not horizon < math.inf:
            return None
        # sim.schedule(horizon) -> update event at cur + horizon; the
        # advance there subtracts the times back (not the raw horizon).
        t_next = cur + horizon
        dt = t_next - cur
        if dt <= 0:
            return None
        # _advance_to_now over [cur, t_next].
        done_flops = rate * dt
        if done_flops > rem_flops:
            done_flops = rem_flops
        done_bytes = bw_rate * dt
        if done_bytes > rem_bytes:
            done_bytes = rem_bytes
        rem_flops -= done_flops
        rem_bytes -= done_bytes
        if rem_flops <= flops_floor:
            rem_flops = 0.0
        if rem_bytes <= bytes_floor:
            rem_bytes = 0.0
        bw_cap += eff_bw * dt
        sm_sec += occ * dt
        served += done_bytes
        fired += 1
        cur = t_next
        if rem_flops <= flops_floor and rem_bytes <= bytes_floor:
            break
    else:
        return None
    # _finish_task: completion scheduled fixed_time after the retiring
    # update (schedule(0.0) clamps to the current instant).
    completion = cur + fixed_time if fixed_time > 0 else cur
    fired += 1
    if not (completion < plan.horizon and completion <= plan.until and fired <= plan.budget):
        return None
    plan.now = completion
    plan.fired = fired
    plan.last = cur
    plan.occ = 0.0
    plan.bw_cap = bw_cap
    plan.sm_sec = sm_sec
    plan.served = served
    if launch is not None:
        plan.host_seconds += launch
    if lane is not None:
        # Stream._pump at the submit, Stream._op_done at the completion.
        lane.seconds += completion - now
    return completion


def commit_chain(sim: "Simulator", plan: CoRunPlan) -> None:
    """Write a stretch's plan back: the one write-back of every stretch.

    Called by the stretch's continuation at its last planned completion.
    Copies the device integrals, the host's and each lane's busy seconds
    (:meth:`CoRunPlan.lane`) from the plan, and charges the scalar events
    the plan fired: the continuation is one of them, and so is the
    shadow when the real heap popped it.  The accounting was accumulated
    as individual ``+=`` in the scalar path's order (float addition is not
    associative, and the utilisation integrals are fingerprinted).  The
    clock is not touched.  Raises :class:`SimulationError` when other
    scopes' events used the run's event budget up before the stretch
    ended: the scalar run stops earlier.
    """
    device = plan.device
    device._last_advance = plan.last
    device._sm_occupancy = plan.occ
    device._bw_capacity_seconds = plan.bw_cap
    device._sm_seconds = plan.sm_sec
    device._bw_bytes_served = plan.served
    device._pair_factors = plan.pair
    plan.host._busy_seconds = plan.host_seconds
    for stream, lane in plan.lanes:
        stream._busy_seconds = lane.seconds
    now = sim.now
    charge = plan.fired - 1
    shadow = plan.shadow
    if shadow is not None and shadow.callback is None and shadow.time <= now:
        charge -= 1
    sim._event_count += charge
    sim._fired_in_run += charge
    if sim._fired_in_run > sim._run_cap:
        raise SimulationError(
            f"the {sim._run_cap}-event cap fell inside the stretch of scope "
            f"{sim.current_scope!r} ending at {now:.9f}: the scalar run stops "
            "earlier (rerun with REPRO_FASTPATH=0)"
        )


# ---------------------------------------------------------------------- #
# Co-run stretches: the dry run of one replica's host, streams and device
# ---------------------------------------------------------------------- #

#: Virtual events are numbered after every real one, so an event the plan
#: takes over (numbered by the simulator) orders before all of them.
_VIRTUAL_SEQ0 = 1 << 62


class Bail(Exception):
    """The dry run left the regime it replicates; the caller bails."""


class Lane:
    """One stream of the dry run: ``Stream``'s busy state and accounting."""

    __slots__ = ("sms", "busy", "op_start", "seconds", "task")

    def __init__(self, sms: int, busy: bool, op_start: float | None, seconds: float, task) -> None:
        self.sms = sms
        self.busy = busy
        self.op_start = op_start
        self.seconds = seconds
        self.task = task


def task_state(task: ExecTask) -> tuple:
    """The ``ExecTask`` fields the device advances and re-plans."""
    return (
        task.rem_flops, task.rem_bytes, task.compute_rate, task.bw_rate,
        task.sm_count, task.start_time,
    )


def set_task_state(task: ExecTask, state: tuple) -> None:
    """Give ``task`` the fields :func:`task_state` read."""
    (
        task.rem_flops, task.rem_bytes, task.compute_rate, task.bw_rate,
        task.sm_count, task.start_time,
    ) = state


class CoRunPlan:
    """The planned state of one stretch: a dry run of one replica's host
    thread, streams and device.

    A decode-only stretch advances it one lone iteration at a time
    (:func:`plan_chain`: no events, no task objects).  A co-run stretch
    replays ``HostThread._pump``/``_finish``, ``Stream._pump``/``_op_done``
    and the event order of ``Device.submit``/``_on_update``/``_reschedule``
    for the two lanes of its :meth:`lane` calls (the decode stream's, then
    the prefill stream's), advancing and re-planning their tasks with the
    device's own functions (``advance_tasks``, ``lone_rates``,
    ``pair_rates``).  The scalar path's live events are four slots, each
    ``(time, seq)`` or None — the host finish ``host_at``, the device
    update ``update_at`` and the two lanes' completions ``decode_at`` and
    ``group_at`` — and the host runs ``host_op`` with at most one launch
    queued, ``host_next``.  The caller launches tasks (:meth:`launch`),
    runs the plan to the next task completion (:meth:`next_completion`),
    releases its lane (:meth:`release`) and decides what the server does
    there.

    The real device, host and streams are read at the start and left
    untouched until the continuation writes the plan back
    (:func:`commit_chain`); a task the plan advances is the caller's to
    put back (:func:`set_task_state`) if it drops the plan.  A stretch
    takes an iteration only if its completion is strictly before
    ``horizon``, no later than the run's ``until`` and within its
    remaining event ``budget``.
    """

    def __init__(
        self, sim: "Simulator", device: "Device", host: "HostThread", horizon: float
    ) -> None:
        self.now = sim.now
        self.horizon = horizon
        self.until = sim._run_until
        self.budget = sim._run_cap - sim._fired_in_run
        self.seq = _VIRTUAL_SEQ0
        #: Scalar events fired so far (the shadow included).
        self.fired = 0
        #: The real event a co-run stretch took over, in its kind's slot.
        self.shadow: "Event | None" = None
        #: The streams whose busy seconds the plan accounts, with their lanes.
        self.lanes: list[tuple["Stream", Lane]] = []
        # The scalar path's live events, one slot per kind: (time, seq).
        self.host_at: tuple[float, int] | None = None
        self.update_at: tuple[float, int] | None = None
        self.decode_at: tuple[float, int] | None = None
        self.group_at: tuple[float, int] | None = None
        # Device.
        self.device = device
        self.eff_bw = device.effective_bandwidth
        self.fps = device._flops_per_sm
        self.total = device.total_sms
        self.kappa = device.spec.contention_kappa
        self.active: tuple[ExecTask, ...] = ()
        self.last = device._last_advance
        self.occ = device._sm_occupancy
        self.bw_cap = device._bw_capacity_seconds
        self.sm_sec = device._sm_seconds
        self.served = device._bw_bytes_served
        self.pair = device._pair_factors
        # Host thread: the running launch ``(lane, task, label, start)``
        # and the queued one ``(duration, lane, task, label)``.
        self.host = host
        self.host_op: tuple | None = None
        self.host_next: tuple | None = None
        self.host_seconds = host._busy_seconds

    def lane(self, stream: "Stream") -> Lane:
        """A lane mirroring ``stream``'s state (its task is left to the
        caller); the write-back copies its busy seconds to the stream."""
        lane = Lane(
            stream.sm_count, stream._busy, stream._current_op_start, stream._busy_seconds, None
        )
        self.lanes.append((stream, lane))
        return lane

    def holds(self, event: "Event") -> bool:
        """Whether a slot still holds the real ``event`` (the shadow): the
        plan neither fired nor cancelled it."""
        key = (event.time, event.seq)
        return key == self.host_at or key == self.update_at or key == self.group_at

    def next_completion(self) -> Lane:
        """Fire host finishes and device updates up to the next task
        completion, fire that too and return its lane (the caller
        releases it and decides what the server does there).

        One loop on local variables does what the scalar path does per
        event: ``HostThread._finish``/``_pump``, ``Stream._pump`` and
        ``Device.submit``/``_on_update``/``_reschedule``.  The device's
        integrals, retirement and pending update are kept here; the
        per-task advance and the lone and pair re-plans are the device's
        own functions.  On :class:`Bail` the plan is left inconsistent; the
        caller restores or drops it.
        """
        fps = self.fps
        eff_bw = self.eff_bw
        total = self.total
        inf = math.inf
        (_, decode_lane), (_, group_lane) = self.lanes
        now = self.now
        seq = self.seq
        fired = self.fired
        host_at = self.host_at
        update_at = self.update_at
        decode_at = self.decode_at
        group_at = self.group_at
        active = self.active
        last = self.last
        occ = self.occ
        bw_cap = self.bw_cap
        sm_sec = self.sm_sec
        served = self.served
        pair = self.pair
        while True:
            # The earliest filled slot, by (time, seq) as the heap pops.
            done = decode_at
            if group_at is not None and (done is None or group_at < done):
                done = group_at
            is_host = host_at is not None and (update_at is None or host_at < update_at)
            head = host_at if is_host else update_at
            if head is None or (done is not None and done < head):
                if done is None:
                    raise Bail
                # Device._complete: the caller runs the task's callback.
                now = done[0]
                fired += 1
                if done is decode_at:
                    decode_at = None
                    lane = decode_lane
                else:
                    group_at = None
                    lane = group_lane
                self.now = now
                self.seq = seq
                self.fired = fired
                self.host_at = host_at
                self.update_at = update_at
                self.decode_at = decode_at
                self.group_at = group_at
                self.active = active
                self.last = last
                self.occ = occ
                self.bw_cap = bw_cap
                self.sm_sec = sm_sec
                self.served = served
                self.pair = pair
                return lane
            now = head[0]
            fired += 1
            if is_host:
                # HostThread._finish -> Stream._pump -> Device.submit.
                host_at = None
                lane, task, _, _ = self.host_op
                self.host_op = None
                if lane.busy:
                    raise Bail
                lane.busy = True
                lane.op_start = now
                lane.task = task
                task.sm_count = lane.sms
                phase_change = False
            else:
                task = None
                phase_change = True
            # Device._reschedule cancels the pending update (or it fired).
            update_at = None
            # Device._advance_to_now (a re-plan follows, so the occupancy
            # refresh after a compute transition is moot).
            dt = now - last
            last = now
            if dt > 0:
                bw_cap += eff_bw * dt
                if active:
                    sm_sec += occ * dt
            if active and (dt > 0 or phase_change):
                served = advance_tasks(active, now, dt, phase_change, served)[0]
            if task is not None:
                task.start_time = now
                if task.flops <= _EPS and task.bytes <= _EPS:
                    raise Bail  # completes synchronously inside submit()
                active = (*active, task)
            # Device._reschedule's retirement.
            for t in active:
                if t.rem_flops <= t._flops_floor and t.rem_bytes <= t._bytes_floor:
                    still = []
                    for x in active:
                        if x.rem_flops <= x._flops_floor and x.rem_bytes <= x._bytes_floor:
                            # Device._finish_task.
                            fixed_time = x.fixed_time
                            seq += 1
                            at = (now + fixed_time if fixed_time > 0 else now, seq)
                            if x is decode_lane.task:
                                decode_at = at
                            else:
                                group_at = at
                        else:
                            still.append(x)
                    active = tuple(still)
                    break
            # Device._reallocate's lone and pair paths.
            if not active:
                occ = 0.0
                horizon = inf
            elif len(active) == 1:
                a = active[0]
                sa = a.sm_count
                if not 0 < sa <= total:
                    raise Bail
                occ, a.compute_rate, a.bw_rate, horizon = lone_rates(
                    sa, fps, eff_bw, a.rem_flops, a.rem_bytes,
                    a._flops_floor, a._bytes_floor, a.max_bandwidth,
                )
            elif len(active) == 2:
                a, b = active
                if not (0 < a.sm_count <= total and 0 < b.sm_count <= total):
                    raise Bail
                occ, horizon, pair = pair_rates(a, b, total, fps, eff_bw, self.kappa, pair)
            else:
                raise Bail
            if horizon < inf:
                seq += 1
                update_at = (now + horizon, seq)
            if is_host and self.host_next is not None:
                # HostThread._finish ends with _pump: the queued launch starts.
                seq += 1
                host_at = self._host_run(self.host_next, now, seq)
                self.host_next = None

    # -------------------------------------------------------------- #
    # Host thread and streams
    # -------------------------------------------------------------- #

    def launch(self, duration: float, lane: Lane, task, label: str) -> None:
        """``HostThread.enqueue(duration, partial(stream.submit, task))``."""
        launch = (duration, lane, task, label)
        if self.host_op is None:
            self.seq += 1
            self.host_at = self._host_run(launch, self.now, self.seq)
        elif self.host_next is None:
            self.host_next = launch
        else:
            raise Bail  # a second queued launch: outside the replicated regime

    def _host_run(self, launch: tuple, now: float, seq: int) -> tuple[float, int]:
        """``HostThread._pump``: ``launch`` runs from ``now``; returns the
        slot of its finish, numbered ``seq``."""
        duration, lane, task, label = launch
        self.host_seconds += duration
        self.host_op = (lane, task, label, now)
        return (now + duration, seq)

    def release(self, lane: Lane) -> None:
        """``Stream._op_done``'s accounting, before the task's callback."""
        if lane.op_start is not None:
            lane.seconds += self.now - lane.op_start
            lane.op_start = None
        lane.busy = False

    # -------------------------------------------------------------- #
    # Snapshots (a stretch ends at its last accepted decode completion)
    # -------------------------------------------------------------- #

    def snapshot(self, task: ExecTask) -> tuple:
        """The plan's state, for :meth:`restore`: its own fields (every
        one a scalar or a tuple), the two lanes' and those of ``task``, the
        one task it may still advance (the decode task has retired)."""
        (_, decode), (_, prefill) = self.lanes
        return (
            vars(self).copy(),
            task,
            task_state(task),
            (decode.busy, decode.op_start, decode.seconds, decode.task),
            (prefill.busy, prefill.op_start, prefill.seconds, prefill.task),
        )

    def restore(self, snap: tuple) -> None:
        fields, task, state, decode_state, prefill_state = snap
        vars(self).update(fields)
        set_task_state(task, state)
        (_, decode), (_, prefill) = self.lanes
        decode.busy, decode.op_start, decode.seconds, decode.task = decode_state
        prefill.busy, prefill.op_start, prefill.seconds, prefill.task = prefill_state
