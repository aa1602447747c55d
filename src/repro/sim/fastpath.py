"""Decode stretches and co-run stretches — the simulator's fast path.

A steady decode batch produces a long run of *solo chains* on its device:
(host launch ->) submit -> one or two phase-change updates -> completion,
with nothing else able to reach its server before the completion fires.
The scalar path pays several heap pushes/pops, an ``ExecTask``, closures
and a handful of dict operations per generated token batch.  This module
collapses each chain into straight-line arithmetic: :func:`plan_chain`
dry-runs the device's fluid model for a lone task (its re-plan is
:func:`lone_rates`, shared with the co-run dry run) and
:func:`commit_chain` replays the exact same per-interval accounting
against the device and charges the elided events to the simulator's
counters.

The serving loop (``DecodeBatchMixin._decode_fast_loop``) strings
consecutive decode-only iterations into a *stretch*.  It plans every
iteration at the stretch's start and schedules **one continuation event**
in its server's scope at the last completion ``t_K``; the clock never
jumps.  When the continuation fires it commits the chains in order,
applies the stretch's token effects once per request (through
``RadixCache.extend_many`` and ``MetricsCollector.on_batch_tokens``) and
runs the server's own scalar completion handler: retire, then start the
next iteration.

**Co-run stretches.**  MuxWise's decode iterations mostly run beside a
prefill job's layer groups on the other green context.  At such an
iteration's start ``MuxWiseServer._corun_stretch`` takes over the
in-flight prefill lane (a group in host launch, on the device or in its
serialized tail; its one live event becomes the plan's *shadow*) and
drives :class:`CoRunPlan`, one dry run of the replica's host FIFO, both
streams and the device's lone and pair fluid model
(``_reallocate_pair``'s ripple factors, ``_waterfill2``,
``_over_request``, ``_task_horizon``; ``_advance_to_now`` with its
phase-change snaps and compute-transition occupancy refresh; serialized
tails), ordering its virtual events by ``(time, seq)`` as the heap does.
The server makes its own decisions at every planned completion in scalar
order: ``observe_decode`` (a max-merge into the guard, so the
continuation's repeat of the last one is idempotent), the decode partition
and cost, ``_group_size`` and the layer costs.  The stretch ends at the
last decode completion before a partition change, before the job's last
group completes, at the iteration a batch member finishes, at the KV page
budget, and strictly before the horizon, ``until`` and the event cap; it
is eligible only for layer-wise, query-synchronised MuxWise with one
active job, no preemption pending or requested, no spec decode, no
tracer, an unstalled device and no queued resize (``corun_bail_*``
counts the rest).  The continuation rebuilds the replica as the scalar
path holds it at ``t_K`` — device integrals, the group's ``ExecTask``
with its remaining work and rates, the pending update, host finish or
completion at its planned time, stream op starts, ``layers_done`` and
``group_in_flight`` — and runs ``_on_decode_done``, the scalar tail.

Byte-identity contract (enforced by ``tests/sim/test_fastpath_equivalence``,
the lockstep oracle ``tests/properties/test_corun_planner`` and the golden
fingerprints in ``tests/bench/test_perf.py``):

* The planners replicate ``HostThread`` / ``Stream`` / ``Device`` *operation
  for operation* — same additions for the launch and the serialized tail,
  same divisions, same comparison epsilons, same clamp and floor order —
  so every float they produce is bit-equal to the scalar path's.
  Accounting is accumulated or replayed as individual ``+=`` in scalar
  order (float addition is not associative).
* **Horizon.**  ``t_K`` must lie strictly before
  :meth:`Simulator.horizon` of the server's scope (excluding a co-run
  stretch's shadow), within the run's ``until`` and within its
  ``max_events`` budget.  For an unscoped server (a single system) the
  horizon is the raw queue head, cancelled entries included.  For a fleet
  replica it is the earliest event that can reach *that* replica: its own
  scope's next event or the next unscoped one (arrival, retry, fault,
  daemon tick).
* **Isolation.**  Between unscoped events one replica's events reach
  another only through ``Router.on_completion``, which dispatches only
  when the router holds a queued or held request.  ``Fleet`` therefore
  declares its replicas isolated (``Simulator.set_isolation``) only while
  the router holds none; otherwise the horizon is the raw head.  The rule
  is enforced, not assumed: scheduling into a scope — or an unscoped
  event — at or before that scope's pending stretch end raises
  ``SimulationError`` naming the scope, the time and the stretch end.
* **Events and the queue footprint.**  During a decode-only iteration the
  scalar chain keeps exactly one event of its server queued and cancels
  nothing, so the single continuation leaves ``len(heap)`` the same at
  every other push.  A co-run iteration holds two to four entries and
  cancels some, so a co-run stretch hands the simulator a
  :class:`~repro.sim.simulator.Footprint`: every heap push, fire, cancel
  and cancelled pop the scalar path would make.  The simulator adds the
  footprint's running difference wherever it reads the heap length — the
  high-water test of every push, the compaction test of every cancel, and
  the tests the scalar path would run at the stretch's own pushes and
  cancels (a real event tied with a planned one fires first) — applying
  ops only when the footprint's bounds on its deltas cannot rule a test
  out, and dropping the plan's cancelled entries when a compaction drops
  the real ones.  The continuation counts as one fired event and the
  stretch's other events are charged on commit, so ``processed_events``
  matches too.  Other replicas' events commute with a stretch; one tied at
  exactly a planned instant or ``t_K`` fires in the real heap's order,
  which no replica's results can observe.
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
stretches together with chain elision.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from repro.gpu.device import (
    ExecTask,
    _config_ripple,
    _over_request,
    _task_horizon,
    _waterfill2,
    _waterfill_last,
)
from repro.sim.simulator import V_CANCEL, V_FIRE, V_POP, V_PUSH, VirtualEntry

if TYPE_CHECKING:
    from repro.gpu.device import Device
    from repro.sim.simulator import Simulator

#: Must match ``repro.gpu.device._EPS`` — the planner replicates the
#: device's comparisons bit-for-bit.
_EPS = 1e-9

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


class ChainPlan:
    """Outcome of dry-running one solo task chain on an idle device.

    Attributes:
        submit: Absolute time the task reaches the device.
        completion: Absolute time the completion callback would fire.
        retire_time: Absolute time of the final phase-change update (the
            device's ``_last_advance`` after the chain).
        events: Simulator events the scalar chain would fire (host launch,
            if any, + updates + 1 completion).
        idle_delta: Bandwidth-capacity integral of the idle gap before the
            submit, or None when the gap is empty.
        steps: Per-update accounting deltas ``(bw_capacity, sm_seconds,
            bytes_served)`` in scalar ``+=`` order.
    """

    __slots__ = ("submit", "completion", "retire_time", "events", "idle_delta", "steps")

    def __init__(
        self,
        submit: float,
        completion: float,
        retire_time: float,
        events: int,
        idle_delta: float | None,
        steps: list[tuple[float, float, float]],
    ) -> None:
        self.submit = submit
        self.completion = completion
        self.retire_time = retire_time
        self.events = events
        self.idle_delta = idle_delta
        self.steps = steps


def plan_chain(
    device: "Device",
    flops: float,
    bytes_: float,
    fixed_time: float,
    now: float,
    sm_count: float | None = None,
    launch: float | None = None,
    since: float | None = None,
) -> ChainPlan | None:
    """Dry-run the solo chain of one task on ``sm_count`` SMs.

    Mirrors ``Device.submit`` -> ``_on_update``* -> ``_finish_task`` for a
    lone task on an idle, unstalled device.  ``sm_count`` defaults to the
    whole device.  With ``launch`` the task is submitted by a host launch
    of that many seconds started at ``now`` (``HostThread.enqueue``: one
    more event, submit at ``now + launch``); otherwise it is submitted at
    ``now``.  ``since`` is the device's last advance (default: its live
    ``_last_advance``), so consecutive iterations plan before any commits.
    Returns ``None`` when the chain falls outside the replicated regime
    (zero-work task, non-finite horizon, degenerate float step) — callers
    then take the scalar path.  The device is not mutated.
    """
    rem_flops = float(flops)
    rem_bytes = float(bytes_)
    if rem_flops <= _EPS and rem_bytes <= _EPS:
        # Zero-work tasks complete synchronously inside submit().
        return None
    # ExecTask.__init__ floors.
    flops_floor = max(_EPS, 1e-9 * rem_flops)
    bytes_floor = max(_EPS, 1e-9 * rem_bytes)
    eff_bw = device.effective_bandwidth
    sm = device.total_sms if sm_count is None else sm_count
    if not 0 < sm <= device.total_sms:
        return None
    fps = device._flops_per_sm
    total = device.total_sms

    events = 0
    if launch is not None:
        # HostThread._pump schedules its finish at ``now + duration``.
        now = now + launch
        events = 1
    # Device._advance_to_now for the idle gap preceding the submit.
    dt0 = now - (device._last_advance if since is None else since)
    idle_delta = eff_bw * dt0 if dt0 > 0 else None

    steps: list[tuple[float, float, float]] = []
    cur = now
    for _ in range(_MAX_CHAIN_ROUNDS):
        occ, rate, bw_rate, horizon = lone_rates(
            sm, total, fps, eff_bw, rem_flops, rem_bytes, flops_floor, bytes_floor, math.inf
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
        steps.append((eff_bw * dt, occ * dt, done_bytes))
        events += 1
        cur = t_next
        if rem_flops <= flops_floor and rem_bytes <= bytes_floor:
            break
    else:
        return None
    # _finish_task: completion scheduled fixed_time after the retiring
    # update (schedule(0.0) clamps to the current instant).
    completion = cur + fixed_time if fixed_time > 0 else cur
    return ChainPlan(now, completion, cur, events + 1, idle_delta, steps)


def lone_rates(
    sm: float,
    total: float,
    flops_per_sm: float,
    eff_bw: float,
    rem_flops: float,
    rem_bytes: float,
    flops_floor: float,
    bytes_floor: float,
    max_bandwidth: float,
) -> tuple[float, float, float, float]:
    """``Device._reallocate``'s lone path for one unstalled task on ``sm``
    SMs: its occupancy, compute rate, bandwidth rate and horizon.

    ``_over_request`` with factor 1.0 (dividing by it and capping again at
    ``max_bandwidth`` are the identity), ``_waterfill_last`` and
    ``_task_horizon`` inlined: the same operations in the same order.
    """
    scale = 1.0 if sm <= total else total / sm
    flops_left = rem_flops > flops_floor
    occ = sm * scale if flops_left else 0.0
    rate = flops_per_sm * sm * scale
    if rem_bytes <= bytes_floor:
        demand = 0.0
    elif not flops_left:
        demand = max_bandwidth
    else:
        demand = rem_bytes / (rem_flops / rate)
        if max_bandwidth < demand:
            demand = max_bandwidth
    if demand <= _EPS or eff_bw <= _EPS:
        bw_rate = 0.0
    else:
        bw_rate = demand if demand <= eff_bw + _EPS else eff_bw
    horizon = math.inf
    if flops_left and rate > _EPS:
        horizon = rem_flops / rate
    if rem_bytes > bytes_floor and bw_rate > _EPS:
        t = rem_bytes / bw_rate
        if t < horizon:
            horizon = t
    return occ, rate, bw_rate, horizon


def commit_chain(sim: "Simulator", device: "Device", plan: ChainPlan) -> None:
    """Apply a planned chain: device accounting and the event budget.

    Called by a stretch's continuation, in iteration order.  Deltas are
    replayed as individual ``+=`` in the scalar chain's order — float
    addition is not associative, and the utilisation integrals are
    fingerprinted.  The clock is not touched: the continuation fires at
    the stretch's last completion.
    """
    if plan.idle_delta is not None:
        device._bw_capacity_seconds += plan.idle_delta
    for bw_delta, sm_delta, served_delta in plan.steps:
        device._bw_capacity_seconds += bw_delta
        device._sm_seconds += sm_delta
        device._bw_bytes_served += served_delta
    device._sm_occupancy = 0.0
    device._last_advance = plan.retire_time
    sim._event_count += plan.events
    sim._fired_in_run += plan.events


# ---------------------------------------------------------------------- #
# Co-run stretches: the dry run of one replica's host, streams and device
# ---------------------------------------------------------------------- #

#: Virtual event kinds of a :class:`CoRunPlan`.
K_HOST, K_UPDATE, K_COMPLETE = range(3)

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


#: The ``ExecTask`` fields the device advances (see :meth:`CoRunPlan.snapshot`).
_TASK_STATE = ("rem_flops", "rem_bytes", "compute_rate", "bw_rate", "sm_count", "start_time")


def clone_task(task: ExecTask) -> ExecTask:
    """A copy of ``task`` the dry run may advance."""
    copy = ExecTask.__new__(ExecTask)
    for name in ExecTask.__slots__:
        setattr(copy, name, getattr(task, name))
    return copy


class CoRunPlan:
    """Dry run of one replica's host thread, two streams and device.

    Replays ``HostThread._pump``/``_finish``, ``Stream._pump``/``_op_done``
    and ``Device.submit``/``_on_update``/``_reschedule``/``_advance_to_now``
    /``_reallocate`` (lone and pair paths) for at most two unstalled tasks,
    operation for operation, on copies: the real objects are read at the
    start and left untouched.  Virtual events are ordered by ``(time, seq)``
    exactly as the heap orders them.  Every heap operation the scalar path
    would make is recorded in ``ops`` for the simulator's
    :class:`~repro.sim.simulator.Footprint`.

    The caller launches tasks (:meth:`launch`), runs the plan to the next
    task completion (:meth:`next_completion`), pops it (:meth:`take`,
    :meth:`release`) and decides what the server does there.
    """

    def __init__(self, device: "Device", host, now: float) -> None:
        self.now = now
        self.seq = _VIRTUAL_SEQ0
        self.live: list[VirtualEntry] = []
        self.cancelled: list[VirtualEntry] = []
        self.ops: list[tuple[float, int, VirtualEntry]] = []
        #: Scalar events fired so far (the shadow included).
        self.fired = 0
        self.shadow: VirtualEntry | None = None
        # Device.
        self.eff_bw = device.effective_bandwidth
        self.fps = device._flops_per_sm
        self.total = device.total_sms
        self.kappa = device.spec.contention_kappa
        self.active: list = []
        self.last = device._last_advance
        self.occ = device._sm_occupancy
        self.update: VirtualEntry | None = None
        self.bw_cap = device._bw_capacity_seconds
        self.sm_sec = device._sm_seconds
        self.served = device._bw_bytes_served
        self.pair = device._pair_factors
        # Host thread.
        self.host_busy = False
        self.host_op: tuple | None = None
        self.host_start = 0.0
        self.host_entry: VirtualEntry | None = None
        self.host_queue: list[tuple] = []
        self.host_seconds = host._busy_seconds

    # -------------------------------------------------------------- #
    # Virtual queue
    # -------------------------------------------------------------- #

    def schedule(self, time: float, kind: int, arg=None) -> VirtualEntry:
        now = self.now
        if time <= now:
            time = now
        self.seq += 1
        entry = VirtualEntry(time, self.seq, kind, arg)
        self.live.append(entry)
        self.ops.append((now, V_PUSH, entry))
        return entry

    def adopt(self, event, kind: int, arg=None) -> VirtualEntry:
        """Take over a live real event of the replica (the shadow)."""
        entry = VirtualEntry(event.time, event.seq, kind, arg, shadow=event)
        self.live.append(entry)
        self.shadow = entry
        return entry

    def take(self, entry: VirtualEntry) -> None:
        """Pop ``entry`` (the head) and move the clock to it."""
        self.live.remove(entry)
        self.now = entry.time
        self.fired += 1
        if entry.shadow is None:
            self.ops.append((entry.time, V_FIRE, entry))

    def next_completion(self) -> VirtualEntry:
        """Fire host finishes and device updates up to the next task
        completion, and return it (still queued; the caller decides).

        One loop on local variables does what the scalar path does per
        event: ``HostThread._finish``/``_pump`` and ``Stream._pump``,
        ``Device.submit``/``_on_update``, ``_advance_to_now``,
        ``_reschedule`` and ``_reallocate``'s lone and pair paths (with
        ``_over_request``, ``_waterfill_last`` and ``_task_horizon``
        inlined: the same operations in the same order).  On :class:`Bail`
        the plan is left inconsistent; the caller restores or drops it.
        """
        live = self.live
        cancelled = self.cancelled
        ops = self.ops
        append = ops.append
        fps = self.fps
        eff_bw = self.eff_bw
        total = self.total
        inf = math.inf
        now = self.now
        seq = self.seq
        fired = self.fired
        active = self.active
        last = self.last
        occ = self.occ
        update = self.update
        bw_cap = self.bw_cap
        sm_sec = self.sm_sec
        served = self.served
        pair = self.pair
        while True:
            # The earliest live entry; cancelled ones before it pop.
            if not live:
                raise Bail
            best = live[0]
            best_time = best.time
            for entry in live:
                time = entry.time
                if time < best_time or (time == best_time and entry.seq < best.seq):
                    best = entry
                    best_time = time
            if cancelled:
                for entry in cancelled:
                    if entry.time <= best_time:
                        break
                else:
                    entry = None
                if entry is not None:
                    best_seq = best.seq
                    due = [
                        e for e in cancelled
                        if e.time < best_time or (e.time == best_time and e.seq < best_seq)
                    ]
                    if due:
                        if len(due) > 1:
                            due.sort(key=_entry_key)
                        for entry in due:
                            cancelled.remove(entry)
                            append((entry.time, V_POP, entry))
            kind = best.kind
            if kind == K_COMPLETE:
                self.now = now
                self.seq = seq
                self.fired = fired
                self.active = active
                self.last = last
                self.occ = occ
                self.update = update
                self.bw_cap = bw_cap
                self.sm_sec = sm_sec
                self.served = served
                self.pair = pair
                return best
            live.remove(best)
            now = best_time
            fired += 1
            if best.shadow is None:
                append((now, V_FIRE, best))
            if kind == K_UPDATE:
                update = None
                task = None
                phase_change = True
            else:
                # HostThread._finish -> Stream._pump -> Device.submit.
                self.host_busy = False
                lane, task, _ = self.host_op
                self.host_op = None
                self.host_entry = None
                if lane.busy:
                    raise Bail
                lane.busy = True
                lane.op_start = now
                lane.task = task
                task.sm_count = lane.sms
                phase_change = False
            # Device._advance_to_now.
            dt = now - last
            last = now
            progress = dt > 0
            if progress:
                bw_cap += eff_bw * dt
            if (progress or phase_change) and active:
                if progress:
                    sm_sec += occ * dt
                compute_transition = False
                for t in active:
                    rem_flops = t.rem_flops
                    rem_bytes = t.rem_bytes
                    compute_rate = t.compute_rate
                    bw_rate = t.bw_rate
                    if progress:
                        done_flops = compute_rate * dt
                        if done_flops > rem_flops:
                            done_flops = rem_flops
                        done_bytes = bw_rate * dt
                        if done_bytes > rem_bytes:
                            done_bytes = rem_bytes
                        rem_flops -= done_flops
                        rem_bytes -= done_bytes
                        if rem_flops <= t._flops_floor:
                            if t.rem_flops > t._flops_floor:
                                compute_transition = True
                            rem_flops = 0.0
                        if rem_bytes <= t._bytes_floor:
                            rem_bytes = 0.0
                        served += done_bytes
                    if phase_change:
                        if (
                            rem_flops > 0.0
                            and compute_rate > _EPS
                            and now + rem_flops / compute_rate <= now
                        ):
                            rem_flops = 0.0
                        if rem_bytes > 0.0 and bw_rate > _EPS and now + rem_bytes / bw_rate <= now:
                            rem_bytes = 0.0
                    t.rem_flops = rem_flops
                    t.rem_bytes = rem_bytes
                if compute_transition and not phase_change:
                    demanded = sum(x.sm_count for x in active)
                    scale = 1.0 if demanded <= total else total / demanded
                    occ = sum(x.sm_count for x in active if not x.flops_done) * scale
            if task is not None:
                task.start_time = now
                if task.flops <= _EPS and task.bytes <= _EPS:
                    raise Bail  # completes synchronously inside submit()
                active.append(task)
            # Device._reschedule.
            if update is not None:
                live.remove(update)
                cancelled.append(update)
                append((now, V_CANCEL, update))
                update = None
            for t in active:
                if t.rem_flops <= t._flops_floor and t.rem_bytes <= t._bytes_floor:
                    still = []
                    for x in active:
                        if x.rem_flops <= x._flops_floor and x.rem_bytes <= x._bytes_floor:
                            # Device._finish_task.
                            fixed_time = x.fixed_time
                            seq += 1
                            entry = VirtualEntry(
                                now + fixed_time if fixed_time > 0 else now, seq, K_COMPLETE, x
                            )
                            live.append(entry)
                            append((now, V_PUSH, entry))
                        else:
                            still.append(x)
                    active = still
                    break
            if not active:
                occ = 0.0
            elif len(active) == 1:
                a = active[0]
                sa = a.sm_count
                if not 0 < sa <= total:
                    raise Bail
                occ, a.compute_rate, a.bw_rate, horizon = lone_rates(
                    sa, total, fps, eff_bw, a.rem_flops, a.rem_bytes,
                    a._flops_floor, a._bytes_floor, a.max_bandwidth,
                )
                if horizon < inf:
                    seq += 1
                    update = VirtualEntry(now + horizon, seq, K_UPDATE, None)
                    live.append(update)
                    append((now, V_PUSH, update))
            elif len(active) == 2:
                a, b = active
                sa = a.sm_count
                sb = b.sm_count
                demanded = sa + sb
                scale = 1.0 if demanded <= total else total / demanded
                a_flops = a.rem_flops
                a_bytes = a.rem_bytes
                b_flops = b.rem_flops
                b_bytes = b.rem_bytes
                a_left = a_flops > a._flops_floor
                b_left = b_flops > b._flops_floor
                if a_left:
                    occupied = sa + sb if b_left else sa
                else:
                    occupied = sb if b_left else 0
                occ = occupied * scale
                if not (0 < sa <= total and 0 < sb <= total):
                    raise Bail
                rate_a = a.compute_rate = fps * sa * scale
                rate_b = b.compute_rate = fps * sb * scale
                if pair[0] == sa and pair[1] == sb:
                    factor_a = pair[2]
                    factor_b = pair[3]
                else:
                    # Device._reallocate_pair's one-entry memo.
                    kappa = self.kappa
                    factor_a = max(
                        0.3, 1.0 - kappa * min(1.0, sb / total) * _config_ripple(sa, sb)
                    )
                    factor_b = max(
                        0.3, 1.0 - kappa * min(1.0, sa / total) * _config_ripple(sb, sa)
                    )
                    pair = (sa, sb, factor_a, factor_b)
                # _over_request(a, rate_a, factor_a), then b's.
                max_bandwidth = a.max_bandwidth
                if a_bytes <= a._bytes_floor:
                    demand_a = 0.0
                elif not a_left:
                    demand_a = max_bandwidth
                else:
                    demand_a = a_bytes / (a_flops / rate_a)
                    if max_bandwidth < demand_a:
                        demand_a = max_bandwidth
                if factor_a > 0 and demand_a < inf:
                    demand_a = demand_a / factor_a
                    if max_bandwidth < demand_a:
                        demand_a = max_bandwidth
                max_bandwidth = b.max_bandwidth
                if b_bytes <= b._bytes_floor:
                    demand_b = 0.0
                elif not b_left:
                    demand_b = max_bandwidth
                else:
                    demand_b = b_bytes / (b_flops / rate_b)
                    if max_bandwidth < demand_b:
                        demand_b = max_bandwidth
                if factor_b > 0 and demand_b < inf:
                    demand_b = demand_b / factor_b
                    if max_bandwidth < demand_b:
                        demand_b = max_bandwidth
                alloc_a, alloc_b = _waterfill2(demand_a, demand_b, eff_bw)
                bw_a = a.bw_rate = alloc_a * factor_a
                bw_b = b.bw_rate = alloc_b * factor_b
                # _task_horizon(b, _task_horizon(a, inf)).
                horizon = inf
                if a_left and rate_a > _EPS:
                    horizon = a_flops / rate_a
                if a_bytes > a._bytes_floor and bw_a > _EPS:
                    t = a_bytes / bw_a
                    if t < horizon:
                        horizon = t
                if b_left and rate_b > _EPS:
                    t = b_flops / rate_b
                    if t < horizon:
                        horizon = t
                if b_bytes > b._bytes_floor and bw_b > _EPS:
                    t = b_bytes / bw_b
                    if t < horizon:
                        horizon = t
                if horizon < inf:
                    seq += 1
                    update = VirtualEntry(now + horizon, seq, K_UPDATE, None)
                    live.append(update)
                    append((now, V_PUSH, update))
            else:
                raise Bail
            if kind == K_HOST and self.host_queue:
                # HostThread._finish ends with _pump: a queued launch starts.
                self.now = now
                self.seq = seq
                self.host_pump()
                seq = self.seq

    # -------------------------------------------------------------- #
    # Host thread and streams
    # -------------------------------------------------------------- #

    def launch(self, duration: float, lane: Lane, task, label: str) -> None:
        """``HostThread.enqueue(duration, partial(stream.submit, task))``."""
        self.host_queue.append((duration, lane, task, label))
        self.host_pump()

    def host_pump(self) -> None:
        if self.host_busy or not self.host_queue:
            return
        duration, lane, task, label = self.host_queue.pop(0)
        self.host_busy = True
        self.host_seconds += duration
        now = self.now
        self.host_op = (lane, task, label)
        self.host_start = now
        self.host_entry = self.schedule(now + duration, K_HOST)

    def release(self, lane: Lane) -> None:
        """``Stream._op_done``'s accounting, before the task's callback."""
        if lane.op_start is not None:
            lane.seconds += self.now - lane.op_start
            lane.op_start = None
        lane.busy = False

    # -------------------------------------------------------------- #
    # Snapshots (a stretch ends at its last accepted decode completion)
    # -------------------------------------------------------------- #

    def snapshot(self, tasks: tuple, lanes: tuple[Lane, ...]) -> tuple:
        """The plan's state, for :meth:`restore` (``tasks``: every task the
        plan may still advance; ``lanes``: the streams)."""
        return (
            _plan_state(self),
            self.live[:],
            self.cancelled[:],
            len(self.ops),
            self.active[:],
            self.host_queue[:],
            [(task, _task_state(task)) for task in tasks],
            [(lane, _lane_state(lane)) for lane in lanes],
        )

    def restore(self, snap: tuple) -> None:
        fields, live, cancelled, n_ops, active, host_queue, tasks, lanes = snap
        for name, value in zip(_PLAN_STATE, fields):
            setattr(self, name, value)
        self.live = live
        self.cancelled = cancelled
        self.active = active
        self.host_queue = host_queue
        del self.ops[n_ops:]
        for task, state in tasks:
            for name, value in zip(_TASK_STATE, state):
                setattr(task, name, value)
        for lane, (busy, op_start, seconds, task) in lanes:
            lane.busy = busy
            lane.op_start = op_start
            lane.seconds = seconds
            lane.task = task


#: The plan's scalar state (its lists are copied separately).
_PLAN_STATE = (
    "now", "seq", "fired", "shadow",
    "last", "occ", "update", "bw_cap", "sm_sec", "served", "pair",
    "host_busy", "host_op", "host_start", "host_entry", "host_seconds",
)
_plan_state = attrgetter(*_PLAN_STATE)
_task_state = attrgetter(*_TASK_STATE)
_lane_state = attrgetter("busy", "op_start", "seconds", "task")


def _entry_key(entry: VirtualEntry) -> tuple[float, int]:
    return (entry.time, entry.seq)
