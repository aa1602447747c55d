"""Vectorized decode-step batching — the simulator's decode fast path.

A steady decode batch produces a long run of *solo chains* on its device:
(host launch ->) submit -> one or two phase-change updates -> completion,
with nothing else able to reach its server before the completion fires.
The scalar path pays several heap pushes/pops, an ``ExecTask``, closures
and a handful of dict operations per generated token batch.  This module
collapses each chain into straight-line arithmetic: :func:`plan_chain`
dry-runs the device's fluid model for a lone task and :func:`commit_chain`
replays the exact same per-interval accounting against the device and
charges the elided events to the simulator's counters.

The serving loop (``DecodeBatchMixin._decode_fast_loop``) strings
consecutive decode-only iterations into a *stretch*.  It plans every
iteration at the stretch's start and schedules **one continuation event**
in its server's scope at the last completion ``t_K``; the clock never
jumps.  When the continuation fires it commits the chains in order,
applies the stretch's token effects once per request (through
``RadixCache.extend_many`` and ``MetricsCollector.on_batch_tokens``) and
runs the server's own scalar completion handler: retire, then start the
next iteration.

Byte-identity contract (enforced by ``tests/sim/test_fastpath_equivalence``
and the golden fingerprints in ``tests/bench/test_perf.py``):

* The planner replicates ``HostThread`` / ``Device._reallocate`` /
  ``_advance_to_now`` / ``_task_horizon`` for the single-task case
  *operation for operation* — same additions for the launch and the
  serialized tail, same divisions, same comparison epsilons, same clamp
  and floor order — so every float it produces is bit-equal to the
  scalar chain's.  Accounting deltas are replayed as individual ``+=`` in
  scalar order (float addition is not associative).
* **Horizon.**  ``t_K`` must lie strictly before
  :meth:`Simulator.horizon` of the server's scope, within the run's
  ``until`` and within its ``max_events`` budget.  For an unscoped server
  (a single system) the horizon is the raw queue head, cancelled entries
  included, so nothing at all fires inside its stretch.  For a fleet
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
* **Events.**  During a decode-only iteration the scalar chain keeps
  exactly one event of its server queued (host finish, update or
  completion) and cancels nothing, so the single continuation leaves
  ``len(heap)`` — and the queue high-water mark — the same at every other
  push.  The continuation counts as one fired event and the stretch's
  other events are charged on commit, so ``processed_events`` matches
  too.  Other replicas' events commute with the stretch; one tied at
  exactly ``t_K`` fires after the continuation (its seq is older),
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
  one-iteration stretch through the real per-iteration emission.
  Speculative decoding and traced runs never reach the loop.

The fast path is ON by default; set ``REPRO_FASTPATH=0`` (or use
:func:`disabled`) to force the scalar reference path, which disables
stretches together with chain elision.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

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
    # _reallocate's single-task fast path: sm_count <= total_sms, so the
    # oversubscription scale is exactly 1.0 and multiplying by it is the
    # float identity — rate and occupancy reduce to the bare products.
    rate = device._flops_per_sm * sm

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
        # _reallocate: occupancy, bandwidth demand, water-filled rate.
        occ = sm * 1.0 if rem_flops > flops_floor else 0.0
        if rem_bytes <= bytes_floor:
            demand = 0.0
        elif rem_flops <= flops_floor:
            demand = math.inf
        else:
            # device._over_request, same division structure.
            demand = rem_bytes / (rem_flops / rate)
        if demand <= _EPS or eff_bw <= _EPS:
            bw_rate = 0.0
        elif demand <= eff_bw + _EPS:
            bw_rate = demand
        else:
            bw_rate = eff_bw
        # _task_horizon.
        horizon = math.inf
        if rem_flops > flops_floor and rate > _EPS:
            horizon = rem_flops / rate
        if rem_bytes > bytes_floor and bw_rate > _EPS:
            t = rem_bytes / bw_rate
            if t < horizon:
                horizon = t
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
