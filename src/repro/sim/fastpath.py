"""Vectorized decode-step batching — the simulator's decode fast path.

A steady decode batch produces a long run of *solo chains* on its device:
submit -> one or two phase-change updates -> completion, with nothing else
in the event queue before the completion fires.  The scalar path pays three
heap pushes/pops, an ``ExecTask``, two closures and a handful of dict
operations per generated token batch.  This module collapses each chain
into straight-line arithmetic: :func:`plan_chain` dry-runs the device's
fluid model for a lone task and :func:`commit_chain` replays the exact same
per-interval accounting against the device, charges the elided events to
the simulator's counters, and jumps the clock to the completion time.

Byte-identity contract (enforced by ``tests/sim/test_fastpath_equivalence``
and the golden fingerprints in ``tests/bench/test_perf.py``):

* The planner replicates ``Device._reallocate`` / ``_advance_to_now`` /
  ``_next_phase_change`` for the single-task case *operation for
  operation* — same divisions, same comparison epsilons, same clamp and
  floor order — so every float it produces is bit-equal to the scalar
  chain's.  Accounting deltas are replayed as individual ``+=`` in scalar
  order (float addition is not associative).
* A chain is elided only when its completion time lies strictly before the
  raw queue head (cancelled entries included), within the run's ``until``
  horizon, and within its ``max_events`` budget.  Anything else — an event
  due mid-chain, a tie at the completion instant, a cancelled head, a cap
  about to trip — flushes back to the scalar path, which reproduces the
  boundary behaviour with perfect fidelity.
* Elided events count toward ``processed_events`` and the run's fired-event
  budget; the queue high-water mark gets one ``len(heap) + 1`` candidate
  per iteration, exactly the depth the scalar chain would have reached
  (the chain keeps at most one event queued at any instant).

Token emission, request finishing, preemption, cache growth and metric
recording are *not* emulated — the serving loops call the real code between
elided chains, so everything downstream of the device is untouched.

The fast path is ON by default; set ``REPRO_FASTPATH=0`` (or use
:func:`disabled`) to force the scalar reference path.
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


def is_enabled() -> bool:
    """Whether the decode fast path is globally enabled."""
    return _enabled


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
    drivers must see one event per call), and no enabled tracer (the
    scalar chain emits kernel/bandwidth spans the planner does not).
    """
    if not _enabled or not sim._running:
        return False
    tracer = sim.tracer
    return tracer is None or not tracer.enabled


class ChainPlan:
    """Outcome of dry-running one solo task chain on an idle device.

    Attributes:
        completion: Absolute time the completion callback would fire.
        retire_time: Absolute time of the final phase-change update (the
            device's ``_last_advance`` after the chain).
        events: Simulator events the scalar chain would fire (updates + 1
            completion).
        idle_delta: Bandwidth-capacity integral of the idle gap before the
            submit, or None when the gap is empty.
        steps: Per-update accounting deltas ``(bw_capacity, sm_seconds,
            bytes_served)`` in scalar ``+=`` order.
    """

    __slots__ = ("completion", "retire_time", "events", "idle_delta", "steps")

    def __init__(
        self,
        completion: float,
        retire_time: float,
        events: int,
        idle_delta: float | None,
        steps: list[tuple[float, float, float]],
    ) -> None:
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
) -> ChainPlan | None:
    """Dry-run the solo chain of one full-SM task submitted at ``now``.

    Mirrors ``Device.submit`` -> ``_on_update``* -> ``_finish_task`` for a
    lone task occupying all SMs on an idle, unstalled device.  Returns
    ``None`` when the chain falls outside the replicated regime (zero-work
    task, non-finite horizon, degenerate float step) — callers then take
    the scalar path.  The device is not mutated.
    """
    rem_flops = float(flops)
    rem_bytes = float(bytes_)
    if rem_flops <= _EPS and rem_bytes <= _EPS:
        # Zero-work tasks complete synchronously inside submit().
        return None
    # ExecTask.__post_init__ floors.
    flops_floor = max(_EPS, 1e-9 * rem_flops)
    bytes_floor = max(_EPS, 1e-9 * rem_bytes)
    eff_bw = device.effective_bandwidth
    sm = device.total_sms
    # _reallocate's single-task fast path: sm_count == total_sms, so the
    # oversubscription scale is exactly 1.0 and multiplying by it is the
    # float identity — rate and occupancy reduce to the bare products.
    rate = device._flops_per_sm * sm

    # Device._advance_to_now for the idle gap preceding the submit.
    dt0 = now - device._last_advance
    idle_delta = eff_bw * dt0 if dt0 > 0 else None

    steps: list[tuple[float, float, float]] = []
    events = 0
    cur = now
    for _ in range(_MAX_CHAIN_ROUNDS):
        # _reallocate: occupancy, bandwidth demand, water-filled rate.
        occ = sm * 1.0 if rem_flops > flops_floor else 0.0
        if rem_bytes <= bytes_floor:
            demand = 0.0
        elif rem_flops <= flops_floor:
            demand = math.inf
        else:
            # ExecTask.bandwidth_demand, same division structure.
            demand = rem_bytes / (rem_flops / rate)
        if demand <= _EPS or eff_bw <= _EPS:
            bw_rate = 0.0
        elif demand <= eff_bw + _EPS:
            bw_rate = demand
        else:
            bw_rate = eff_bw
        # _next_phase_change.
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
    return ChainPlan(completion, cur, events + 1, idle_delta, steps)


def chain_allowed(sim: "Simulator", plan: ChainPlan) -> bool:
    """May ``plan`` be elided without reordering against the event queue?

    Strict inequality against the *raw* head (cancelled entries included):
    a tie would need the scalar heap's (priority, seq) order, and a
    cancelled head must be dropped by the run loop itself to keep the
    cancellation counters and queue depth byte-identical.
    """
    if not plan.completion < sim._fastpath_head_time():
        return False
    if plan.completion > sim._run_until:
        return False
    if sim._fired_in_run + plan.events > sim._run_cap:
        return False
    return True


def commit_chain(sim: "Simulator", device: "Device", plan: ChainPlan) -> None:
    """Apply an allowed plan: device accounting, event budget, clock.

    Deltas are replayed as individual ``+=`` in the scalar chain's order —
    float addition is not associative, and the utilisation integrals are
    fingerprinted.
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
    # The scalar chain keeps at most one event queued at any instant
    # (update XOR completion), so ``len + 1`` is the depth it reached.
    queue_len = len(sim._heap) + 1
    if queue_len > sim._max_queue:
        sim._max_queue = queue_len
    sim.now = plan.completion
