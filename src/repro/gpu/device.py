"""The simulated GPU (or tensor-parallel GPU group) with contention.

The device executes :class:`ExecTask` items.  Each task carries a compute
demand (FLOPs, executed on a dedicated SM partition) and a memory demand
(bytes of HBM traffic, drawn from the *shared* bandwidth).  This mirrors the
paper's observation (§3.3.1) that green contexts give precise SM control but
leave memory bandwidth unmanaged: co-running prefill and decode contend for
bandwidth, slowing decode by up to 20-30 %.

Contention model — fluid-flow max-min fairness with demand caps:

* Compute progresses at a fixed rate proportional to the task's SM share
  (SMs are spatially partitioned, so no compute contention unless streams
  oversubscribe SMs, in which case rates scale down proportionally — this is
  how plain-stream multiplexing a la WindServe is modelled).
* Memory bandwidth is shared.  A compute-bound task only *demands* the
  bandwidth it can absorb (remaining bytes / remaining compute time);
  memory-bound tasks demand everything.  The device performs max-min fair
  water-filling over demands at every task arrival/phase-change event.

A task completes when both its FLOPs and bytes are done, plus an optional
``fixed_time`` tail modelling serialized work such as tensor-parallel
all-reduce that neither SMs nor HBM bandwidth can hide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.gpu.specs import GPUSpec
from repro.sim import Event, Simulator
from repro.trace.tracer import CAT_BANDWIDTH, CAT_KERNEL

_EPS = 1e-9
_task_ids = itertools.count()


class OutOfMemoryError(RuntimeError):
    """Raised when a device memory allocation exceeds capacity."""


#: Memo for :func:`_config_ripple` — a pure function of its (rounded) SM
#: pair, and partition configurations recur constantly, so the hash mix
#: runs once per distinct pair per process.
_ripple_cache: dict[tuple[int, int], float] = {}


def _config_ripple(own_sms: float, other_sms: float) -> float:
    """Deterministic irregular multiplier in [0.6, 1.4] per partition pair.

    Real contention varies jaggedly across SM configurations (Fig. 11); a
    hash-mixed ripple keyed on the two partition sizes reproduces that
    irregularity while staying fully reproducible.
    """
    a = int(round(own_sms)) & 0xFFFFFFFF
    b = int(round(other_sms)) & 0xFFFFFFFF
    key = (a, b)
    cached = _ripple_cache.get(key)
    if cached is not None:
        return cached
    mixed = (a * 2654435761 + b * 40503 + 12345) & 0xFFFFFFFF
    mixed ^= mixed >> 13
    mixed = (mixed * 1274126177) & 0xFFFFFFFF
    unit = (mixed % 10007) / 10006.0
    result = 0.6 + 0.8 * unit
    _ripple_cache[key] = result
    return result


@dataclass
class ExecTask:
    """One unit of GPU work (e.g. a prefill layer or a decode iteration).

    Attributes:
        flops: Total floating-point work.
        bytes: Total HBM traffic (weights + KV cache + activations).
        sm_count: SMs granted to this task (its green-context size).  May be
            fractional when a task runs on a subset of the GPUs of a logical
            tensor-parallel group (k of g GPUs => sm_count = sms * k / g).
        fixed_time: Serialized tail time (e.g. NVLink all-reduce) appended
            after compute and memory complete.
        max_bandwidth: Upper bound on the HBM bandwidth this task may draw.
            ``inf`` for intra-GPU green-context tasks (which may use the whole
            device's bandwidth); ``aggregate * k/g`` for tasks pinned to a
            k-GPU subset of a g-GPU group, since a job physically cannot read
            from HBM stacks it does not occupy.
        tag: Free-form label ("prefill"/"decode"/...), used by profiling.
        trace_track: Trace row for this task's execution span; streams set
            it to their own track, direct device submissions leave it None
            (the device then uses its generic exec row).
        on_complete: Called with the completion timestamp.
    """

    flops: float
    bytes: float
    sm_count: float
    fixed_time: float = 0.0
    max_bandwidth: float = math.inf
    tag: str = ""
    trace_track: str | None = None
    on_complete: Callable[[float], None] | None = None

    # Runtime state, managed by the device.
    task_id: int = field(default_factory=lambda: next(_task_ids))
    rem_flops: float = field(init=False, default=0.0)
    rem_bytes: float = field(init=False, default=0.0)
    bw_rate: float = field(init=False, default=0.0)
    compute_rate: float = field(init=False, default=0.0)
    start_time: float = field(init=False, default=math.nan)
    finish_time: float = field(init=False, default=math.nan)

    def __post_init__(self) -> None:
        self.rem_flops = float(self.flops)
        self.rem_bytes = float(self.bytes)
        # Relative thresholds below which a dimension counts as finished;
        # guards against float round-off residue stalling the fluid loop.
        self._flops_floor = max(_EPS, 1e-9 * float(self.flops))
        self._bytes_floor = max(_EPS, 1e-9 * float(self.bytes))

    @property
    def flops_done(self) -> bool:
        """True when the compute dimension has finished."""
        return self.rem_flops <= self._flops_floor

    @property
    def bytes_done(self) -> bool:
        """True when the memory dimension has finished."""
        return self.rem_bytes <= self._bytes_floor

    def solo_time(self, device: "Device") -> float:
        """Contention-free duration of this task on ``device``."""
        compute = self.flops / device.compute_rate(self.sm_count)
        bandwidth = min(device.effective_bandwidth, self.max_bandwidth)
        memory = self.bytes / bandwidth
        return max(compute, memory) + self.fixed_time

    def bandwidth_demand(self, base_compute_rate: float) -> float:
        """Bandwidth this task can usefully absorb right now (bytes/s)."""
        if self.bytes_done:
            return 0.0
        if self.flops_done:
            return self.max_bandwidth
        remaining_compute_time = self.rem_flops / base_compute_rate
        return min(self.rem_bytes / remaining_compute_time, self.max_bandwidth)


def waterfill(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` across ``demands``.

    Demands may be ``math.inf`` (task wants as much as possible).  Returns
    one allocation per demand; allocations never exceed the demand and sum
    to at most ``capacity``.

    The fast paths below are *bit-exact* shortcuts of the round-based
    algorithm, not approximations — the simulator's results must not depend
    on which branch ran.  In particular the under-demand path requires a
    1.0 byte/s margin: exactly at ``sum == capacity`` the rounds could
    leave a final task rate-limited to its share, and near it, float
    summation order could differ from the rounds' subtraction order.
    """
    n = len(demands)
    if n == 1:
        # One demand: round 1 gives it min(demand, capacity) exactly.
        d = demands[0]
        if d <= _EPS or capacity <= _EPS:
            return [0.0]
        return [d] if d <= capacity + _EPS else [capacity]
    alloc = [0.0] * n
    if capacity <= _EPS:
        return alloc
    total = 0.0
    for d in demands:
        total += d
    if total <= capacity - 1.0:
        # All demands finite (an inf makes the sum inf) and comfortably
        # under capacity: every round caps at least one task at exactly
        # its demand, so the outcome is each task getting its demand.
        return [d if d > _EPS else 0.0 for d in demands]
    unsatisfied = [i for i in range(n) if demands[i] > _EPS]
    remaining = capacity
    while unsatisfied and remaining > _EPS:
        share = remaining / len(unsatisfied)
        capped = []
        still = []
        for i in unsatisfied:
            if demands[i] <= share + _EPS:
                capped.append(i)
            else:
                still.append(i)
        if not capped:
            for i in unsatisfied:
                alloc[i] = share
            return alloc
        for i in capped:
            alloc[i] = demands[i]
            remaining -= demands[i]
        unsatisfied = still
    return alloc


class Device:
    """A simulated GPU or tensor-parallel group of identical GPUs.

    A TP group is modelled as one logical device with ``n_gpus`` times the
    FLOPs, bandwidth and memory of a single GPU.  SM partitioning is
    expressed in *per-GPU* SM counts and mirrored across the group, matching
    how MuxWise configures the same green-context split on every GPU.
    """

    def __init__(self, sim: Simulator, spec: GPUSpec, n_gpus: int = 1, name: str = "gpu") -> None:
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        self.sim = sim
        self.spec = spec
        self.n_gpus = n_gpus
        self.name = name
        self.total_sms = spec.sms
        self.effective_bandwidth = spec.effective_bandwidth * n_gpus
        self._flops_per_sm = spec.effective_flops * n_gpus / spec.sms
        # Nominal (healthy) rates; fault injection degrades the live ones.
        self._nominal_bandwidth = self.effective_bandwidth
        self._nominal_flops_per_sm = self._flops_per_sm
        self._stalled = False

        self._active: list[ExecTask] = []
        self._last_advance = sim.now
        self._update_event: Event | None = None
        #: SM-seconds accrual rate of the *current* active set (occupied
        #: SMs x oversubscription scale).  Recomputed whenever the active
        #: set or a task's compute phase changes — i.e. in
        #: :meth:`_reallocate` / :meth:`_reschedule`, which every mutation
        #: path runs after :meth:`_advance_to_now` — so the advance itself
        #: is O(active) without re-summing occupancy.
        self._sm_occupancy = 0.0
        # Single-entry interference-factor cache.  A task's sm_count never
        # changes after submit, so the factors depend only on the identity
        # and order of the active set; reallocation events that leave the
        # set unchanged (the common case: a pure bandwidth phase change)
        # skip the O(n^2) ripple recompute.
        self._factors_key: tuple[int, ...] = ()
        self._factors: list[float] = []

        # Memory accounting (one shared space across the group).
        self.mem_capacity = spec.mem_bytes * n_gpus
        self.mem_allocated = 0.0

        # Utilisation accounting.  Both integrals are piecewise: the SM
        # numerator uses the occupancy in effect during each interval
        # (tasks whose compute dimension finished hold no SMs during their
        # memory tail), and the bandwidth denominator integrates the
        # capacity that was actually available — a device degraded
        # mid-window must never report >100 % utilisation.
        self._sm_seconds = 0.0
        self._bw_bytes_served = 0.0
        self._bw_capacity_seconds = 0.0
        self._accounting_start = sim.now

    # ------------------------------------------------------------------ #
    # Rates
    # ------------------------------------------------------------------ #

    def compute_rate(self, sm_count: float) -> float:
        """FLOP/s delivered by ``sm_count`` per-GPU SMs across the group."""
        if not 0 < sm_count <= self.total_sms:
            raise ValueError(f"sm_count {sm_count} out of range (1..{self.total_sms})")
        return self._flops_per_sm * sm_count

    # ------------------------------------------------------------------ #
    # Fault surface (driven by :mod:`repro.faults`)
    # ------------------------------------------------------------------ #

    @property
    def stalled(self) -> bool:
        """True while the device hangs (no task makes any progress)."""
        return self._stalled

    @property
    def degraded(self) -> bool:
        """True while bandwidth and/or compute run below nominal."""
        return (
            self.effective_bandwidth < self._nominal_bandwidth - _EPS
            or self._flops_per_sm < self._nominal_flops_per_sm - _EPS
        )

    def set_degradation(
        self, bandwidth_factor: float = 1.0, compute_factor: float = 1.0
    ) -> None:
        """Scale the device below (or back to) its nominal rates.

        Models a sick GPU mid-run: thermal throttling, a flaky HBM stack
        (``bandwidth_factor``), ECC-masked dead SMs (``compute_factor``).
        Factors are absolute w.r.t. the nominal spec, so
        ``set_degradation()`` restores full health.  Active tasks are
        advanced under the old rates first, then re-planned under the new
        ones.
        """
        if not 0.0 < bandwidth_factor <= 1.0 or not 0.0 < compute_factor <= 1.0:
            raise ValueError("degradation factors must be in (0, 1]")
        self._advance_to_now()
        self.effective_bandwidth = self._nominal_bandwidth * bandwidth_factor
        self._flops_per_sm = self._nominal_flops_per_sm * compute_factor
        self._reschedule()

    def stall(self, duration: float | None = None) -> None:
        """Freeze the device: active tasks stop progressing entirely.

        Models a hung kernel / wedged partition.  With ``duration`` the
        device resumes by itself; with ``None`` it hangs until
        :meth:`unstall` — or until a fleet health watchdog declares the
        replica dead.  The self-resume event inherits the current scope, so
        killing the replica also cancels the pending resume.
        """
        if self._stalled:
            return
        self._advance_to_now()
        self._stalled = True
        self._reschedule()
        if duration is not None:
            self.sim.schedule(duration, self.unstall)

    def unstall(self) -> None:
        """Resume a stalled device; tasks continue where they froze."""
        if not self._stalled:
            return
        self._stalled = False
        # No progress accrued during the stall (all rates were zero).
        self._advance_to_now()
        self._reschedule()

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #

    def alloc_memory(self, n_bytes: float) -> None:
        """Reserve HBM; raises :class:`OutOfMemoryError` when over capacity."""
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.mem_allocated + n_bytes > self.mem_capacity + _EPS:
            raise OutOfMemoryError(
                f"{self.name}: requested {n_bytes / 2**30:.2f} GiB, "
                f"free {(self.mem_capacity - self.mem_allocated) / 2**30:.2f} GiB"
            )
        self.mem_allocated += n_bytes

    def free_memory(self, n_bytes: float) -> None:
        """Release previously reserved HBM."""
        if n_bytes < 0:
            raise ValueError("free size must be non-negative")
        self.mem_allocated = max(0.0, self.mem_allocated - n_bytes)

    @property
    def mem_free(self) -> float:
        """Unreserved HBM bytes."""
        return self.mem_capacity - self.mem_allocated

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def submit(self, task: ExecTask) -> ExecTask:
        """Begin executing ``task`` now; its callback fires on completion.

        Zero-work tasks normally complete immediately, but never on a
        stalled device: a hung partition must not emit completions, so
        they join the active set and retire when the stall clears.
        """
        self._advance_to_now()
        task.start_time = self.sim.now
        if not self._stalled and task.flops <= _EPS and task.bytes <= _EPS:
            self._finish_task(task)
            return task
        self._active.append(task)
        self._reschedule()
        return task

    @property
    def active_tasks(self) -> tuple[ExecTask, ...]:
        """Tasks currently consuming device resources."""
        return tuple(self._active)

    def _compute_scale(self) -> float:
        """Scale-down factor when streams oversubscribe SMs (plain streams)."""
        demanded = sum(t.sm_count for t in self._active)
        if demanded <= self.total_sms:
            return 1.0
        return self.total_sms / demanded

    def _interference_factor(self, task: ExecTask) -> float:
        """Fraction of allocated bandwidth ``task`` actually achieves.

        Spatial co-runners pollute the shared memory system (L2, DRAM row
        buffers) in ways SM partitioning cannot control — the paper's §3.3.1
        observation that contention is irregular across partition
        configurations.  The loss grows with the co-runners' SM footprint and
        carries a deterministic per-configuration ripple so that profiling it
        (Fig. 11) yields the paper's jagged, hard-to-model surface.
        """
        others = [t for t in self._active if t is not task]
        if not others:
            return 1.0
        kappa = self.spec.contention_kappa
        loss = 0.0
        for other in others:
            frac = min(1.0, other.sm_count / self.total_sms)
            loss += kappa * frac * _config_ripple(task.sm_count, other.sm_count)
        return max(0.3, 1.0 - loss)

    def _reallocate(self) -> None:
        if len(self._active) == 1 and not self._stalled:
            # Fast path for the dominant case (one fused step in flight):
            # the interference factor of a lone task is exactly 1.0 and
            # waterfill of one demand is min(demand, capacity), so this is
            # a bit-exact shortcut of the general path below.
            task = self._active[0]
            sm = task.sm_count
            scale = 1.0 if sm <= self.total_sms else self.total_sms / sm
            self._sm_occupancy = (
                sm * scale if task.rem_flops > task._flops_floor else 0.0
            )
            rate = self.compute_rate(sm) * scale
            task.compute_rate = rate
            demand = task.bandwidth_demand(rate)
            if math.isfinite(demand) and demand > task.max_bandwidth:
                demand = task.max_bandwidth
            cap = self.effective_bandwidth
            if demand <= _EPS or cap <= _EPS:
                task.bw_rate = 0.0
            elif demand <= cap + _EPS:
                task.bw_rate = demand
            else:
                task.bw_rate = cap
            tracer = self.sim.tracer
            if tracer is None or not tracer.enabled:
                return
            self._trace_bandwidth()
            return
        scale = self._compute_scale()
        self._sm_occupancy = (
            sum(t.sm_count for t in self._active if not t.flops_done) * scale
        )
        if self._stalled:
            # A hung device makes no progress on any dimension; with all
            # rates zero _next_phase_change returns inf and no update event
            # is scheduled, so the device goes silent until unstalled.
            # (Hung tasks still *hold* their SMs — occupancy stays up.)
            for task in self._active:
                task.compute_rate = 0.0
                task.bw_rate = 0.0
            return
        for task in self._active:
            task.compute_rate = self.compute_rate(task.sm_count) * scale
        key = tuple(t.task_id for t in self._active)
        if key == self._factors_key:
            factors = self._factors
        else:
            factors = [self._interference_factor(t) for t in self._active]
            self._factors_key = key
            self._factors = factors
        demands = []
        for task, factor in zip(self._active, factors):
            demand = task.bandwidth_demand(task.compute_rate)
            if math.isfinite(demand) and factor > 0:
                # Compute-bound tasks over-request to absorb interference.
                demand = min(demand / factor, task.max_bandwidth)
            demands.append(demand)
        allocs = waterfill(demands, self.effective_bandwidth)
        for task, alloc, factor in zip(self._active, allocs, factors):
            task.bw_rate = alloc * factor
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            self._trace_bandwidth()

    def _trace_bandwidth(self) -> None:
        used = sum(t.bw_rate for t in self._active)
        self.sim.tracer.counter(
            f"gpu/{self.name}",
            "hbm-bandwidth",
            self.sim.now,
            {
                "allocated": used,
                "idle": max(0.0, self.effective_bandwidth - used),
            },
            cat=CAT_BANDWIDTH,
        )

    def _next_phase_change(self) -> float:
        """Seconds until any active task finishes a dimension."""
        horizon = math.inf
        for task in self._active:
            if task.rem_flops > task._flops_floor and task.compute_rate > _EPS:
                t = task.rem_flops / task.compute_rate
                if t < horizon:
                    horizon = t
            if task.rem_bytes > task._bytes_floor and task.bw_rate > _EPS:
                t = task.rem_bytes / task.bw_rate
                if t < horizon:
                    horizon = t
        return horizon

    def _advance_to_now(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        if dt <= 0:
            self._last_advance = now
            return
        # Rates and occupancy are constant over [last_advance, now): every
        # mutation (submit, stall, degradation, phase change) advances the
        # clock first, so integrating with the *start-of-interval* state is
        # exact.  Tasks whose compute dimension already finished stream
        # their memory tail without holding SMs; ``_sm_occupancy`` carries
        # that occupied-SMs-x-scale product between reallocations.
        self._bw_capacity_seconds += self.effective_bandwidth * dt
        if self._active:
            self._sm_seconds += self._sm_occupancy * dt
            served = self._bw_bytes_served
            compute_transition = False
            for task in self._active:
                done_flops = task.compute_rate * dt
                if done_flops > task.rem_flops:
                    done_flops = task.rem_flops
                done_bytes = task.bw_rate * dt
                if done_bytes > task.rem_bytes:
                    done_bytes = task.rem_bytes
                floor = task._flops_floor
                was_running = task.rem_flops > floor
                task.rem_flops -= done_flops
                task.rem_bytes -= done_bytes
                if task.rem_flops <= floor:
                    task.rem_flops = 0.0
                    if was_running:
                        compute_transition = True
                if task.rem_bytes <= task._bytes_floor:
                    task.rem_bytes = 0.0
                served += done_bytes
            self._bw_bytes_served = served
            if compute_transition:
                # A compute dimension crossed its floor mid-advance (the
                # caller may not reallocate, e.g. a utilisation probe):
                # refresh the occupancy rate for the next interval.
                self._sm_occupancy = (
                    sum(t.sm_count for t in self._active if not t.flops_done)
                    * self._compute_scale()
                )
        self._last_advance = now

    def _reschedule(self) -> None:
        if self._update_event is not None:
            self._update_event.cancel()
            self._update_event = None
        if self._stalled:
            # A hung device neither progresses nor completes anything —
            # even tasks whose dimensions are already done stay queued
            # behind the stall and retire when it clears.
            self._reallocate()
            return
        # Retire tasks whose dimensions are both complete (single pass,
        # order-preserving).
        finished: list[ExecTask] | None = None
        still: list[ExecTask] = []
        for t in self._active:
            if t.rem_flops <= t._flops_floor and t.rem_bytes <= t._bytes_floor:
                if finished is None:
                    finished = [t]
                else:
                    finished.append(t)
            else:
                still.append(t)
        if finished:
            self._active = still
            for task in finished:
                self._finish_task(task)
        if not self._active:
            self._sm_occupancy = 0.0
            return
        self._reallocate()
        horizon = self._next_phase_change()
        if math.isfinite(horizon):
            self._update_event = self.sim.schedule(horizon, self._on_update)

    def _on_update(self) -> None:
        self._update_event = None
        self._advance_to_now()
        self._reschedule()

    def _finish_task(self, task: ExecTask) -> None:
        def complete() -> None:
            task.finish_time = self.sim.now
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled:
                tracer.complete(
                    task.trace_track or f"gpu/{self.name}/exec",
                    task.tag or "exec",
                    CAT_KERNEL,
                    task.start_time,
                    task.finish_time,
                    {"sms": task.sm_count, "flops": task.flops, "bytes": task.bytes},
                )
            if task.on_complete is not None:
                task.on_complete(self.sim.now)

        if task.fixed_time > 0:
            self.sim.schedule(task.fixed_time, complete)
        else:
            self.sim.schedule(0.0, complete)

    # ------------------------------------------------------------------ #
    # Utilisation metrics
    # ------------------------------------------------------------------ #

    def reset_accounting(self) -> None:
        """Restart the utilisation integrals from the current time."""
        self._advance_to_now()
        self._sm_seconds = 0.0
        self._bw_bytes_served = 0.0
        self._bw_capacity_seconds = 0.0
        self._accounting_start = self.sim.now

    def sm_utilization(self) -> float:
        """Time-averaged fraction of SMs occupied since the last reset."""
        self._advance_to_now()
        elapsed = self.sim.now - self._accounting_start
        if elapsed <= 0:
            return 0.0
        return self._sm_seconds / (self.total_sms * elapsed)

    def bandwidth_utilization(self) -> float:
        """Time-averaged fraction of HBM bandwidth used since last reset.

        Served bytes are divided by the *integrated* capacity over the
        window, not the instantaneous rate: dividing by the current
        (possibly degraded) bandwidth would let a device throttled
        mid-window report more than 100 %.
        """
        self._advance_to_now()
        if self._bw_capacity_seconds <= 0:
            return 0.0
        return self._bw_bytes_served / self._bw_capacity_seconds
