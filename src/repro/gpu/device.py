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

import math
from functools import partial
from typing import Callable

from repro.gpu.specs import GPUSpec
from repro.sim import Event, Simulator
from repro.trace.tracer import CAT_BANDWIDTH, CAT_KERNEL

_EPS = 1e-9


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


class ExecTask:
    """One unit of GPU work (e.g. a prefill layer or a decode iteration).

    A ``__slots__`` class rather than a dataclass: one is built per launch.

    Attributes:
        flops: Total floating-point work.
        bytes: Total HBM traffic (weights + KV cache + activations).
        sm_count: SMs granted to this task (its green-context size).  May be
            fractional when a task runs on a subset of the GPUs of a logical
            tensor-parallel group (k of g GPUs => sm_count = sms * k / g).
            A :class:`~repro.gpu.stream.Stream` sets it (and ``trace_track``)
            when the task starts, so stream tasks leave it at 0; a task
            submitted straight to the device must set it.
        fixed_time: Serialized tail time (e.g. NVLink all-reduce) appended
            after compute and memory complete.
        max_bandwidth: Upper bound on the HBM bandwidth this task may draw.
            ``inf`` for intra-GPU green-context tasks (which may use the whole
            device's bandwidth); ``aggregate * k/g`` for tasks pinned to a
            k-GPU subset of a g-GPU group, since a job physically cannot read
            from HBM stacks it does not occupy.
        tag: Free-form label ("prefill"/"decode"/...), used by profiling;
            a stream names untagged tasks after itself.
        trace_track: Trace row for this task's execution span; streams set
            it to their own track, direct device submissions leave it None
            (the device then uses its generic exec row).
        on_complete: Called with the completion timestamp (on a stream:
            after the stream is released, before its next op starts).

    The device manages the runtime state: ``rem_flops``, ``rem_bytes``,
    ``compute_rate``, ``bw_rate``, ``start_time``, ``finish_time`` and
    ``completion`` (the event that completes a retired task).
    """

    __slots__ = (
        "flops", "bytes", "sm_count", "fixed_time", "max_bandwidth", "tag",
        "trace_track", "on_complete", "rem_flops", "rem_bytes",
        "bw_rate", "compute_rate", "start_time", "finish_time", "completion",
        "_flops_floor", "_bytes_floor",
    )

    def __init__(
        self,
        flops: float,
        bytes: float,
        sm_count: float = 0.0,
        fixed_time: float = 0.0,
        max_bandwidth: float = math.inf,
        tag: str = "",
        trace_track: str | None = None,
        on_complete: Callable[[float], None] | None = None,
    ) -> None:
        self.flops = flops
        self.bytes = bytes
        self.sm_count = sm_count
        self.fixed_time = fixed_time
        self.max_bandwidth = max_bandwidth
        self.tag = tag
        self.trace_track = trace_track
        self.on_complete = on_complete
        self.rem_flops = float(flops)
        self.rem_bytes = float(bytes)
        self.bw_rate = 0.0
        self.compute_rate = 0.0
        self.start_time = math.nan
        self.finish_time = math.nan
        self.completion: Event | None = None
        # Relative thresholds below which a dimension counts as finished;
        # guards against float round-off residue stalling the fluid loop.
        self._flops_floor = max(_EPS, 1e-9 * self.rem_flops)
        self._bytes_floor = max(_EPS, 1e-9 * self.rem_bytes)

    @property
    def flops_done(self) -> bool:
        """True when the compute dimension has finished."""
        return self.rem_flops <= self._flops_floor

    @property
    def bytes_done(self) -> bool:
        """True when the memory dimension has finished."""
        return self.rem_bytes <= self._bytes_floor


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




def _waterfill2(d0: float, d1: float, capacity: float) -> tuple[float, float]:
    """``waterfill([d0, d1], capacity)`` bit for bit: the rounds' comparisons
    and their one subtraction, ``capacity - capped demand``, with no lists."""
    if capacity <= _EPS:
        return 0.0, 0.0
    if 0.0 + d0 + d1 <= capacity - 1.0:
        return (d0 if d0 > _EPS else 0.0), (d1 if d1 > _EPS else 0.0)
    if d0 > _EPS and d1 > _EPS:
        share = capacity / 2
        capped0 = d0 <= share + _EPS
        if capped0 == (d1 <= share + _EPS):
            return (d0, d1) if capped0 else (share, share)
        if capped0:
            return d0, _waterfill_last(d1, capacity - d0)
        return _waterfill_last(d0, capacity - d1), d1
    if d0 > _EPS:
        return _waterfill_last(d0, capacity), 0.0
    return 0.0, (_waterfill_last(d1, capacity) if d1 > _EPS else 0.0)


def _waterfill_last(demand: float, remaining: float) -> float:
    """The round over one unsatisfied demand (``share = remaining / 1``)."""
    if remaining <= _EPS:
        return 0.0
    return demand if demand <= remaining + _EPS else remaining


def _over_request(task: ExecTask, rate: float, factor: float) -> float:
    """Bandwidth ``task`` can usefully absorb at compute ``rate`` (bytes/s);
    compute-bound tasks over-request by ``1 / factor`` to absorb
    interference (``factor <= 0``: plain demand)."""
    max_bandwidth = task.max_bandwidth
    if task.rem_bytes <= task._bytes_floor:
        demand = 0.0
    elif task.rem_flops <= task._flops_floor:
        demand = max_bandwidth
    else:
        demand = task.rem_bytes / (task.rem_flops / rate)
        if max_bandwidth < demand:
            demand = max_bandwidth
    if factor > 0 and math.isfinite(demand):
        demand = demand / factor
        if max_bandwidth < demand:  # min(demand / factor, max_bandwidth)
            demand = max_bandwidth
    return demand


def _task_horizon(task: ExecTask, horizon: float) -> float:
    """``horizon``, or sooner if ``task`` finishes a dimension first."""
    if task.rem_flops > task._flops_floor and task.compute_rate > _EPS:
        t = task.rem_flops / task.compute_rate
        if t < horizon:
            horizon = t
    if task.rem_bytes > task._bytes_floor and task.bw_rate > _EPS:
        t = task.rem_bytes / task.bw_rate
        if t < horizon:
            horizon = t
    return horizon

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
        self._factors_key: tuple[ExecTask, ...] = ()
        self._factors: list[float] = []
        # The two-task path's factors are a pure function of the two SM
        # counts, so its single entry (sa, sb, factor_a, factor_b) is keyed on them.
        self._pair_factors = (math.nan, math.nan, 1.0, 1.0)

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

    def submit(self, task: ExecTask) -> None:
        """Begin executing ``task`` now; its callback fires on completion.

        Zero-work tasks normally complete immediately, but never on a
        stalled device: a hung partition must not emit completions, so
        they join the active set and retire when the stall clears.
        """
        self._advance_to_now()
        task.start_time = self.sim.now
        if not self._stalled and task.flops <= _EPS and task.bytes <= _EPS:
            self._finish_task(task)
            return
        self._active.append(task)
        self._reschedule()

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

    def _reallocate(self) -> float:
        """Re-plan the rates; returns seconds to the next phase change.

        One and two unstalled tasks take bit-exact shortcuts of the general
        path: the same float operations in the same order.
        """
        active = self._active
        n = len(active)
        counters = self.sim.counters
        if n == 1 and not self._stalled:
            counters.realloc_lone += 1
            # A lone task's interference factor is exactly 1.0 and the
            # water-fill of one demand is min(demand, capacity).
            task = active[0]
            sm = task.sm_count
            scale = 1.0 if sm <= self.total_sms else self.total_sms / sm
            self._sm_occupancy = sm * scale if task.rem_flops > task._flops_floor else 0.0
            rate = task.compute_rate = self.compute_rate(sm) * scale
            demand = _over_request(task, rate, 1.0)
            task.bw_rate = 0.0 if demand <= _EPS else _waterfill_last(
                demand, self.effective_bandwidth
            )
            horizon = _task_horizon(task, math.inf)
        elif n == 2 and not self._stalled:
            counters.realloc_pair += 1
            horizon = self._reallocate_pair(active[0], active[1])
        else:
            counters.realloc_general += 1
            horizon = self._reallocate_general()
            if self._stalled:
                return horizon
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace_bandwidth()
        return horizon

    def _reallocate_pair(self, a: ExecTask, b: ExecTask) -> float:
        """:meth:`_reallocate_general` for exactly two unstalled tasks."""
        total_sms = self.total_sms
        sa = a.sm_count
        sb = b.sm_count
        demanded = sa + sb  # sum() starts from int 0, and 0 + x == x
        scale = 1.0 if demanded <= total_sms else total_sms / demanded
        if a.rem_flops > a._flops_floor:
            occupied = sa + sb if b.rem_flops > b._flops_floor else sa
        else:
            occupied = sb if b.rem_flops > b._flops_floor else 0
        self._sm_occupancy = occupied * scale
        if not (0 < sa <= total_sms and 0 < sb <= total_sms):
            self.compute_rate(sa)
            self.compute_rate(sb)  # one of the two raises the range error
        flops_per_sm = self._flops_per_sm
        rate_a = a.compute_rate = flops_per_sm * sa * scale
        rate_b = b.compute_rate = flops_per_sm * sb * scale
        pair = self._pair_factors
        if pair[0] == sa and pair[1] == sb:
            factor_a = pair[2]
            factor_b = pair[3]
        else:
            # _interference_factor with one co-runner: loss = 0.0 + x == x.
            kappa = self.spec.contention_kappa
            factor_a = max(0.3, 1.0 - kappa * min(1.0, sb / total_sms) * _config_ripple(sa, sb))
            factor_b = max(0.3, 1.0 - kappa * min(1.0, sa / total_sms) * _config_ripple(sb, sa))
            self._pair_factors = (sa, sb, factor_a, factor_b)
        alloc_a, alloc_b = _waterfill2(
            _over_request(a, rate_a, factor_a),
            _over_request(b, rate_b, factor_b),
            self.effective_bandwidth,
        )
        a.bw_rate = alloc_a * factor_a
        b.bw_rate = alloc_b * factor_b
        return _task_horizon(b, _task_horizon(a, math.inf))

    def _reallocate_general(self) -> float:
        """Any active set, stalled or not: scale, occupancy, factors,
        over-requesting demands and a max-min water-fill."""
        scale = self._compute_scale()
        self._sm_occupancy = (
            sum(t.sm_count for t in self._active if not t.flops_done) * scale
        )
        if self._stalled:
            # A hung device makes no progress on any dimension; with all
            # rates zero the horizon is inf and no update event is
            # scheduled, so the device goes silent until unstalled.
            # (Hung tasks still *hold* their SMs — occupancy stays up.)
            for task in self._active:
                task.compute_rate = 0.0
                task.bw_rate = 0.0
            return math.inf
        for task in self._active:
            task.compute_rate = self.compute_rate(task.sm_count) * scale
        key = tuple(self._active)
        if key == self._factors_key:
            factors = self._factors
        else:
            factors = [self._interference_factor(t) for t in self._active]
            self._factors_key = key
            self._factors = factors
        demands = [_over_request(t, t.compute_rate, f) for t, f in zip(self._active, factors)]
        allocs = waterfill(demands, self.effective_bandwidth)
        for task, alloc, factor in zip(self._active, allocs, factors):
            task.bw_rate = alloc * factor
        horizon = math.inf
        for task in self._active:
            horizon = _task_horizon(task, horizon)
        return horizon

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

    def _advance_to_now(self, phase_change: bool = False) -> None:
        """Integrate progress over ``[last_advance, now)``; on a
        ``phase_change`` also snap sub-ulp residues (a re-plan follows)."""
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        progress = dt > 0
        if progress:
            # Rates and occupancy are constant over [last_advance, now):
            # every mutation (submit, stall, degradation, phase change)
            # advances the clock first, so integrating with the
            # *start-of-interval* state is exact.  Tasks whose compute
            # dimension already finished stream their memory tail without
            # holding SMs; ``_sm_occupancy`` carries that
            # occupied-SMs-x-scale product between reallocations.
            self._bw_capacity_seconds += self.effective_bandwidth * dt
        elif not phase_change:
            return
        active = self._active
        if not active:
            return
        if progress:
            self._sm_seconds += self._sm_occupancy * dt
        served = self._bw_bytes_served
        compute_transition = False
        for task in active:
            rem_flops = task.rem_flops
            rem_bytes = task.rem_bytes
            compute_rate = task.compute_rate
            bw_rate = task.bw_rate
            if progress:
                done_flops = compute_rate * dt
                if done_flops > rem_flops:
                    done_flops = rem_flops
                done_bytes = bw_rate * dt
                if done_bytes > rem_bytes:
                    done_bytes = rem_bytes
                rem_flops -= done_flops
                rem_bytes -= done_bytes
                if rem_flops <= task._flops_floor:
                    if task.rem_flops > task._flops_floor:
                        compute_transition = True
                    rem_flops = 0.0
                if rem_bytes <= task._bytes_floor:
                    rem_bytes = 0.0
                served += done_bytes
            if phase_change:
                # Sub-ulp snap: a residue above its floor whose finish time
                # ``now + rem / rate`` rounds back to ``now`` can never be
                # advanced (every re-fire lands at the same instant, so
                # dt == 0) and would re-fire the update forever, so it
                # counts as finished.
                if rem_flops > 0.0 and compute_rate > _EPS and now + rem_flops / compute_rate <= now:
                    rem_flops = 0.0
                if rem_bytes > 0.0 and bw_rate > _EPS and now + rem_bytes / bw_rate <= now:
                    rem_bytes = 0.0
            task.rem_flops = rem_flops
            task.rem_bytes = rem_bytes
        if progress:
            self._bw_bytes_served = served
        if compute_transition and not phase_change:
            # A compute dimension crossed its floor mid-advance (the caller
            # may not reallocate, e.g. a utilisation probe): refresh the
            # occupancy rate for the next interval.
            self._sm_occupancy = (
                sum(t.sm_count for t in self._active if not t.flops_done)
                * self._compute_scale()
            )

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
        horizon = self._reallocate()
        if horizon < math.inf:
            sim = self.sim
            self._update_event = sim.schedule_at(sim.now + horizon, self._on_update)

    def _on_update(self) -> None:
        """A phase change: advance and snap in one pass, retire, re-plan."""
        self._update_event = None
        self._advance_to_now(phase_change=True)
        self._reschedule()

    def _finish_task(self, task: ExecTask) -> None:
        sim = self.sim
        fixed_time = task.fixed_time
        now = sim.now
        task.completion = sim.schedule_at(
            now + fixed_time if fixed_time > 0 else now, partial(self._complete, task)
        )

    def _complete(self, task: ExecTask) -> None:
        task.finish_time = now = self.sim.now
        task.completion = None  # the event fired (and referenced the task)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                task.trace_track or f"gpu/{self.name}/exec",
                task.tag or "exec",
                CAT_KERNEL,
                task.start_time,
                task.finish_time,
                {"sms": task.sm_count, "flops": task.flops, "bytes": task.bytes},
            )
        if task.on_complete is not None:
            task.on_complete(now)

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
