"""MuxWise: intra-GPU prefill-decode multiplexing server (§3).

Combines the bubble-less multiplex engine, the contention-tolerant
estimator, and the SLO-aware dispatcher:

* The dispatcher reserves the *best-fit* decode partition — the smallest SM
  configuration whose worst-case (guard-inflated) decode latency meets the
  TBT SLO — and gives every remaining SM to prefill (§3.4.2).
* Prefill executes layer-wise; each launched group is sized as
  ``N_PL = ceil(T_d * N_T / T_P)`` so it outlasts one decode iteration,
  keeping the prefill partition saturated without over-committing.
* Query-based synchronisation merges finished prefills into the decode
  batch at iteration boundaries without blocking either stream.
* Short prefill batches may preempt a long-running one at a layer boundary
  when queueing would break their TTFT slack and preemption does not break
  the victim's (no recursive preemption).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.engine import MultiplexEngine
from repro.core.estimator import ContentionTolerantEstimator
from repro.gpu.device import ExecTask
from repro.gpu.launch import DECODE_LAUNCH_LABEL, prefill_launch_label
from repro.gpu.specs import decode_partition_options
from repro.models.costs import PhaseCost, PrefillItem, phase_latency
from repro.serving.base import Instance, RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import SimulationError, Simulator, fastpath
from repro.sim.fastpath import K_COMPLETE, K_HOST, K_UPDATE, Bail, ChainPlan, CoRunPlan, Lane
from repro.sim.simulator import V_FIRE, Footprint
from repro.trace.tracer import CAT_SCHED

#: Share of the TBT SLO a decode partition is sized against; the rest is
#: headroom for estimator error.
SLO_MARGIN = 0.9


@dataclass
class PrefillJob:
    """A batched prefill executing layer-by-layer."""

    states: list[RequestState]
    items: list[PrefillItem]
    total_layers: int
    layers_done: int = 0
    group_in_flight: int = 0
    is_preemptor: bool = False
    preempt_requested: bool = False
    started_at: float = field(default=math.nan)
    #: Total new / reused tokens across the batch (``items`` is fixed once
    #: the job is built, so they are summed once).
    new_tokens: int = field(init=False)
    reused_tokens: int = field(init=False)
    #: Solo-run latency of the whole prefill by (partition size, predictor
    #: generation); ``items`` never changes, so each is predicted once.
    solo_latency: dict[tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Cost of one layer of the batch (``items`` is fixed), computed once.
    layer_cost: PhaseCost | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.new_tokens = sum(item.new for item in self.items)
        self.reused_tokens = sum(item.reused for item in self.items)

    @property
    def remaining_layers(self) -> int:
        """Layers not yet completed or in flight."""
        return self.total_layers - self.layers_done - self.group_in_flight


class MuxWiseServer(DecodeBatchMixin):
    """The paper's serving framework on the simulated substrate."""

    name = "MuxWise"

    def __init__(
        self,
        sim: Simulator,
        cfg: ServingConfig,
        estimator: ContentionTolerantEstimator | None = None,
        layerwise: bool = True,
        query_sync: bool = True,
        preemption: bool = True,
    ) -> None:
        super().__init__(sim, cfg)
        self.instance = build_instance(sim, cfg, cfg.n_gpus, name=f"{self.name}-inst")
        if estimator is None:
            from repro.core.calibration import calibrated_estimator

            estimator = calibrated_estimator(cfg)
        self.estimator = estimator
        self.layerwise = layerwise
        self.query_sync = query_sync
        self.preemption = preemption
        self.partition_options = decode_partition_options(cfg.spec)
        self.engine = MultiplexEngine(
            sim, self.instance, cfg, decode_sms=self.partition_options[0], layerwise=layerwise
        )
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self.merge_ready: list[RequestState] = []
        self.active_job: PrefillJob | None = None
        self.preempted_job: PrefillJob | None = None
        self._preemptor_state: RequestState | None = None
        self._decode_inflight = False
        # In-flight decode iteration: (batch, context sum, co-running job, submit time).
        self._inflight: tuple | None = None
        #: (time, decode_sms, prefill_sms) history for Fig. 18.
        self.partition_log: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        if self.preemption:
            self._maybe_preempt(state)
        self._pump_prefill()

    # ------------------------------------------------------------------ #
    # Prefill side
    # ------------------------------------------------------------------ #

    def _build_job(self) -> PrefillJob | None:
        """Assemble the next prefill batch (FCFS, preemptor first)."""
        states: list[RequestState] = []
        items: list[PrefillItem] = []
        tokens = 0
        is_preemptor = False

        def try_admit(state: RequestState) -> bool:
            nonlocal tokens
            self.plan_prefill(self.instance, state)
            if not self.allocate_context(self.instance, state):
                self.abandon_plan(self.instance, state)
                return False
            states.append(state)
            items.append(state.prefill_item())
            tokens += state.prefill_tokens
            return True

        if self._preemptor_state is not None:
            candidate = self._preemptor_state
            self._preemptor_state = None
            if candidate in self.waiting:
                self.waiting.remove(candidate)
                if try_admit(candidate):
                    is_preemptor = True
                else:
                    self.requeue(candidate)
                    return None
        while self.waiting and tokens < self.cfg.max_prefill_batch_tokens:
            state = self.waiting[0]
            if not self.can_ever_fit(self.instance, state):
                self.waiting.popleft()
                self.drop_request(self.instance, state)
                continue
            if states and tokens + state.prefill_tokens > self.cfg.max_prefill_batch_tokens:
                break
            if not try_admit(state):
                break
            self.waiting.popleft()
        if not states:
            return None
        return PrefillJob(
            states=states,
            items=items,
            total_layers=self.cfg.model.num_layers,
            is_preemptor=is_preemptor,
            started_at=self.sim.now,
        )

    def _pump_prefill(self) -> None:
        if self.active_job is None:
            if self.preempted_job is not None and self._preemptor_state is None:
                self.active_job = self.preempted_job
                self.preempted_job = None
            else:
                self.active_job = self._build_job()
        if self.active_job is not None and self.active_job.group_in_flight == 0:
            self._launch_group()

    def _prefill_partition(self) -> int:
        """SMs for prefill: the decode remainder, or the whole GPU when idle."""
        if self.running or self.merge_ready or self._decode_inflight:
            return self.instance.device.total_sms - self.engine.decode_sms
        return self.instance.device.total_sms

    def _group_size(self, job: PrefillJob, prefill_sms: int) -> int:
        """N_PL = ceil(T_d * N_T / T_P), clamped to the remaining layers."""
        remaining = job.remaining_layers
        if remaining <= 0:
            return 0
        if not self.layerwise:
            return remaining
        decode_lens = self.decode_context_lens([s for s in self.running if not s.finished])
        return self._layer_group(job, remaining, len(decode_lens), sum(decode_lens), prefill_sms)

    def _layer_group(
        self, job: PrefillJob, remaining: int, n_running: int, running_ctx: int, prefill_sms: int
    ) -> int:
        """``N_PL`` for ``n_running`` running requests holding ``running_ctx``
        context tokens, clamped to the ``remaining`` layers."""
        if n_running:
            t_decode = self.estimator.solo_decode(
                n_running, float(running_ctx), self.engine.decode_sms
            )
        else:
            t_decode = self.cfg.slo.tbt / 2.0
        t_prefill = self._solo_prefill(job, prefill_sms)
        n_pl = math.ceil(t_decode * job.total_layers / max(t_prefill, 1e-6))
        return max(1, min(remaining, n_pl))

    def _solo_prefill(self, job: PrefillJob, prefill_sms: int) -> float:
        """The estimator's solo prefill latency of ``job``, memoised on it."""
        key = (prefill_sms, self.estimator.predictor.generation)
        latency = job.solo_latency.get(key)
        if latency is None:
            latency = job.solo_latency[key] = self.estimator.solo_prefill(job.items, prefill_sms)
        return latency

    def _layers_cost(self, job: PrefillJob, count: int) -> PhaseCost:
        """``cost_model.prefill_layers(job.items, count)``, with the one
        layer's cost computed once per job."""
        layer = job.layer_cost
        if layer is None:
            layer = job.layer_cost = self.instance.cost_model.prefill_layer(job.items)
        return layer.scaled(count)

    def _launch_group(self) -> None:
        job = self.active_job
        if job is None or job.remaining_layers <= 0:
            return
        prefill_sms = self._prefill_partition()
        if prefill_sms != self.engine.prefill_sms:
            self.engine.set_partition(
                self.engine.decode_sms, prefill_all=prefill_sms == self.instance.device.total_sms
            )
            self._log_partition()
        count = self._group_size(job, prefill_sms)
        cost = self._layers_cost(job, count)
        completes = job.layers_done + count >= job.total_layers
        if completes:
            cost = cost + self.instance.cost_model.prefill_head(len(job.states))
        job.group_in_flight = count
        task = ExecTask(
            cost.flops,
            cost.bytes,
            fixed_time=cost.comm_time,
            tag="prefill-group",
            on_complete=lambda _t, j=job: self._on_group_done(j),
        )
        self.engine.launch_prefill_group(task, count, whole_phase_layers=job.total_layers)

    def _on_group_done(self, job: PrefillJob) -> None:
        job.layers_done += job.group_in_flight
        job.group_in_flight = 0
        if job.layers_done >= job.total_layers:
            self._complete_prefill(job)
            return
        if job.preempt_requested and self.preempted_job is None:
            job.preempt_requested = False
            self.preempted_job = job
            self.active_job = None
            self._pump_prefill()
            return
        self._launch_group()

    def _complete_prefill(self, job: PrefillJob) -> None:
        self.active_job = None
        for state in job.states:
            self.hand_off_prefill(self.instance, state, self.merge_ready)
        self._pump_prefill()
        self._maybe_start_decode()

    # ------------------------------------------------------------------ #
    # Preemption (§3.4.2)
    # ------------------------------------------------------------------ #

    def _maybe_preempt(self, newcomer: RequestState) -> None:
        job = self.active_job
        if job is None or job.is_preemptor or job.preempt_requested:
            return
        if self.preempted_job is not None or self._preemptor_state is not None:
            return
        if self.cfg.tenancy is not None:
            # QoS precedence: a lower-rank newcomer (e.g. batch) never
            # preempts a prefill carrying higher-rank work (e.g.
            # interactive) — its looser tier SLO is not worth the victim's
            # restart.  Equal ranks fall through to the slack arithmetic.
            newcomer_rank = self.qos_rank_for(newcomer.request)
            if any(self.qos_rank_for(s.request) > newcomer_rank for s in job.states):
                return
        prefill_sms = self._prefill_partition()
        new_items = [
            PrefillItem(
                new=max(1, newcomer.request.input_tokens - newcomer.request.history_tokens),
                reused=newcomer.request.history_tokens,
            )
        ]
        t_newcomer = self.estimator.solo_prefill(new_items, prefill_sms)
        t_active_total = self._solo_prefill(job, prefill_sms)
        t_active_remaining = t_active_total * job.remaining_layers / job.total_layers
        now = self.sim.now
        # Tier-aware deadlines: with tenancy enabled each request's TTFT
        # target comes from its tier SLO, so an interactive newcomer has
        # less slack (preempts sooner) and a batch newcomer more.
        newcomer_deadline = newcomer.request.arrival_time + self.ttft_target_for(
            newcomer.request
        )
        waits_too_long = now + t_active_remaining + t_newcomer > newcomer_deadline
        preemption_helps = now + t_newcomer <= newcomer_deadline
        if not (waits_too_long and preemption_helps):
            return
        victim_deadline = min(
            s.request.arrival_time + self.ttft_target_for(s.request)
            for s in job.states
        )
        finish_with_preemption = now + t_newcomer + t_active_remaining
        finish_without = now + t_active_remaining
        # Preemption must not *cause* the victim to miss its TTFT: it is
        # allowed either when the victim still meets its deadline, or when
        # the victim was going to miss it regardless.
        victim_still_ok = finish_with_preemption <= victim_deadline or finish_without > victim_deadline
        if not victim_still_ok:
            return
        job.preempt_requested = True
        self._preemptor_state = newcomer
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                f"sched/{self.name}",
                "preempt-request",
                CAT_SCHED,
                now,
                {
                    "preemptor": newcomer.request.request_id,
                    "victims": [s.request.request_id for s in job.states],
                },
            )

    # ------------------------------------------------------------------ #
    # Decode side
    # ------------------------------------------------------------------ #

    def _merge_blocked(self) -> bool:
        """Blocking-merge semantics when query sync is disabled (ablation).

        Without CUDA-event polling, the scheduler synchronises with the
        prefill stream before the decode iteration that will merge it: the
        decode green context idles until the in-flight last group finishes.
        """
        if self.query_sync:
            return False
        job = self.active_job
        return (
            job is not None
            and job.group_in_flight > 0
            and job.layers_done + job.group_in_flight >= job.total_layers
        )

    def _choose_decode_partition(self, batch_size: int, sum_context: float) -> int:
        job = self.active_job or self.preempted_job
        budget = self.cfg.slo.tbt * SLO_MARGIN - self.cfg.launch.decode_launch()
        return self.estimator.first_decode_fit(
            self.partition_options,
            budget,
            batch_size,
            sum_context,
            float(job.new_tokens) if job else 0.0,
            float(job.reused_tokens) if job else 0.0,
        )

    def _choose_spec_partition(self, cost: PhaseCost) -> int:
        """Best-fit decode partition for a speculative draft+verify step.

        The contention estimator's decode predictor models the plain
        memory-bound iteration, not verification, so the spec path sizes
        the partition directly from the step's cost.  One step emits
        ``E = expected_tokens_per_step`` tokens, so the per-step budget is
        the per-token TBT SLO scaled by ``E`` — verification is allowed to
        take longer than one decode iteration exactly in proportion to the
        tokens it yields, which is what frees SMs back to prefill.
        """
        scale = self.spec_decode.expected_tokens_per_step()
        budget = self.cfg.slo.tbt * scale * SLO_MARGIN - self.cfg.launch.decode_launch()
        device = self.instance.device
        for sm_count in self.partition_options:
            if phase_latency(cost, device, sm_count) <= budget:
                return sm_count
        return self.partition_options[-1]

    def _maybe_start_decode(self) -> None:
        if self._decode_inflight or self._merge_blocked():
            return
        if self.merge_ready:
            self.running.extend(self.merge_ready)
            self.merge_ready.clear()
        batch = [s for s in self.running if not s.finished][: self.cfg.max_decode_batch]
        if not batch:
            return
        if self._decode_fast_loop(
            self.instance, batch, lambda: self._on_decode_done(self.sim.now)
        ):
            # A stretch of decode-only iterations is pending; its
            # continuation completes them through _on_decode_done.
            self._decode_inflight = True
            self._inflight = (batch, math.nan, None, self.sim.now)
            return
        if self.spec_decode is None:
            lens = self.decode_context_lens(batch)
            sum_context = float(sum(lens))
            decode_sms = self._choose_decode_partition(len(batch), sum_context)
            cost = self.instance.cost_model.decode_iter(lens)
        else:
            sum_context = math.nan  # never observed (see _on_decode_done)
            cost = self.decode_step_cost(self.instance, batch)
            decode_sms = self._choose_spec_partition(cost)
        if decode_sms != self.engine.decode_sms:
            self.engine.set_partition(decode_sms)
            self._log_partition()
        task = ExecTask(
            cost.flops,
            cost.bytes,
            fixed_time=cost.comm_time,
            tag="decode-iter",
            on_complete=self._on_decode_done,
        )
        self._decode_inflight = True
        self._inflight = (batch, sum_context, self.active_job, self.sim.now)
        self.engine.launch_decode(task)

    # ------------------------------------------------------------------ #
    # Decode stretches (the fast loop's MuxWise hooks)
    # ------------------------------------------------------------------ #

    def _fastpath_prefill_admissible(self, batch_len: int) -> bool:
        # Any prefill work, running, preempted or queued, can co-run with
        # the next decode iteration and feeds the partition choice.
        return (
            self.active_job is not None
            or self.preempted_job is not None
            or self._preemptor_state is not None
            or bool(self.waiting)
        )

    def _decode_lane_busy(self, instance: Instance) -> bool:
        engine = self.engine
        return (
            super()._decode_lane_busy(instance)
            or not instance.host.idle
            or not engine.decode_stream.idle
            or not engine.prefill_stream.idle
        )

    def _decode_planner(
        self, instance: Instance, batch_size: int, total_ctx: int, limit: int
    ) -> Callable[[int, float, float | None], ChainPlan | None] | None:
        """Host launch, then a lone task on the decode partition.

        A stretch stops before an iteration whose partition differs from
        the current one.  With no co-runner the choice depends only on
        solo predictions, which grow with the context when the predictor
        is monotone: the partition chosen at the first and at the largest
        context the stretch can reach is chosen at every iteration in
        between, so the per-iteration choice is skipped.
        """
        counters = self.sim.counters
        choose = self._choose_decode_partition
        sm_count = self.engine.decode_sms
        if choose(batch_size, float(total_ctx)) != sm_count:
            counters.bail_partition += 1
            return None
        steady = self.estimator.predictor.decode_monotone and (
            choose(batch_size, float(total_ctx + (limit - 1) * batch_size)) == sm_count
        )
        device = instance.device
        cost_of = self._decode_only_cost
        plan_chain = fastpath.plan_chain
        launch = self.cfg.launch.decode_launch()
        first = total_ctx

        def plan(ctx: int, now: float, since: float | None) -> ChainPlan | None:
            if not steady and ctx != first and choose(batch_size, float(ctx)) != sm_count:
                counters.bail_partition += 1
                return None
            cost = cost_of(instance, batch_size, ctx)
            chain = plan_chain(
                device, cost.flops, cost.bytes, cost.comm_time, now,
                sm_count=sm_count, launch=launch, since=since,
            )
            if chain is None:
                counters.bail_plan += 1
            return chain

        return plan

    def _replay_launch(self, plans: list[ChainPlan]) -> None:
        # HostThread._pump and Stream._op_done, in iteration order.
        host = self.instance.host
        stream = self.engine.decode_stream
        launch = self.cfg.launch.decode_launch()
        for plan in plans:
            host._busy_seconds += launch
            stream._busy_seconds += plan.completion - plan.submit

    # ------------------------------------------------------------------ #
    # Co-run stretches: decode iterations beside prefill layer groups
    # ------------------------------------------------------------------ #

    def _corun_stretch(
        self, instance: Instance, batch: list[RequestState], resume: Callable[[], None]
    ) -> bool:
        """Plan the next decode iterations together with the in-flight
        prefill job's layer groups and cover them with one stretch.

        The dry run (:class:`repro.sim.fastpath.CoRunPlan`) takes over the
        prefill lane — a group in host launch, on the device or in its
        serialized tail, whose one live event becomes the plan's shadow —
        and makes the server's own decisions at every completion:
        ``observe_decode``, the decode partition and cost at each decode
        completion, ``_group_size`` and the layer costs at each group
        completion.  The stretch ends at the last decode completion before
        a partition change, before the job's last group completes, at the
        iteration a batch member finishes, at the KV page budget, and
        strictly before the horizon, ``until`` and the event cap.
        """
        sim = self.sim
        counters = sim.counters
        job = self.active_job
        engine = self.engine
        device = instance.device
        host = instance.host
        decode_stream = engine.decode_stream
        prefill_stream = engine.prefill_stream
        cache = instance.cache
        if job is None:
            # Prefill is queued, not running: the scalar step admits it.
            counters.bail_prefill += 1
            return False
        if (
            not self.layerwise
            or not self.query_sync
            or job.group_in_flight <= 0
            or job.preempt_requested
            or self.preempted_job is not None
            or self._preemptor_state is not None
            or self._storm_pending
            or cache.spill is not None
            or device._stalled
            or decode_stream._busy
            or decode_stream._queue
            or prefill_stream._queue
            or host._queue
            or len(device._active) > 1
        ):
            counters.corun_bail_state += 1
            return False
        # The prefill lane: a group in host launch, on the device, or in
        # its serialized tail; its one live event is the shadow.
        if host._busy:
            action = host._current[0]
            if (
                getattr(action, "func", None) != prefill_stream.submit
                or prefill_stream._busy
                or device._active
            ):
                counters.corun_bail_state += 1
                return False
            group = action.args[0]
            shadow = host._finish_event
            kind = K_HOST
        elif prefill_stream._busy and prefill_stream._on_done is not None:
            group = prefill_stream._task
            if device._active:
                if device._active[0] is not group:
                    counters.corun_bail_state += 1
                    return False
                shadow = device._update_event
                kind = K_UPDATE
            else:
                shadow = group.completion
                kind = K_COMPLETE
        else:
            counters.corun_bail_state += 1
            return False
        if shadow is None or shadow.cancelled or shadow.owner is None:
            counters.corun_bail_state += 1
            return False
        now = sim.now
        size = len(batch)
        ctx = 0
        for s in batch:
            ctx += s._input_tokens + s.generated
        sm = engine.decode_sms
        choose = self._choose_decode_partition
        if choose(size, float(ctx)) != sm:
            counters.corun_bail_partition += 1
            return False
        horizon = sim.horizon(sim.current_scope, exclude=shadow)
        min_delta = self._fastpath_min_delta
        if horizon <= now + min_delta:
            counters.bail_head += 1
            return False
        limit = min(s.request.output_tokens - s.generated for s in batch)
        limit = cache.extend_limit([s.lease for s in batch], limit)
        if limit <= 0:
            counters.corun_bail_pages += 1
            return False

        plan = CoRunPlan(device, host, now)
        decode_lane = Lane(decode_stream.sm_count, False, None, decode_stream._busy_seconds, None)
        prefill_lane = Lane(
            prefill_stream.sm_count,
            prefill_stream._busy,
            prefill_stream._current_op_start,
            prefill_stream._busy_seconds,
            None,
        )
        lanes = (decode_lane, prefill_lane)
        copy = fastpath.clone_task(group)
        prefill_label = prefill_launch_label(True)
        if kind == K_HOST:
            plan.host_busy = True
            plan.host_op = (prefill_lane, copy, prefill_label)
            plan.host_start = host._current[2]
            plan.host_entry = plan.adopt(shadow, K_HOST)
        else:
            prefill_lane.task = copy
            if kind == K_UPDATE:
                plan.active = [copy]
                plan.update = plan.adopt(shadow, K_UPDATE)
            else:
                plan.adopt(shadow, K_COMPLETE, copy)

        estimator = self.estimator
        # _choose_decode_partition with the active job, unrolled.
        fit = estimator.first_decode_fit
        options = self.partition_options
        tbt_budget = self.cfg.slo.tbt * SLO_MARGIN - self.cfg.launch.decode_launch()
        cost_model = instance.cost_model
        cost_of = self._decode_only_cost
        launch_model = self.cfg.launch
        launch = launch_model.decode_launch()
        total_sms = device.total_sms
        prefill_sms = engine.prefill_sms
        new_tokens = float(job.new_tokens)
        reused_tokens = float(job.reused_tokens)
        total_layers = job.total_layers
        running = [s for s in self.running if not s.finished]
        n_running = len(running)
        running_ctx = 0
        for s in running:
            running_ctx += s._input_tokens + s.generated
        until = sim._run_until
        event_budget = sim._run_cap - sim._fired_in_run

        def on_group_done(_t: float, j: PrefillJob = job) -> None:
            self._on_group_done(j)

        def start_decode(ctx: int) -> ExecTask:
            cost = cost_of(instance, size, ctx)
            task = ExecTask(cost.flops, cost.bytes, fixed_time=cost.comm_time, tag="decode-iter")
            iters.append((float(ctx), plan.now))
            plan.launch(launch, decode_lane, task, DECODE_LAUNCH_LABEL)
            return task

        iters: list[tuple[float, float]] = []
        times: list[float] = []
        layers_done = job.layers_done
        in_flight = job.group_in_flight
        current = copy
        final = None
        cut = True
        try:
            dtask = start_decode(ctx)
            while True:
                entry = plan.next_completion()
                if entry.arg is dtask:
                    end = entry.time
                    if not (end < horizon and end <= until and plan.fired + 1 <= event_budget):
                        counters.corun_bail_horizon += 1
                        break
                    plan.live.remove(entry)
                    plan.now = end
                    plan.fired += 1
                    times.append(end)
                    final = (
                        plan.snapshot((dtask, current), lanes),
                        layers_done, in_flight, current, len(times),
                    )
                    if len(times) == limit:
                        cut = False
                        break
                    plan.ops.append((end, V_FIRE, entry))
                    plan.release(decode_lane)
                    # _on_decode_done, then _maybe_start_decode.
                    sum_context, submitted = iters[-1]
                    if job.new_tokens > 0:
                        estimator.observe_decode(
                            size, sum_context, sm, end - submitted - launch,
                            new_tokens, reused_tokens,
                        )
                    ctx += size
                    running_ctx += size
                    if fit(options, tbt_budget, size, float(ctx), new_tokens, reused_tokens) != sm:
                        counters.corun_bail_partition += 1
                        break
                    if horizon <= end + min_delta:
                        counters.corun_bail_horizon += 1
                        break
                    dtask = start_decode(ctx)
                    continue
                # A layer group completes: _on_group_done, then _launch_group.
                if layers_done + in_flight >= total_layers:
                    counters.corun_bail_group += 1
                    break
                plan.take(entry)
                plan.release(prefill_lane)
                layers_done += in_flight
                in_flight = 0
                if total_sms - sm != prefill_sms:
                    counters.corun_bail_partition += 1
                    break
                # _group_size at the planned instant: no group in flight.
                count = self._layer_group(
                    job, total_layers - layers_done, n_running, running_ctx, prefill_sms
                )
                cost = self._layers_cost(job, count)
                if layers_done + count >= total_layers:
                    cost = cost + cost_model.prefill_head(len(job.states))
                in_flight = count
                current = ExecTask(
                    cost.flops,
                    cost.bytes,
                    fixed_time=cost.comm_time,
                    tag="prefill-group",
                    on_complete=on_group_done,
                )
                plan.launch(
                    launch_model.prefill_layers_launch(count), prefill_lane, current, prefill_label
                )
        except Bail:
            counters.corun_bail_plan += 1
        if final is None:
            return False
        snap, layers_done, in_flight, current, steps = final
        plan.restore(snap)
        # One launch per iteration: the last planned one is ``steps - 1``.
        del times[steps:]
        del iters[steps:]
        counters.chains_elided += steps
        counters.corun_stretches += 1
        if plan.shadow.shadow is not None and plan.shadow not in plan.live:
            # The plan fires or cancels the shadow inside the stretch.
            plan.shadow.shadow.callback = None
        footprint = Footprint(plan.ops, plan.live, plan.cancelled)
        state = (plan, lanes, group, copy, current, layers_done, in_flight, iters[-1], cut)
        sim.begin_stretch(
            times[-1],
            lambda: self._finish_corun(instance, batch, times, footprint, state),
            footprint,
        )
        return True

    def _finish_corun(
        self,
        instance: Instance,
        batch: list[RequestState],
        times: list[float],
        footprint: Footprint,
        state: tuple,
    ) -> None:
        """The co-run stretch's continuation: rebuild the replica as the
        scalar path holds it at the last planned decode completion, then
        run that completion's scalar tail."""
        plan, lanes, group, copy, current, layers_done, in_flight, last_iter, cut = state
        decode_lane, prefill_lane = lanes
        sim = self.sim
        now = sim.now
        sim.end_stretch()
        if cut:
            self._stretch_cut_at = now
        device = instance.device
        host = instance.host
        engine = self.engine
        decode_stream = engine.decode_stream
        prefill_stream = engine.prefill_stream
        shadow = plan.shadow
        # Events: the continuation stands for the last completion; the
        # shadow, when the plan fired or cancelled it by now, was popped
        # for real.
        charge = plan.fired - 1
        if shadow.shadow.callback is None and shadow.time <= now:
            charge -= 1
        sim._event_count += charge
        sim._fired_in_run += charge
        if sim._fired_in_run > sim._run_cap:
            raise SimulationError(
                f"the {sim._run_cap}-event cap fell inside the co-run stretch of "
                f"scope {sim.current_scope!r} ending at {now:.9f}: the scalar "
                "run stops earlier (rerun with REPRO_FASTPATH=0)"
            )

        def real(task: ExecTask) -> ExecTask:
            # The plan advanced a clone of the group in flight at its start.
            return group if task is copy else task

        if current is copy:
            for name in fastpath._TASK_STATE:
                setattr(group, name, getattr(copy, name))
        # Device.
        device._active = [real(task) for task in plan.active]
        device._last_advance = plan.last
        device._sm_occupancy = plan.occ
        device._bw_capacity_seconds = plan.bw_cap
        device._sm_seconds = plan.sm_sec
        device._bw_bytes_served = plan.served
        device._pair_factors = plan.pair
        # Host thread.
        host._busy = plan.host_busy
        host._busy_seconds = plan.host_seconds
        if plan.host_busy:
            _, task, label = plan.host_op
            host._current = (partial(prefill_stream.submit, real(task)), label, plan.host_start)
        else:
            host._current = None
            host._finish_event = None
        # Streams: the prefill group (bound to its stream once submitted),
        # and the decode stream, running the iteration that completes now.
        prefill_stream._busy = prefill_lane.busy
        prefill_stream._current_op_start = prefill_lane.op_start
        prefill_stream._busy_seconds = prefill_lane.seconds
        if prefill_lane.busy:
            task = real(prefill_lane.task)
            prefill_stream._task = task
            if task.on_complete != prefill_stream._op_done:
                task.trace_track = prefill_stream.trace_track
                prefill_stream._on_done = task.on_complete
                task.on_complete = prefill_stream._op_done
        else:
            prefill_stream._on_done = None
        decode_stream._busy = True
        decode_stream._current_op_start = decode_lane.op_start
        decode_stream._busy_seconds = decode_lane.seconds
        decode_stream._on_done = self._on_decode_done
        # The scalar heap's entries of the replica, in push order.
        if plan.update is None or plan.update is shadow:
            device._update_event = None if plan.update is None else shadow.shadow
        cancelled = plan.cancelled
        for entry in sorted(plan.live + cancelled, key=fastpath._entry_key):
            if entry is shadow:
                if entry in cancelled:
                    sim.settle_shadow(footprint, entry)
                continue
            if entry in cancelled:
                if not entry.dropped:
                    sim.adopt_entry(footprint, entry, None)
                continue
            if entry.kind == K_UPDATE:
                device._update_event = sim.adopt_entry(footprint, entry, device._on_update)
            elif entry.kind == K_HOST:
                host._finish_event = sim.adopt_entry(footprint, entry, host._finish)
            else:
                task = real(entry.arg)
                task.completion = sim.adopt_entry(
                    footprint, entry, partial(device._complete, task)
                )
        sim.close_footprint()
        job = self.active_job
        job.layers_done = layers_done
        job.group_in_flight = in_flight
        sum_context, submitted = last_iter
        self._stretch_times = times
        self._inflight = (batch, sum_context, job, submitted)
        self._decode_inflight = True
        # Device._complete -> Stream._op_done -> _on_decode_done.
        decode_stream._op_done(now)

    def _on_decode_done(self, _time: float) -> None:
        batch, sum_context, job, submit_time = self._inflight
        self._inflight = None
        self._decode_inflight = False
        observed = self.sim.now - submit_time - self.cfg.launch.decode_launch()
        # The estimator's decode predictor models the plain iteration;
        # draft+verify samples would poison its contention fit.
        if job is not None and job.new_tokens > 0 and self.spec_decode is None:
            self.estimator.observe_decode(
                len(batch),
                sum_context,
                self.engine.decode_sms,
                observed,
                float(job.new_tokens),
                float(job.reused_tokens),
            )
        finished, preempted = self.emit_decoded(self.instance, batch)
        self._retire_decoded(self.instance, finished, preempted)
        self._maybe_start_decode()
        self._pump_prefill()

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def _log_partition(self) -> None:
        self.partition_log.append(
            (self.sim.now, self.engine.decode_sms, self.engine.prefill_sms)
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(
                f"sched/{self.name}",
                "partition-sms",
                self.sim.now,
                {
                    "decode": float(self.engine.decode_sms),
                    "prefill": float(self.engine.prefill_sms),
                },
            )
