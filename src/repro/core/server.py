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
from typing import Callable

from repro.core.engine import MultiplexEngine
from repro.core.estimator import ContentionTolerantEstimator
from repro.gpu.device import ExecTask
from repro.gpu.specs import decode_partition_options
from repro.models.costs import PhaseCost, PrefillItem, phase_latency
from repro.serving.base import Instance, RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import Simulator, fastpath
from repro.sim.fastpath import ChainPlan
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
        if decode_lens:
            t_decode = self.estimator.solo_decode(
                len(decode_lens), float(sum(decode_lens)), self.engine.decode_sms
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
        cost = self.instance.cost_model.prefill_layers(job.items, count)
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
