"""Continuous-batching helpers shared by the serving systems.

Every system decodes with inflight batching: one token per running request
per iteration, merging newly prefilled requests between iterations.  This
module centralises token emission, the first-token hand-off after prefill,
retirement, and the recompute-preemption fallback used when the KV pool is
exhausted mid-decode (vLLM-style: the youngest request is evicted and
later re-prefills its context plus the tokens it already generated).

With speculative decoding enabled (``cfg.spec_decode``), a decode step
becomes draft + verify: the draft model proposes ``k`` tokens per
speculating request, the target model scores all ``k + 1`` candidate
positions in one micro-prefill-priced pass, and the step emits the
accepted prefix plus one bonus token.  :meth:`DecodeBatchMixin.decode_step_cost`
prices the step and :meth:`DecodeBatchMixin.emit_decode_iteration` samples
the accepted counts — both collapse to the historical single-token path
when speculation is off.

:meth:`DecodeBatchMixin._decode_fast_loop` is the one decode fast loop: it
covers steady decode-only iterations with one continuation event (see
:mod:`repro.sim.fastpath`) for every server that calls it.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable

from repro.kvcache.pool import PoolExhaustedError
from repro.models.costs import DECODE_LAYER_OVERHEAD, PhaseCost, phase_latency
from repro.serving.base import Instance, RequestState, ServingSystem
from repro.sim import SimulationError, fastpath
from repro.sim.fastpath import ChainPlan


class DecodeBatchMixin(ServingSystem):
    """Token accounting for decode batches, with pool-pressure handling."""

    #: Requests waiting for prefill (head first) and the decode batch;
    #: every server builds both in its constructor.
    waiting: deque[RequestState]
    running: list[RequestState]

    #: Token times of the stretch whose continuation is firing, for the
    #: server's completion handler (see :meth:`emit_decoded`).
    _stretch_times: list[float] | None = None
    #: End of the last stretch whose next iteration was planned and could
    #: not join it; that iteration runs on the scalar path.
    _stretch_cut_at = -1.0

    @cached_property
    def _fastpath_min_delta(self) -> float:
        """Lower bound on any decode chain's completion delta.

        completion = retire + comm_time + launch with retire > now and
        comm_time >= num_layers * DECODE_LAYER_OVERHEAD, so an event that
        can reach the server at or before ``now`` plus this bound defeats
        any plan.
        """
        cfg = self.cfg
        return cfg.model.num_layers * DECODE_LAYER_OVERHEAD + cfg.launch.decode_launch()

    def _fastpath_prefill_admissible(self, batch_len: int) -> bool:
        """Would the scalar step fuse prefill work with a batch this size?"""
        return False

    def _decode_lane_busy(self, instance: Instance) -> bool:
        """Is anything on the decode task's path still running?

        The scalar chain of a decode-only iteration is a lone task on an
        idle device; a server whose launch path has more parts (a host
        thread, streams) checks those too.
        """
        device = instance.device
        return bool(device._active) or device._stalled

    def _decode_only_cost(
        self, instance: Instance, batch_size: int, total_ctx: int
    ) -> PhaseCost:
        """Cost the scalar step submits for a decode-only batch, from totals.

        :meth:`_decode_fast_loop` prices elided iterations with it, so a
        server that transforms its decode cost overrides this too.
        """
        return instance.cost_model.decode_iter_totals(batch_size, total_ctx)

    def _decode_planner(
        self, instance: Instance, batch_size: int, total_ctx: int, limit: int
    ) -> Callable[[int, float, float | None], ChainPlan | None] | None:
        """The planner of one stretch's iterations, or None for no stretch.

        The stretch decodes ``batch_size`` requests holding ``total_ctx``
        context tokens for at most ``limit`` iterations.  The planner maps
        an iteration's ``(total_ctx, start, since)`` to its chain plan, or
        to None — having counted why — where the stretch stops.  The
        default plans a task on the whole device with the decode launch
        folded into its serialized tail.
        """
        device = instance.device
        cost_of = self._decode_only_cost
        plan_chain = fastpath.plan_chain
        launch = self.cfg.launch.decode_launch()
        counters = self.sim.counters

        def plan(ctx: int, now: float, since: float | None) -> ChainPlan | None:
            cost = cost_of(instance, batch_size, ctx)
            chain = plan_chain(
                device, cost.flops, cost.bytes, cost.comm_time + launch, now, since=since
            )
            if chain is None:
                counters.bail_plan += 1
            return chain

        return plan

    def _replay_launch(self, plans: list[ChainPlan]) -> None:
        """Replay the launch-path accounting of a stretch's iterations."""

    def _corun_stretch(
        self, instance: Instance, batch: list[RequestState], resume: Callable[[], None]
    ) -> bool:
        """Cover the next iterations, which co-run with prefill work, with
        one stretch (a server that multiplexes the two overrides this);
        returns whether the continuation is scheduled."""
        self.sim.counters.bail_prefill += 1
        return False

    def requeue(self, state: RequestState) -> None:
        """Send a request whose KV was released back to the queue head.

        It re-prefills its context plus any output it already generated.
        """
        state.lease = None
        state.chunk_tokens_done = 0
        self.waiting.appendleft(state)

    def hand_off_prefill(
        self, instance: Instance, state: RequestState, ready: list[RequestState]
    ) -> None:
        """Emit the token of a finished prefill and pass it on to decode.

        The first token needs one more KV slot; without one the request
        drops its KV and is requeued for recompute.
        """
        if not self.extend_output(instance, state, 1):
            self.release_request(instance, state, keep_cached=False)
            self.requeue(state)
            return
        self.produce_prefill_token(state)
        self.join_decode(instance, state, ready)

    def join_decode(
        self, instance: Instance, state: RequestState, ready: list[RequestState]
    ) -> None:
        """Finish a request whose output is complete; otherwise append it to ``ready``."""
        if state.generated >= state.request.output_tokens:
            self.finish_request(instance, state)
        else:
            ready.append(state)

    def _retire_decoded(
        self,
        instance: Instance,
        finished: list[RequestState],
        preempted: list[RequestState],
    ) -> None:
        """Retire one decode iteration's finished and preempted requests.

        Finished requests leave the running batch and finish; preempted
        ones leave it and are requeued for recompute.  Called by every
        server's scalar completion handler, which a stretch's continuation
        runs too.
        """
        for state in finished:
            self.running.remove(state)
            self.finish_request(instance, state)
        for state in preempted:
            self.running.remove(state)
            self.requeue(state)

    def _decode_fast_loop(
        self,
        instance: Instance,
        batch: list[RequestState],
        resume: Callable[[], None],
    ) -> bool:
        """Cover the next decode-only iterations of ``batch`` with one stretch.

        Plans as many iterations as can be proven equivalent to the scalar
        path (plain decode, no prefill admissible, decode path idle, each
        completion strictly before the scope's :meth:`Simulator.horizon`)
        and schedules one continuation at the last completion.  A stretch
        ends at the iteration in which a batch member finishes, before KV
        growth would exceed the free plus evictable pages, where the
        server's plan stops (a MuxWise partition change), and where the
        horizon, ``until`` or the event cap stops elision.  An armed
        preemption storm, a cache ``spill`` hook or an iteration the page
        budget cannot cover makes it a one-iteration stretch emitted
        through :meth:`emit_decode_iteration`.

        Returns True when the continuation is scheduled: when it fires it
        commits the chains, then calls ``resume`` — the server's scalar
        completion handler for ``batch``, whose :meth:`emit_decoded` call
        applies the stretch's tokens.  False: the caller runs the
        iteration on the scalar path.
        """
        sim = self.sim
        now = sim.now
        if (
            self.spec_decode is not None
            or not fastpath.decode_fastpath_active(sim)
            # Same state, same plan: it would be rejected again.
            or now == self._stretch_cut_at
        ):
            return False
        counters = sim.counters
        if self._fastpath_prefill_admissible(len(batch)):
            return self._corun_stretch(instance, batch, resume)
        if self._decode_lane_busy(instance):
            counters.bail_busy += 1
            return False
        horizon = sim.horizon(sim.current_scope)
        # Bail before touching the cost model when an event is near: this
        # keeps the fast path near-free where elision rarely engages.
        min_delta = self._fastpath_min_delta
        if horizon <= now + min_delta:
            counters.bail_head += 1
            return False
        # Nothing below changes the batch, the queue or the device until
        # the continuation fires, so the checks above hold for every
        # iteration of the stretch.
        cache = instance.cache
        if self._storm_pending or cache.spill is not None:
            stretch, limit = False, 1
        else:
            limit = min(s.request.output_tokens - s.generated for s in batch)
            limit = cache.extend_limit([s.lease for s in batch], limit)
            stretch = limit > 0
            if not stretch:
                counters.bail_pages += 1
                limit = 1
        size = len(batch)
        total_ctx = 0
        for s in batch:
            total_ctx += s._input_tokens + s.generated
        planner = self._decode_planner(instance, size, total_ctx, limit)
        if planner is None:
            return False
        until = sim._run_until
        budget = sim._run_cap - sim._fired_in_run
        plans: list[ChainPlan] = []
        times: list[float] = []
        since: float | None = None
        events = 0
        cut = False
        while True:
            plan = planner(total_ctx, now, since)
            if plan is None:
                cut = True
                break
            events += plan.events
            end = plan.completion
            if not (end < horizon and end <= until and events <= budget):
                counters.bail_plan += 1
                cut = True
                break
            plans.append(plan)
            times.append(end)
            # Every batch member grows by exactly one token.
            total_ctx += size
            if len(times) == limit:
                break
            now = end
            since = plan.retire_time
            if horizon <= now + min_delta:
                counters.bail_head += 1
                break
        if not plans:
            return False
        counters.chains_elided += len(plans)
        sim.begin_stretch(
            times[-1],
            lambda: self._finish_stretch(
                instance, plans, times if stretch else None, resume, cut
            ),
        )
        return True

    def _finish_stretch(
        self,
        instance: Instance,
        plans: list[ChainPlan],
        times: list[float] | None,
        resume: Callable[[], None],
        cut: bool,
    ) -> None:
        """The stretch's continuation: commit its chains, then resume.

        ``cut``: the stretch stopped at an iteration it planned and could
        not take, so nothing can change that plan before ``resume`` starts
        that iteration, which then skips the loop.
        """
        sim = self.sim
        sim.end_stretch()
        if cut:
            self._stretch_cut_at = sim.now
        # This event is one of the stretch's elided events.
        sim._event_count -= 1
        sim._fired_in_run -= 1
        device = instance.device
        commit_chain = fastpath.commit_chain
        for plan in plans:
            commit_chain(sim, device, plan)
        self._replay_launch(plans)
        if sim._fired_in_run > sim._run_cap:
            # Other scopes' events used the budget up before ``t_K``.
            raise SimulationError(
                f"the {sim._run_cap}-event cap fell inside the decode stretch of "
                f"scope {sim.current_scope!r} ending at {sim.now:.9f}: the scalar "
                "run stops earlier (rerun with REPRO_FASTPATH=0)"
            )
        self._stretch_times = times
        resume()

    def emit_decoded(
        self, instance: Instance, batch: list[RequestState]
    ) -> tuple[list[RequestState], list[RequestState]]:
        """Account the tokens of the decode work that just completed.

        That is one iteration (:meth:`emit_decode_iteration`), or, when a
        stretch's continuation called the completion handler, the whole
        stretch (:meth:`_apply_stretch`).  Returns ``(finished,
        preempted)``.
        """
        times = self._stretch_times
        if times is None:
            return self.emit_decode_iteration(instance, batch)
        self._stretch_times = None
        return self._apply_stretch(instance, batch, times), []

    def _apply_stretch(
        self, instance: Instance, batch: list[RequestState], times: list[float]
    ) -> list[RequestState]:
        """Apply the token effects of ``len(times)`` decode iterations.

        Each request grows its KV and emits one token per iteration, in
        one :meth:`RadixCache.extend_many` and one
        :meth:`MetricsCollector.on_batch_tokens` call; the stretch's limits
        guarantee the growth fits and that requests finish only in its
        last iteration.  Returns the requests that finished.
        """
        steps = len(times)
        cache = instance.cache
        cache.touch(times[-1])
        cache.extend_many([s.lease for s in batch], steps)
        finished: list[RequestState] = []
        for state in batch:
            state.generated += steps
            if state.generated >= state.request.output_tokens:
                finished.append(state)
        self.metrics.on_batch_tokens([s.record for s in batch], times)
        counters = self.sim.counters
        counters.stretches += 1
        counters.ledger_writes += len(batch)
        return finished

    def decode_context_lens(self, batch: list[RequestState]) -> list[int]:
        """Current context length of each running request."""
        # context_len() unrolled: this runs for every running request on
        # every decode iteration.
        return [state._input_tokens + state.generated for state in batch]

    def decode_step_cost(self, instance: Instance, batch: list[RequestState]) -> PhaseCost:
        """Cost of one decode step of ``batch`` on ``instance``.

        With speculation off this is exactly
        ``instance.cost_model.decode_iter(...)`` — the historical cost.
        With it on, speculating requests pay draft + verification instead
        of one memory-bound decode token, and tier-gated (non-speculating)
        requests ride along as a plain decode sub-batch.
        """
        runtime = self.spec_decode
        if runtime is None:
            return instance.cost_model.decode_iter(self.decode_context_lens(batch))
        spec_lens = []
        plain_lens = []
        for state in batch:
            ctx = state._input_tokens + state.generated
            if state.spec_session is not None:
                spec_lens.append(ctx)
            else:
                plain_lens.append(ctx)
        if not spec_lens:
            return instance.cost_model.decode_iter(plain_lens)
        return self._spec_step_cost(instance, runtime, plain_lens, spec_lens)

    def _spec_step_cost(
        self,
        instance: Instance,
        runtime,
        plain_lens: list[int],
        spec_lens: list[int],
    ) -> PhaseCost:
        """Draft + verify cost of one speculative step.

        Verification scores ``k + 1`` candidate tokens per request in one
        batched target-model pass priced as a micro-prefill; any plain
        (tier-gated) requests decode alongside it.  The draft chain runs
        on the draft model: serialized before the verify pass by default,
        or on a dedicated ``draft_sms`` partition where drafting for the
        *next* step pipelines under the current verify pass and only its
        overflow lands on the critical path as serialized time.
        """
        spec = runtime.spec
        cost = instance.cost_model.verify_iter(spec_lens, spec.draft_len + 1)
        if plain_lens:
            cost = cost + instance.cost_model.decode_iter(plain_lens)
        draft = runtime.draft_cost_model(instance).draft_chain(spec_lens, spec.draft_len)
        if spec.draft_sms is None:
            return cost + draft
        device = instance.device
        draft_sms = min(spec.draft_sms, device.total_sms - 1)
        draft_time = phase_latency(draft, device, draft_sms)
        verify_time = phase_latency(cost, device, device.total_sms - draft_sms)
        overflow = max(0.0, draft_time - verify_time)
        return PhaseCost(
            flops=cost.flops,
            raw_flops=cost.raw_flops,
            bytes=cost.bytes,
            comm_time=cost.comm_time + overflow,
        )

    def emit_decode_iteration(
        self, instance: Instance, batch: list[RequestState]
    ) -> tuple[list[RequestState], list[RequestState]]:
        """Account one decode iteration's tokens.

        Returns ``(finished, preempted)``: requests that completed their
        output, and requests evicted because the KV pool could not grow —
        or, under an armed preemption storm (:meth:`force_preempt`), the
        whole batch.  A storm reuses the recompute-preemption path: evicted
        requests keep their emitted tokens and TTFT and later re-prefill
        their context plus partial output, so the fault costs time, never
        correctness.

        A speculating request emits its sampled accepted-prefix length plus
        the bonus token (clamped to its remaining output): KV grows by the
        emitted count and the whole step gap lands on the first token.
        """
        storm = self._storm_pending
        self._storm_pending = False
        finished: list[RequestState] = []
        preempted: list[RequestState] = []
        # Inner decode loop: extend_output unrolled (one KV extension per
        # running request).  The cache clock is touched once up front —
        # touch is idempotent for a fixed ``now``, so per-request touches
        # are redundant.
        now = self.sim.now
        cache = instance.cache
        cache.touch(now)
        extend = cache.extend
        runtime = self.spec_decode
        if storm:
            preempted = [state for state in batch if not state.finished]
            self.storm_preemptions += len(preempted)
        elif runtime is None:
            # One token each: the ledger writes go out in one batched call
            # after the loop, in batch order, exactly as per-token calls.
            records = []
            for state in batch:
                if state.finished:
                    continue
                try:
                    extend(state.lease, 1)
                except PoolExhaustedError:
                    preempted.append(state)
                    continue
                state.generated += 1
                records.append(state.record)
                if state.generated >= state.request.output_tokens:
                    finished.append(state)
            if records:
                self.metrics.on_batch_tokens(records, [now])
                self.sim.counters.ledger_writes += len(records)
        else:
            on_tokens = self.metrics.on_tokens_record
            counters = self.sim.counters
            for state in batch:
                if state.finished:
                    continue
                tokens = 1
                if state.spec_session is not None:
                    remaining = state.request.output_tokens - state.generated
                    tokens = state.spec_session.sample_step(runtime.spec, remaining)
                try:
                    extend(state.lease, tokens)
                except PoolExhaustedError:
                    preempted.append(state)
                    continue
                if state.spec_session is not None:
                    runtime.note_step(tokens)
                state.generated += tokens
                on_tokens(state.record, now, tokens)
                counters.ledger_writes += 1
                if state.generated >= state.request.output_tokens:
                    finished.append(state)
        for state in preempted:
            self.release_request(instance, state, keep_cached=False)
            state.first_token_emitted = True  # keep its TTFT; it resumes
            self.trace_lifecycle(
                state,
                "queued",
                instant="preempted",
                args={"kind": "storm" if storm else "recompute"},
            )
        return finished, preempted
