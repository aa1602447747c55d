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
elides the device event chains of steady decode-only iterations (see
:mod:`repro.sim.fastpath`) for every server that calls it.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from repro.kvcache.pool import PoolExhaustedError
from repro.models.costs import DECODE_LAYER_OVERHEAD, PhaseCost, phase_latency
from repro.serving.base import Instance, RequestState, ServingSystem
from repro.sim import fastpath


class DecodeBatchMixin(ServingSystem):
    """Token accounting for decode batches, with pool-pressure handling."""

    #: Requests waiting for prefill (head first) and the decode batch;
    #: every server builds both in its constructor.
    waiting: deque[RequestState]
    running: list[RequestState]

    @cached_property
    def _fastpath_min_delta(self) -> float:
        """Lower bound on any decode chain's completion delta.

        completion = retire + comm_time + launch with retire > now and
        comm_time >= num_layers * DECODE_LAYER_OVERHEAD, so a queued event
        at or before ``now`` plus this bound defeats any plan.
        """
        cfg = self.cfg
        return cfg.model.num_layers * DECODE_LAYER_OVERHEAD + cfg.launch.decode_launch()

    def _fastpath_prefill_admissible(self, batch_len: int) -> bool:
        """Would the scalar step fuse prefill work with a batch this size?"""
        return False

    def _decode_only_cost(
        self, instance: Instance, batch_size: int, total_ctx: int
    ) -> PhaseCost:
        """Cost the scalar step submits for a decode-only batch, from totals.

        :meth:`_decode_fast_loop` prices elided iterations with it, so a
        server that transforms its decode cost overrides this too.
        """
        return instance.cost_model.decode_iter_totals(batch_size, total_ctx)

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
        ones leave it and are requeued for recompute.  Called by
        :meth:`_decode_fast_loop` and by every server's scalar completion
        handler.
        """
        for state in finished:
            self.running.remove(state)
            self.finish_request(instance, state)
        for state in preempted:
            self.running.remove(state)
            self.requeue(state)

    def _decode_fast_loop(
        self, instance: Instance, batch: list[RequestState]
    ) -> list[RequestState]:
        """Vectorized decode: elide device event chains for steady batches.

        Runs as many decode-only iterations as can be proven equivalent to
        the scalar path (plain decode, no prefill admissible, device idle,
        the chain's completion strictly before the next queued event),
        calling the *real* emission and :meth:`_retire_decoded` code
        between elided chains.  Returns the current batch (possibly empty)
        for the scalar path to continue with — byte-identical state to the
        scalar path having just reached this simulation time.
        """
        sim = self.sim
        # Bail before touching the cost model when a queued event is near:
        # this keeps the fast path near-free on busy multi-replica runs
        # where elision rarely engages.
        min_delta = self._fastpath_min_delta
        if (
            self.spec_decode is not None
            or not fastpath.decode_fastpath_active(sim)
            or sim._fastpath_head_time() <= sim.now + min_delta
        ):
            return batch
        device = instance.device
        launch_time = self.cfg.launch.decode_launch()
        max_batch = self.cfg.max_decode_batch
        total_ctx = 0
        for s in batch:
            total_ctx += s._input_tokens + s.generated
        while True:
            if self._fastpath_prefill_admissible(len(batch)):
                return batch
            if device._active or device._stalled:
                return batch
            if sim._fastpath_head_time() <= sim.now + min_delta:
                return batch
            cost = self._decode_only_cost(instance, len(batch), total_ctx)
            plan = fastpath.plan_chain(
                device, cost.flops, cost.bytes, cost.comm_time + launch_time, sim.now
            )
            if plan is None or not fastpath.chain_allowed(sim, plan):
                return batch
            fastpath.commit_chain(sim, device, plan)
            finished, preempted = self.emit_decode_iteration(instance, batch)
            if finished or preempted:
                self._retire_decoded(instance, finished, preempted)
                batch = [s for s in self.running if not s.finished][:max_batch]
                if not batch:
                    return batch
                total_ctx = 0
                for s in batch:
                    total_ctx += s._input_tokens + s.generated
            else:
                # Every batch member grew by exactly one token.
                total_ctx += len(batch)

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
        # Inner decode loop: extend_output + emit_tokens unrolled (one KV
        # extension and one metrics sample per running request per
        # iteration).  The cache clock is touched once up front — touch is
        # idempotent for a fixed ``now``, so per-request touches are
        # redundant.
        now = self.sim.now
        cache = instance.cache
        cache.touch(now)
        extend = cache.extend
        on_tokens = self.metrics.on_tokens_record
        runtime = self.spec_decode
        for state in batch:
            if state.finished:
                continue
            if storm:
                preempted.append(state)
                continue
            tokens = 1
            if runtime is not None and state.spec_session is not None:
                remaining = state.request.output_tokens - state.generated
                tokens = state.spec_session.sample_step(runtime.spec, remaining)
            try:
                extend(state.lease, tokens)
            except PoolExhaustedError:
                preempted.append(state)
                continue
            if runtime is not None and state.spec_session is not None:
                runtime.note_step(tokens)
            state.generated += tokens
            on_tokens(state.record, now, tokens)
            if state.generated >= state.request.output_tokens:
                finished.append(state)
        if storm:
            self.storm_preemptions += len(preempted)
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
