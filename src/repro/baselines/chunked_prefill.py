"""Chunked-prefill serving (SARATHI-Serve policy as shipped in SGLang).

The prefill phase is split into chunks and each chunk is fused with the
ongoing decode iteration.  A *token budget* caps the sum of new prefill
tokens and the decode batch size per iteration; the budget is tuned offline
so the fused step meets the TBT SLO (§2.3.2).  Prefill attention of a chunk
re-reads the KV of all earlier chunks, which is what inflates TBT under
long reused contexts (Fig. 6b).
"""

from __future__ import annotations

from repro.gpu.device import ExecTask
from repro.models.costs import PhaseCost, PrefillItem
from repro.serving.base import RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import Simulator


class ChunkedPrefillServer(DecodeBatchMixin):
    """Aggregated serving with SARATHI-style chunked prefill."""

    name = "Chunked"

    def __init__(self, sim: Simulator, cfg: ServingConfig, token_budget: int = 256) -> None:
        super().__init__(sim, cfg)
        if token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        self.token_budget = token_budget
        self.instance = build_instance(sim, cfg, cfg.n_gpus, name=f"{self.name}-inst")
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self._current_prefill: RequestState | None = None
        self._step_in_flight = False

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        self._maybe_step()

    # ------------------------------------------------------------------ #
    # Iteration loop
    # ------------------------------------------------------------------ #

    def _maybe_step(self) -> None:
        if self._step_in_flight:
            return
        if not self.running and self._current_prefill is None and not self.waiting:
            return
        self._step()

    def _next_prefill_state(self) -> RequestState | None:
        """The request being chunked, admitting the queue head if none is."""
        if self._current_prefill is None:
            # None under pool pressure: keep decoding, retry after
            # requests retire.
            self._current_prefill = self.admit_next(self.instance, self.waiting)
        return self._current_prefill

    def _step(self) -> None:
        self._step_in_flight = True
        decode_batch = [s for s in self.running if not s.finished]
        decode_batch = decode_batch[: self.cfg.max_decode_batch]
        if decode_batch and self._decode_fast_loop(
            self.instance,
            decode_batch,
            lambda: self._on_step_done(decode_batch, None, 0, False),
        ):
            # A stretch of decode-only iterations is pending; its
            # continuation completes them (see _decode_fast_loop).
            return

        chunk_tokens = 0
        prefill_state = None
        budget_left = self.token_budget - len(decode_batch)
        if budget_left > 0:
            prefill_state = self._next_prefill_state()
            if prefill_state is not None:
                remaining = prefill_state.prefill_tokens - prefill_state.chunk_tokens_done
                chunk_tokens = min(budget_left, remaining)

        if not decode_batch and prefill_state is None:
            self._step_in_flight = False
            return

        cost, completes_prefill = self._iteration_cost(decode_batch, prefill_state, chunk_tokens)

        def on_done(_time: float) -> None:
            self._on_step_done(decode_batch, prefill_state, chunk_tokens, completes_prefill)

        task = ExecTask(
            flops=cost.flops,
            bytes=cost.bytes,
            sm_count=self.instance.device.total_sms,
            fixed_time=cost.comm_time + self._launch_overhead(chunk_tokens),
            tag="chunked-step",
            on_complete=on_done,
        )
        self.instance.device.submit(task)

    def _fastpath_prefill_admissible(self, batch_len: int) -> bool:
        # The scalar step would try to fuse a prefill chunk.
        return self.token_budget - batch_len > 0 and (
            self._current_prefill is not None or bool(self.waiting)
        )

    def _launch_overhead(self, chunk_tokens: int) -> float:
        launch = self.cfg.launch
        if chunk_tokens > 0:
            return launch.full_prefill_launch(self.cfg.model.num_layers)
        return launch.decode_launch()

    def _iteration_cost(
        self,
        decode_batch: list[RequestState],
        prefill_state: RequestState | None,
        chunk_tokens: int,
    ) -> tuple[PhaseCost, bool]:
        """Fused cost of one iteration; also whether the chunk finishes."""
        model = self.instance.cost_model
        cost = PhaseCost(0.0, 0.0, 0.0, 0.0)
        completes_prefill = False
        if decode_batch:
            cost = cost + self.decode_step_cost(self.instance, decode_batch)
        if prefill_state is not None and chunk_tokens > 0:
            # The chunk attends to the reused prefix plus all earlier chunks.
            reused = prefill_state.reused_tokens + prefill_state.chunk_tokens_done
            cost = cost + self._chunk_cost(chunk_tokens, reused)
            remaining = prefill_state.prefill_tokens - prefill_state.chunk_tokens_done
            completes_prefill = chunk_tokens >= remaining
            if completes_prefill:
                cost = cost + model.prefill_head(1)
        return cost, completes_prefill

    def _chunk_cost(self, tokens: int, reused: int) -> PhaseCost:
        """All-layer cost of a ``tokens``-token chunk after ``reused`` cached ones."""
        item = PrefillItem(new=tokens, reused=reused)
        return self.instance.cost_model.prefill_layers([item], self.cfg.model.num_layers)

    def _on_step_done(
        self,
        decode_batch: list[RequestState],
        prefill_state: RequestState | None,
        chunk_tokens: int,
        completes_prefill: bool,
    ) -> None:
        finished, preempted = self.emit_decoded(self.instance, decode_batch)
        self._retire_decoded(self.instance, finished, preempted)

        if prefill_state is not None and chunk_tokens > 0:
            prefill_state.chunk_tokens_done += chunk_tokens
            if completes_prefill:
                self._current_prefill = None
                self.hand_off_prefill(self.instance, prefill_state, self.running)

        self._step_in_flight = False
        self._maybe_step()
