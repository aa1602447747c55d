"""Static disaggregated serving with prefix caching (SGLang-PD).

Two instances at a fixed 1:1 GPU ratio: a prefill instance and a decode
instance, each with its own model replica and KV pool (so the aggregate KV
pool is roughly halved — the Fig. 5 capacity cliff).  Prefilled KV migrates
to the decode instance over NVLink.  The prefill instance keeps a radix
cache of everything it prefilled, enabling cross-request prefix reuse on
the prefill side; decode-generated tokens exist only on the decode instance
and must be recomputed by later turns.

Behaviours reproduced from the paper:

* decode instances idle under bursty loads (static partitioning),
* prefill stalls when the decode pool runs out of slots (OpenThoughts),
* consistently good TBT, since the decode instance is never multiplexed.
"""

from __future__ import annotations

from collections import deque

from repro.gpu.device import ExecTask
from repro.kvcache.radix import Segment
from repro.kvcache.transfer import TransferEngine
from repro.serving.base import Instance, RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import Simulator


class SGLangPDServer(DecodeBatchMixin):
    """Static prefill/decode disaggregation with KV-cache sharing."""

    name = "SGLang-PD"

    def __init__(
        self,
        sim: Simulator,
        cfg: ServingConfig,
        prefill_gpus: int | None = None,
        transfer: TransferEngine | None = None,
    ) -> None:
        super().__init__(sim, cfg)
        if cfg.n_gpus < 2:
            raise ValueError("disaggregation needs at least 2 GPUs")
        n_prefill = prefill_gpus if prefill_gpus is not None else cfg.n_gpus // 2
        n_decode = cfg.n_gpus - n_prefill
        self.prefill_inst = build_instance(sim, cfg, n_prefill, name="pd-prefill")
        self.decode_inst = build_instance(
            sim, cfg, n_decode, name="pd-decode", cross_request_reuse=False
        )
        #: Optional explicit interconnect model for prefill→decode KV
        #: movement; ``None`` keeps the historical NVLink-derived cost.
        #: The kv_tiers bandwidth sweep uses this as its lever.
        self.transfer = transfer
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self._prefill_busy = False
        self._decode_inflight = False
        self._stalled_migrations: deque[RequestState] = deque()

    # ------------------------------------------------------------------ #
    # Admission / prefill instance
    # ------------------------------------------------------------------ #

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        self._pump_prefill()

    def _pump_prefill(self) -> None:
        if self._prefill_busy:
            return
        while self.waiting:
            state = self.waiting[0]
            if not self.can_ever_fit(self.decode_inst, state):
                self.waiting.popleft()
                self.drop_request(self.prefill_inst, state)
                continue
            self.plan_prefill(self.prefill_inst, state)
            if not self.allocate_context(self.prefill_inst, state):
                self.abandon_plan(self.prefill_inst, state)
                return
            self.waiting.popleft()
            self._run_prefill(state)
            return

    def _run_prefill(self, state: RequestState) -> None:
        self._prefill_busy = True
        cost = self.prefill_inst.cost_model.prefill_full([state.prefill_item()])
        launch = self.cfg.launch.full_prefill_launch(self.cfg.model.num_layers)
        task = ExecTask(
            flops=cost.flops,
            bytes=cost.bytes,
            sm_count=self.prefill_inst.device.total_sms,
            fixed_time=cost.comm_time + launch,
            tag="pd-prefill",
            on_complete=lambda _t, s=state: self._on_prefill_done(s),
        )
        self.prefill_inst.device.submit(task)

    def _on_prefill_done(self, state: RequestState) -> None:
        self._prefill_busy = False
        self.produce_prefill_token(state)
        # The prefill-side KV stays cached (unpinned) for future prefix hits.
        self.release_request(self.prefill_inst, state, keep_cached=True)
        self._try_migrate(state)
        self._pump_prefill()

    # ------------------------------------------------------------------ #
    # KV migration
    # ------------------------------------------------------------------ #

    def _decode_path(self, state: RequestState) -> list[Segment]:
        output = Segment(uid=state.request.output_segment.uid, tokens=state.generated)
        return [*state.request.context_path, output]

    def _try_migrate(self, state: RequestState) -> None:
        """Move the request's KV into the decode instance's pool."""
        path = self._decode_path(state)
        needed = sum(segment.tokens for segment in path)
        if not self.decode_inst.cache.can_fit_path(path):
            # Decode pool full: the request stalls, backing up prefill.
            self._stalled_migrations.append(state)
            return
        lease = self.decode_inst.cache.acquire(path)
        self.decode_inst.cache.insert(lease, path)
        state.lease = lease
        if self.transfer is not None:
            transfer = self.transfer.acquire(self.sim.now, needed)
        else:
            transfer = self.prefill_inst.cost_model.kv_transfer_time(needed)
        self.sim.schedule(transfer, lambda s=state: self._on_migrated(s))

    def _on_migrated(self, state: RequestState) -> None:
        if state.generated >= state.request.output_tokens:
            self.finish_request(self.decode_inst, state, keep_cached=False)
        else:
            self.running.append(state)
        self._maybe_decode()

    def _retry_migrations(self) -> None:
        retry = list(self._stalled_migrations)
        self._stalled_migrations.clear()
        for state in retry:
            self._try_migrate(state)

    # ------------------------------------------------------------------ #
    # Decode instance
    # ------------------------------------------------------------------ #

    def _maybe_decode(self) -> None:
        if self._decode_inflight:
            return
        batch = [s for s in self.running if not s.finished][: self.cfg.max_decode_batch]
        if not batch:
            return
        # The decode device is never multiplexed, so between queued events
        # (prefill completions, migrations, arrivals) its batch produces
        # pure solo chains — ideal fast-path territory.
        batch = self._decode_fast_loop(self.decode_inst, batch)
        if not batch:
            return
        self._decode_inflight = True
        cost = self.decode_step_cost(self.decode_inst, batch)
        task = ExecTask(
            flops=cost.flops,
            bytes=cost.bytes,
            sm_count=self.decode_inst.device.total_sms,
            fixed_time=cost.comm_time + self.cfg.launch.decode_launch(),
            tag="pd-decode",
            on_complete=lambda _t, b=batch: self._on_decode_done(b),
        )
        self.decode_inst.device.submit(task)

    def _on_decode_done(self, batch: list[RequestState]) -> None:
        self._decode_inflight = False
        finished, preempted = self.emit_decode_iteration(self.decode_inst, batch)
        self._retire_decoded(self.decode_inst, finished, preempted)
        self._maybe_decode()

    def _retire_decoded(
        self,
        instance: Instance,
        finished: list[RequestState],
        preempted: list[RequestState],
    ) -> None:
        for state in finished:
            self.running.remove(state)
            self.finish_request(instance, state, keep_cached=False)
        for state in preempted:
            self.running.remove(state)
            state.lease = None
            self.waiting.appendleft(state)
        if finished or preempted:
            self._retry_migrations()
            self._pump_prefill()
