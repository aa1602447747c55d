"""Hybrid large-scale deployment (§5, "Large-scale deployment").

The paper notes MuxWise is complementary to disaggregated serving in large
clusters: "low-utilization decode instances could be replaced with MuxWise
instances to exploit idle resources via spatially multiplexing prefill."

:class:`HybridPDServer` implements that deployment: a static prefill
instance plus a **MuxWise decode instance**.  The decode instance serves
every decode batch under its SLO-guarded partition, and — instead of
idling its prefill partition — pulls prefill work from the shared queue
whenever the dedicated prefill instance is busy.  KV still migrates from
the prefill instance as in SGLang-PD; requests prefetched on the decode
instance need no migration at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from repro.core.server import MuxWiseServer
from repro.gpu.device import ExecTask
from repro.serving.base import RequestState, build_instance
from repro.serving.config import ServingConfig
from repro.sim import Simulator


class HybridPDServer(MuxWiseServer):
    """Disaggregated pair whose decode side is a MuxWise instance.

    Inherits the full MuxWise engine/estimator/dispatcher for the decode
    instance (which spans ``n_gpus - prefill_gpus`` GPUs) and adds a
    dedicated prefill instance that offloads long prefills, migrating KV
    over NVLink on completion.
    """

    name = "Hybrid-PD"

    def __init__(self, sim: Simulator, cfg: ServingConfig, prefill_gpus: int | None = None) -> None:
        if cfg.n_gpus < 2:
            raise ValueError("hybrid disaggregation needs at least 2 GPUs")
        n_prefill = prefill_gpus if prefill_gpus is not None else cfg.n_gpus // 2
        super().__init__(sim, replace(cfg, n_gpus=cfg.n_gpus - n_prefill))
        self.prefill_inst = build_instance(sim, cfg, n_prefill, name="hybrid-prefill")
        self._dedicated_queue: deque[RequestState] = deque()
        self._dedicated_busy = False

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def on_request_ready(self, state: RequestState) -> None:
        if self._dedicated_busy or self._prefers_decode_side(state):
            # The MuxWise instance multiplexes this prefill locally.
            super().on_request_ready(state)
        else:
            self._dedicated_queue.append(state)
            self._pump_dedicated()

    def _prefers_decode_side(self, state: RequestState) -> bool:
        """Short prefills (or strong local cache hits) skip the migration."""
        if state.request.input_tokens <= 1024:
            return True
        cached = self.instance.cache.match(state.request.context_path)
        return cached >= state.request.history_tokens and cached > 0

    # ------------------------------------------------------------------ #
    # Dedicated prefill instance
    # ------------------------------------------------------------------ #

    def _pump_dedicated(self) -> None:
        if self._dedicated_busy:
            return
        queue = self._dedicated_queue
        while queue:
            state = self.admit_next(self.prefill_inst, queue, fit=(self.instance,))
            if state is not None:
                self._run_dedicated(state)
                return
            if queue:
                # Back-pressure: hand the head to the MuxWise instance.
                super().on_request_ready(queue.popleft())

    def _run_dedicated(self, state: RequestState) -> None:
        self._dedicated_busy = True
        cost = self.prefill_inst.cost_model.prefill_full([state.prefill_item()])
        launch = self.cfg.launch.full_prefill_launch(self.cfg.model.num_layers)
        task = ExecTask(
            flops=cost.flops,
            bytes=cost.bytes,
            sm_count=self.prefill_inst.device.total_sms,
            fixed_time=cost.comm_time + launch,
            tag="hybrid-prefill",
            on_complete=lambda _t, s=state: self._on_dedicated_done(s),
        )
        self.prefill_inst.device.submit(task)

    def _on_dedicated_done(self, state: RequestState) -> None:
        self._dedicated_busy = False
        self.produce_prefill_token(state)
        self.release_request(self.prefill_inst, state, keep_cached=True)
        self._migrate(state)
        self._pump_dedicated()

    def _migrate(self, state: RequestState) -> None:
        path = state.cache_path()
        needed = sum(segment.tokens for segment in path)
        if not self.instance.cache.can_fit_path(path):
            # Decode pool full: retry after the next decode iteration frees
            # pages (rare at hybrid scale; modelled as a short backoff).
            self.sim.schedule(0.05, lambda s=state: self._migrate(s))
            return
        lease = self.instance.cache.acquire(path)
        self.instance.cache.insert(lease, path[lease.depth :])
        state.lease = lease
        transfer = self.prefill_inst.cost_model.kv_transfer_time(needed)
        self.sim.schedule(transfer, lambda s=state: self._join_decode(s))

    def _join_decode(self, state: RequestState) -> None:
        self.join_decode(self.instance, state, self.merge_ready)
        if not state.finished:
            self._maybe_start_decode()
