"""LoongServe-style dynamic disaggregation (elastic sequence parallelism).

GPUs are allocated to phases at whole-GPU granularity and re-partitioned at
runtime: a prefill grabs as many free GPUs as its sequence length warrants,
then scales down to a smaller decode group, migrating KV off the released
GPUs.  The adaptiveness costs the property the paper highlights (§2.3.1):
to avoid duplication, KV cache is released as instances scale, so **there is
no cross-request KV reuse** — every turn of a multi-turn session recomputes
its entire history.

On the simulator, a job placed on k of the server's g GPUs runs with
``sm_count = sms * k / g`` and a bandwidth cap of ``k/g`` of the aggregate
(it cannot read HBM it does not occupy).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import ExecTask
from repro.serving.base import RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import Simulator

#: New tokens one GPU's compute is sized for when choosing the prefill
#: parallelism degree (longer sequences grab more GPUs).
TOKENS_PER_GPU = 4096
#: Fraction of a request's KV migrated when its group scales down to the
#: decode allocation.
SCALE_DOWN_MIGRATION_FRACTION = 0.5


@dataclass
class _PrefillJob:
    state: RequestState
    gpus: int


class LoongServeServer(DecodeBatchMixin):
    """Elastic sequence-parallel serving without cross-request reuse."""

    name = "LoongServe"

    def __init__(self, sim: Simulator, cfg: ServingConfig) -> None:
        super().__init__(sim, cfg)
        self.instance = build_instance(
            sim, cfg, cfg.n_gpus, name="loong-inst", cross_request_reuse=False
        )
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self._prefill_jobs: list[_PrefillJob] = []
        self._decode_inflight = False

    # ------------------------------------------------------------------ #
    # GPU accounting
    # ------------------------------------------------------------------ #

    @property
    def _prefill_gpus_in_use(self) -> int:
        return sum(job.gpus for job in self._prefill_jobs)

    def _decode_reserve(self) -> int:
        """GPUs kept for the decode group while decoding is active."""
        if not (self.running or self._decode_inflight):
            return 0
        return max(1, self.cfg.n_gpus // 4)

    def _free_gpus_for_prefill(self) -> int:
        return self.cfg.n_gpus - self._prefill_gpus_in_use - self._decode_reserve()

    def _decode_gpus(self) -> int:
        return max(1, self.cfg.n_gpus - self._prefill_gpus_in_use)

    def _subset_task(self, cost, gpus: int, tag: str, on_complete) -> ExecTask:
        device = self.instance.device
        fraction = gpus / self.cfg.n_gpus
        return ExecTask(
            flops=cost.flops,
            bytes=cost.bytes,
            sm_count=device.total_sms * fraction,
            fixed_time=cost.comm_time,
            max_bandwidth=device.effective_bandwidth * fraction,
            tag=tag,
            on_complete=on_complete,
        )

    # ------------------------------------------------------------------ #
    # Prefill (scale-up)
    # ------------------------------------------------------------------ #

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        self._pump_prefill()

    def _pump_prefill(self) -> None:
        while self.waiting:
            available = self._free_gpus_for_prefill()
            if available < 1:
                return
            # No cross-request reuse: the whole history is recomputed.
            state = self.admit_next(self.instance, self.waiting)
            if state is None:
                return
            wanted = max(1, -(-state.prefill_tokens // TOKENS_PER_GPU))
            job = _PrefillJob(state=state, gpus=min(wanted, available))
            self._prefill_jobs.append(job)
            self._run_prefill(job)

    def _run_prefill(self, job: _PrefillJob) -> None:
        cost = self.instance.cost_model.prefill_full([job.state.prefill_item()])
        launch = self.cfg.launch.full_prefill_launch(self.cfg.model.num_layers)
        cost_with_launch = cost
        task = self._subset_task(
            cost_with_launch,
            job.gpus,
            tag="loong-prefill",
            on_complete=lambda _t, j=job: self._on_prefill_done(j),
        )
        task.fixed_time += launch
        self.instance.device.submit(task)

    def _on_prefill_done(self, job: _PrefillJob) -> None:
        self._prefill_jobs.remove(job)
        state = job.state
        self.produce_prefill_token(state)
        # Scale-down: migrate KV off the GPUs being released.
        migrated = int(state.context_len() * SCALE_DOWN_MIGRATION_FRACTION)
        delay = self.instance.cost_model.kv_transfer_time(migrated) if job.gpus > 1 else 0.0
        self.sim.schedule(delay, lambda s=state: self._join_decode(s))
        self._pump_prefill()

    def _join_decode(self, state: RequestState) -> None:
        self.join_decode(self.instance, state, self.running)
        self._maybe_decode()

    # ------------------------------------------------------------------ #
    # Decode (scale-down group)
    # ------------------------------------------------------------------ #

    def _maybe_decode(self) -> None:
        if self._decode_inflight:
            return
        batch = [s for s in self.running if not s.finished][: self.cfg.max_decode_batch]
        if not batch:
            return
        self._decode_inflight = True
        cost = self.decode_step_cost(self.instance, batch)
        task = self._subset_task(
            cost,
            self._decode_gpus(),
            tag="loong-decode",
            on_complete=lambda _t, b=batch: self._on_decode_done(b),
        )
        task.fixed_time += self.cfg.launch.decode_launch()
        self.instance.device.submit(task)

    def _on_decode_done(self, batch: list[RequestState]) -> None:
        self._decode_inflight = False
        finished, preempted = self.emit_decode_iteration(self.instance, batch)
        self._retire_decoded(self.instance, finished, preempted)
        self._maybe_decode()
        self._pump_prefill()
