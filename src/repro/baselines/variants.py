"""Multiplexing variants discussed in the paper's related work (§6).

* :class:`WindServeServer` — multiplexes prefill and decode on plain CUDA
  streams with no SM partitioning: the two phases oversubscribe the whole
  GPU, so compute contention is uncontrolled, and nothing mitigates launch
  or termination bubbles.  The paper measures MuxWise at 1.61x goodput over
  its WindServe prototype on ShareGPT/Llama-8B/A100.

* :class:`TemporalMuxServer` — an enhanced Tropical-style *temporal-only*
  multiplexer: prefill is split into layers (to fit small slacks) but runs
  on the same stream as decode, only inside the slack the TBT SLO leaves
  after each decode iteration.  The paper found this at least 20 % worse
  than MuxWise because idle spatial resources go unused.
"""

from __future__ import annotations

import math
from functools import partial

from repro.gpu.device import ExecTask
from repro.gpu.stream import Stream
from repro.models.costs import phase_latency
from repro.serving.base import RequestState, build_instance
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import Simulator

#: Share of the TBT SLO a temporal cycle may fill with decode plus prefill
#: layers.
SLACK_MARGIN = 0.9


class WindServeServer(DecodeBatchMixin):
    """Stream-based PD multiplexing without compute partitioning."""

    name = "WindServe"

    def __init__(self, sim: Simulator, cfg: ServingConfig) -> None:
        super().__init__(sim, cfg)
        self.instance = build_instance(sim, cfg, cfg.n_gpus, name="wind-inst")
        device = self.instance.device
        # Plain streams: both phases claim the full GPU (oversubscribed).
        self.decode_stream = Stream(device, device.total_sms, name="wind-decode")
        self.prefill_stream = Stream(device, device.total_sms, name="wind-prefill")
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self.merge_ready: list[RequestState] = []
        self._prefill_busy = False
        self._decode_inflight = False

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        self._pump_prefill()

    def _pump_prefill(self) -> None:
        if self._prefill_busy:
            return
        state = self.admit_next(self.instance, self.waiting)
        if state is None:
            return
        self._prefill_busy = True
        cost = self.instance.cost_model.prefill_full([state.prefill_item()])
        launch = self.cfg.launch.full_prefill_launch(self.cfg.model.num_layers)

        task = ExecTask(
            cost.flops,
            cost.bytes,
            fixed_time=cost.comm_time,
            tag="wind-prefill",
            on_complete=lambda _t: self._on_prefill_done(state),
        )
        self.instance.host.enqueue(launch, partial(self.prefill_stream.submit, task))

    def _on_prefill_done(self, state: RequestState) -> None:
        self._prefill_busy = False
        self.hand_off_prefill(self.instance, state, self.merge_ready)
        self._pump_prefill()
        self._maybe_decode()

    def _maybe_decode(self) -> None:
        if self._decode_inflight:
            return
        if self.merge_ready:
            self.running.extend(self.merge_ready)
            self.merge_ready.clear()
        batch = [s for s in self.running if not s.finished][: self.cfg.max_decode_batch]
        if not batch:
            return
        self._decode_inflight = True
        cost = self.decode_step_cost(self.instance, batch)

        task = ExecTask(
            cost.flops,
            cost.bytes,
            fixed_time=cost.comm_time,
            tag="wind-decode",
            on_complete=lambda _t: self._on_decode_done(batch),
        )
        self.instance.host.enqueue(
            self.cfg.launch.decode_launch(), partial(self.decode_stream.submit, task)
        )

    def _on_decode_done(self, batch: list[RequestState]) -> None:
        self._decode_inflight = False
        finished, preempted = self.emit_decode_iteration(self.instance, batch)
        self._retire_decoded(self.instance, finished, preempted)
        self._maybe_decode()
        self._pump_prefill()


class TemporalMuxServer(DecodeBatchMixin):
    """Layer-wise temporal multiplexing on a single stream (no overlap)."""

    name = "TemporalMux"

    def __init__(self, sim: Simulator, cfg: ServingConfig) -> None:
        super().__init__(sim, cfg)
        self.instance = build_instance(sim, cfg, cfg.n_gpus, name="temporal-inst")
        device = self.instance.device
        self.stream = Stream(device, device.total_sms, name="temporal")
        self.waiting = self.make_waiting_queue()
        self.running: list[RequestState] = []
        self._active_prefill: RequestState | None = None
        self._cycle_inflight = False

    def on_request_ready(self, state: RequestState) -> None:
        self.waiting.append(state)
        self._maybe_cycle()

    def _admit_prefill(self) -> RequestState | None:
        if self._active_prefill is None:
            state = self.admit_next(self.instance, self.waiting)
            if state is not None:
                state.layers_done = 0
                self._active_prefill = state
        return self._active_prefill

    def _maybe_cycle(self) -> None:
        """One temporal cycle: a decode iteration, then slack-fit layers."""
        if self._cycle_inflight:
            return
        batch = [s for s in self.running if not s.finished][: self.cfg.max_decode_batch]
        prefill = self._admit_prefill()
        if not batch and prefill is None:
            return
        self._cycle_inflight = True
        device = self.instance.device
        cost_model = self.instance.cost_model
        model = self.cfg.model

        decode_cost = None
        decode_time = 0.0
        if batch:
            decode_cost = self.decode_step_cost(self.instance, batch)
            decode_time = phase_latency(decode_cost, device, device.total_sms)

        layers = 0
        prefill_cost = None
        if prefill is not None:
            remaining = model.num_layers - prefill.layers_done
            if batch:
                slack = self.cfg.slo.tbt * SLACK_MARGIN - decode_time
                per_layer = phase_latency(
                    cost_model.prefill_layers([prefill.prefill_item()], 1), device, device.total_sms
                )
                # At least one layer per cycle: layer-wise splitting exists
                # precisely to make progress inside small slacks.
                layers = int(max(1, math.floor(slack / max(per_layer, 1e-9))))
                layers = min(layers, remaining)
            else:
                layers = remaining
            if layers > 0:
                prefill_cost = cost_model.prefill_layers([prefill.prefill_item()], layers)
                if prefill.layers_done + layers >= model.num_layers:
                    prefill_cost = prefill_cost + cost_model.prefill_head(1)

        total = decode_cost if decode_cost is not None else None
        if prefill_cost is not None:
            total = prefill_cost if total is None else total + prefill_cost
        if total is None:
            # No decode and no slack-fitting prefill: run one layer anyway so
            # the prefill is never starved forever.
            layers = 1
            total = cost_model.prefill_layers([prefill.prefill_item()], 1)
        launch = self.cfg.launch.decode_launch() + self.cfg.launch.prefill_layers_launch(layers)
        self.stream.submit(
            ExecTask(
                total.flops,
                total.bytes,
                fixed_time=total.comm_time + launch,
                tag="temporal-cycle",
                on_complete=lambda _t: self._on_cycle_done(batch, prefill, layers),
            )
        )

    def _on_cycle_done(self, batch: list[RequestState], prefill: RequestState | None, layers: int) -> None:
        self._cycle_inflight = False
        finished, preempted = self.emit_decode_iteration(self.instance, batch)
        self._retire_decoded(self.instance, finished, preempted)
        if prefill is not None and layers > 0:
            prefill.layers_done += layers
            if prefill.layers_done >= self.cfg.model.num_layers:
                self._active_prefill = None
                self.hand_off_prefill(self.instance, prefill, self.running)
        self._maybe_cycle()
