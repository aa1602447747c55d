"""NanoFlow-style serving: chunked prefill + operator-level overlap.

NanoFlow splits every fused iteration into (two) nano-batches so that
compute-bound, memory-bound and communication kernels overlap.  The paper's
analysis (§4.2.1) of why this backfires under tight SLOs:

* overlap hides part of the communication/auxiliary time (the win), but
* each nano-batch re-reads the model weights — "duplicating loading for
  each decode iteration" — which is brutal for large models, and
* halving the tokens per nano-batch lowers GEMM efficiency, so the design
  only pays off with a large token budget (>= 1024), which tight TBT SLOs
  forbid.

All three effects are modelled by adjusting the per-iteration cost.
"""

from __future__ import annotations

from repro.baselines.chunked_prefill import ChunkedPrefillServer
from repro.models.costs import PhaseCost, PrefillItem
from repro.serving.base import Instance, RequestState


#: Nano-batches per iteration (NanoFlow's default).
NANO_BATCHES = 2
#: Fraction of serialized (comm + per-layer overhead) time hidden by overlap.
OVERLAP_DISCOUNT = 0.6


class NanoFlowServer(ChunkedPrefillServer):
    """Chunked prefill with nano-batch operator overlap."""

    name = "NanoFlow"

    def decode_step_cost(self, instance: Instance, batch: list[RequestState]) -> PhaseCost:
        return self._with_weight_reloads(super().decode_step_cost(instance, batch), len(batch))

    def _decode_only_cost(self, instance: Instance, batch_size: int, total_ctx: int) -> PhaseCost:
        cost = super()._decode_only_cost(instance, batch_size, total_ctx)
        return _overlapped(self._with_weight_reloads(cost, batch_size))

    def _with_weight_reloads(self, decode_cost: PhaseCost, batch_size: int) -> PhaseCost:
        """Each nano-batch re-streams the weights it touches."""
        layer_bytes = self.instance.cost_model._layer_weight_bytes_touched(batch_size)
        duplicate_load = (NANO_BATCHES - 1) * float(self.cfg.model.num_layers * layer_bytes)
        return decode_cost._replace(bytes=decode_cost.bytes + duplicate_load)

    def _chunk_cost(self, tokens: int, reused: int) -> PhaseCost:
        # The chunk is split across nano-batches: same total work, but
        # GEMM efficiency is that of half-size token groups.
        model = self.instance.cost_model
        num_layers = self.cfg.model.num_layers
        per_nano = max(1, tokens // NANO_BATCHES)
        nano_cost = model.prefill_layers([PrefillItem(new=per_nano, reused=reused)], num_layers)
        remainder = tokens - per_nano * (NANO_BATCHES - 1)
        tail_cost = model.prefill_layers([PrefillItem(new=remainder, reused=reused)], num_layers)
        return nano_cost.scaled(NANO_BATCHES - 1) + tail_cost

    def _iteration_cost(
        self,
        decode_batch: list[RequestState],
        prefill_state: RequestState | None,
        chunk_tokens: int,
    ) -> tuple[PhaseCost, bool]:
        cost, completes_prefill = super()._iteration_cost(decode_batch, prefill_state, chunk_tokens)
        return _overlapped(cost), completes_prefill


def _overlapped(cost: PhaseCost) -> PhaseCost:
    """Operator-level overlap hides part of the serialized tail."""
    return cost._replace(comm_time=cost.comm_time * OVERLAP_DISCOUNT)
