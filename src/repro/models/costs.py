"""Analytical cost model for prefill and decode phases.

This is the simulator's ground truth for how much compute (FLOPs), HBM
traffic (bytes) and interconnect time each phase consumes.  It follows the
complexity analysis of the paper's Table 2:

======================  =====================  ============
Phase                   Attention              FFN
======================  =====================  ============
Prefill w/o cache       O(L d^2 + L^2 d)       O(L d^2)
Prefill w/ cache        O(n d^2 + L n d)       O(n d^2)
Decode                  O(d^2 + (r+1) d)       O(d^2)
======================  =====================  ============

where ``d`` is the hidden dimension, ``L`` the total context, ``r`` the
reused (cached) context and ``n = L - r`` the new tokens.

Two empirical effects are layered on top of the raw operation counts:

* **GEMM saturation.**  Linear-layer throughput ramps with the number of
  tokens in flight: ``eff(M) = M / (M + SAT_TOKENS_PER_GPU * n_gpus)``.
  Calibrated so that on 8xA100 with Llama-70B the chunked-prefill latency
  curve is sub-linear below ~4K tokens and a 4K-token step takes ~0.5 s
  (Fig. 6a), while a 32-request decode iteration stays in the tens of
  milliseconds.
* **FlashAttention KV re-reads.**  A prefill over ``n`` new tokens streams
  the whole KV prefix once per query block, so KV-read traffic scales with
  ``ceil(n / FLASH_QUERY_BLOCK)`` — the "repetitive KV cache access from the
  prefill chunk" that inflates chunked-prefill TBT (Fig. 6b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.gpu.device import Device
from repro.models.config import ModelConfig

#: Tokens (per GPU in the TP group) at which prefill linear layers reach half
#: of their peak throughput.
SAT_TOKENS_PER_GPU = 50
#: Fixed per-layer time of the decode execution path (unfused elementwise
#: kernels, norms, graph-node scheduling) that neither SMs nor bandwidth can
#: hide.  Serving frameworks use a different (graph-captured) execution path
#: for decode than for prefill, which is why the two phases get separate
#: treatments — mirroring the paper's separate predictors (Eq. 1 vs Eq. 2).
DECODE_LAYER_OVERHEAD = 125e-6
#: FlashAttention query-block size: one pass over the KV prefix per block.
FLASH_QUERY_BLOCK = 128
#: Relative efficiency of attention kernels vs. dense GEMMs.
ATTENTION_EFFICIENCY = 0.6
#: Activation traffic per token per layer, in units of hidden_dim elements
#: (reads + writes around norms, residuals and projections).
ACTIVATION_FACTOR = 8
#: Base latency of one all-reduce (launch + ring setup).
ALLREDUCE_LATENCY = 10e-6
#: All-reduces per transformer layer (after attention and after FFN).
ALLREDUCES_PER_LAYER = 2


class PhaseCost(NamedTuple):
    """Resource demands of one unit of model execution.

    An immutable named tuple (cheaper to build than a frozen dataclass),
    so cached instances are shared; ``+`` adds field by field.

    Attributes:
        flops: Efficiency-adjusted FLOPs — divide by the device's effective
            FLOP rate to get compute time.
        raw_flops: Unadjusted algorithmic FLOPs (for complexity checks).
        bytes: HBM traffic (weights + KV cache + activations).
        comm_time: Serialized interconnect time (tensor-parallel
            all-reduces) that neither SMs nor HBM can hide.
    """

    flops: float
    raw_flops: float
    bytes: float
    comm_time: float

    def __add__(self, other: "PhaseCost") -> "PhaseCost":
        return PhaseCost(
            flops=self.flops + other.flops,
            raw_flops=self.raw_flops + other.raw_flops,
            bytes=self.bytes + other.bytes,
            comm_time=self.comm_time + other.comm_time,
        )

    def scaled(self, factor: float) -> "PhaseCost":
        """Cost multiplied by ``factor`` (e.g. a layer count)."""
        return PhaseCost(
            flops=self.flops * factor,
            raw_flops=self.raw_flops * factor,
            bytes=self.bytes * factor,
            comm_time=self.comm_time * factor,
        )


@dataclass(frozen=True)
class PrefillItem:
    """One request inside a prefill batch: ``new`` fresh tokens attending to
    ``reused`` cached tokens."""

    new: int
    reused: int = 0

    def __post_init__(self) -> None:
        if self.new < 0 or self.reused < 0:
            raise ValueError("token counts must be non-negative")

    @property
    def total(self) -> int:
        """Total context length L = reused + new."""
        return self.new + self.reused


class CostModel:
    """Computes :class:`PhaseCost` for phases of one model deployment.

    Args:
        model: Architecture being served.
        n_gpus: Tensor-parallel group size (the logical device width).
        nvlink_bandwidth: Per-GPU interconnect bandwidth for all-reduces.
    """

    def __init__(self, model: ModelConfig, n_gpus: int = 1, nvlink_bandwidth: float = 300e9) -> None:
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        self.model = model
        self.n_gpus = n_gpus
        self.nvlink_bandwidth = nvlink_bandwidth
        #: Per-batch-size constants of :meth:`decode_layer` — everything in
        #: the decode cost except the context-length terms depends only on
        #: the batch size, which repeats heavily across iterations.
        self._decode_fixed: dict[int, tuple[float, float, float, float, float]] = {}
        #: Per-batch-size :meth:`decode_head` costs (PhaseCost is frozen,
        #: so sharing instances is safe).
        self._decode_head_cache: dict[int, PhaseCost] = {}

    # ------------------------------------------------------------------ #
    # Efficiency / helper curves
    # ------------------------------------------------------------------ #

    def gemm_efficiency(self, tokens: float) -> float:
        """Fraction of peak linear-layer throughput at ``tokens`` in flight."""
        if tokens <= 0:
            return 1.0
        saturation = SAT_TOKENS_PER_GPU * self.n_gpus
        return tokens / (tokens + saturation)

    def _moe_experts_touched(self, tokens: int) -> float:
        """Expected number of distinct experts activated by ``tokens``."""
        model = self.model
        if not model.is_moe:
            return 1.0
        if tokens <= 0:
            return 0.0
        miss = (1.0 - model.active_experts / model.num_experts) ** tokens
        return model.num_experts * (1.0 - miss)

    def _layer_weight_bytes_touched(self, tokens: int) -> float:
        """Weight bytes read by one layer processing ``tokens`` tokens."""
        model = self.model
        attn = model.attn_params_per_layer * model.dtype_bytes
        if model.is_moe:
            experts = self._moe_experts_touched(tokens)
            router = model.hidden_dim * model.num_experts
            ffn = (experts * model.expert_params + router) * model.dtype_bytes
        else:
            ffn = model.ffn_params_per_layer * model.dtype_bytes
        return attn + ffn

    def _allreduce_time(self, tokens: int) -> float:
        """Serialized all-reduce time for one layer over ``tokens`` tokens."""
        if self.n_gpus == 1:
            return 0.0
        model = self.model
        payload = tokens * model.hidden_dim * model.dtype_bytes
        ring_factor = 2.0 * (self.n_gpus - 1) / self.n_gpus
        per_allreduce = ring_factor * payload / self.nvlink_bandwidth + ALLREDUCE_LATENCY
        return ALLREDUCES_PER_LAYER * per_allreduce

    # ------------------------------------------------------------------ #
    # Prefill
    # ------------------------------------------------------------------ #

    def prefill_layer(self, batch: list[PrefillItem]) -> PhaseCost:
        """Cost of running ONE transformer layer of a prefill batch."""
        model = self.model
        new_tokens = sum(item.new for item in batch)
        if new_tokens == 0:
            return PhaseCost(0.0, 0.0, 0.0, 0.0)

        linear_raw = 2.0 * model.active_layer_params * new_tokens
        attn_raw = 0.0
        kv_read_bytes = 0.0
        for item in batch:
            # Causal attention: token j of the new chunk attends to
            # reused + j prior tokens; QK^T and PV each cost 2 flops/element.
            avg_kv_len = item.reused + (item.new + 1) / 2.0
            attn_raw += 4.0 * item.new * avg_kv_len * model.q_dim
            passes = math.ceil(item.new / FLASH_QUERY_BLOCK)
            kv_read_bytes += item.total * model.kv_bytes_per_token_layer * passes

        eff = self.gemm_efficiency(new_tokens)
        flops = linear_raw / eff + attn_raw / ATTENTION_EFFICIENCY

        weight_bytes = self._layer_weight_bytes_touched(new_tokens)
        kv_write = new_tokens * model.kv_bytes_per_token_layer
        activations = ACTIVATION_FACTOR * new_tokens * model.hidden_dim * model.dtype_bytes
        total_bytes = weight_bytes + kv_read_bytes + kv_write + activations

        return PhaseCost(
            flops=flops,
            raw_flops=linear_raw + attn_raw,
            bytes=total_bytes,
            comm_time=self._allreduce_time(new_tokens),
        )

    def prefill_layers(self, batch: list[PrefillItem], num_layers: int) -> PhaseCost:
        """Cost of ``num_layers`` consecutive prefill layers of a batch."""
        return self.prefill_layer(batch).scaled(num_layers)

    def prefill_head(self, batch_size: int) -> PhaseCost:
        """Final norm + LM head producing the first token of each request."""
        model = self.model
        raw = 2.0 * model.vocab_size * model.hidden_dim * batch_size
        weight = model.vocab_size * model.hidden_dim * model.dtype_bytes
        return PhaseCost(
            flops=raw / self.gemm_efficiency(batch_size),
            raw_flops=raw,
            bytes=weight,
            comm_time=0.0,
        )

    def prefill_full(self, batch: list[PrefillItem]) -> PhaseCost:
        """Cost of a complete prefill phase (all layers + LM head)."""
        layers = self.prefill_layer(batch).scaled(self.model.num_layers)
        return layers + self.prefill_head(len(batch))

    # ------------------------------------------------------------------ #
    # Decode
    # ------------------------------------------------------------------ #

    def decode_layer(self, context_lens: list[int]) -> PhaseCost:
        """Cost of ONE transformer layer of a decode iteration.

        ``context_lens`` holds each request's cached context length ``r``;
        each request generates exactly one new token.
        """
        return self.decode_layer_totals(len(context_lens), sum(context_lens))

    def decode_layer_totals(self, batch_size: int, total_ctx: int) -> PhaseCost:
        """:meth:`decode_layer` from pre-reduced totals.

        The decode cost depends on the batch only through its size and the
        integer sum of context lengths, so callers that track the totals
        incrementally (the decode fast path advances ``total_ctx`` by the
        batch size per emitted token) skip the per-request reduction.
        Bit-identical to :meth:`decode_layer`: integer summation is exact.
        """
        model = self.model
        if batch_size == 0:
            return PhaseCost(0.0, 0.0, 0.0, 0.0)

        # Decode runs through a graph-captured GEMV-style path: its linear
        # layers stream weights at full rate (no GEMM ramp-up curve), but
        # every layer pays a fixed overhead for the many small kernels.
        fixed = self._decode_fixed.get(batch_size)
        if fixed is None:
            linear_raw = 2.0 * model.active_layer_params * batch_size
            weight_bytes = self._layer_weight_bytes_touched(batch_size)
            kv_write = batch_size * model.kv_bytes_per_token_layer
            activations = ACTIVATION_FACTOR * batch_size * model.hidden_dim * model.dtype_bytes
            comm_time = self._allreduce_time(batch_size) + DECODE_LAYER_OVERHEAD
            fixed = self._decode_fixed[batch_size] = (
                linear_raw, weight_bytes, kv_write, activations, comm_time
            )
        linear_raw, weight_bytes, kv_write, activations, comm_time = fixed

        # Factored form of sum(4.0 * (r + 1) * q_dim for r in ...): every
        # per-term product and partial sum is an integer below 2**53, so
        # both expressions produce the exact same float.
        attn_raw = 4.0 * model.q_dim * (total_ctx + batch_size)
        flops = linear_raw + attn_raw / ATTENTION_EFFICIENCY
        kv_read = total_ctx * model.kv_bytes_per_token_layer
        total_bytes = weight_bytes + kv_read + kv_write + activations

        return PhaseCost(flops, linear_raw + attn_raw, total_bytes, comm_time)

    def decode_head(self, batch_size: int) -> PhaseCost:
        """LM head of one decode iteration (graph-captured path, raw rate)."""
        cached = self._decode_head_cache.get(batch_size)
        if cached is None:
            model = self.model
            raw = 2.0 * model.vocab_size * model.hidden_dim * batch_size
            weight = model.vocab_size * model.hidden_dim * model.dtype_bytes
            cached = self._decode_head_cache[batch_size] = PhaseCost(
                flops=raw, raw_flops=raw, bytes=weight, comm_time=0.0
            )
        return cached

    def decode_iter(self, context_lens: list[int]) -> PhaseCost:
        """Cost of one full decode iteration (all layers + LM head)."""
        return self.decode_iter_totals(len(context_lens), sum(context_lens))

    def decode_iter_totals(self, batch_size: int, total_ctx: int) -> PhaseCost:
        """:meth:`decode_iter` from pre-reduced totals (see
        :meth:`decode_layer_totals`)."""
        layer_flops, layer_raw, layer_bytes, layer_comm = self.decode_layer_totals(
            batch_size, total_ctx
        )
        head_flops, head_raw, head_bytes, head_comm = self.decode_head(batch_size)
        num_layers = self.model.num_layers
        # ``layer.scaled(num_layers) + head`` with a single (positional)
        # PhaseCost construction; each field is the same multiply-then-add.
        return PhaseCost(
            layer_flops * num_layers + head_flops,
            layer_raw * num_layers + head_raw,
            layer_bytes * num_layers + head_bytes,
            layer_comm * num_layers + head_comm,
        )

    # ------------------------------------------------------------------ #
    # Speculative decoding
    # ------------------------------------------------------------------ #

    def verify_iter(self, context_lens: list[int], spec_tokens: int) -> PhaseCost:
        """Cost of one speculative *verification* step of the target model.

        Each request scores ``spec_tokens`` candidate tokens (the draft
        chain plus the bonus position) against its ``r`` cached context
        tokens in a single batched forward pass.  That is exactly a
        micro-prefill — ``spec_tokens`` new tokens attending to ``r``
        reused ones per request — so it is priced on the prefill path:
        the GEMM saturation ramp rewards the extra tokens in flight and
        FlashAttention re-reads the KV prefix, which is what pulls decode
        off the memory-bound floor and into (partial) compute-boundedness.
        """
        if spec_tokens < 1:
            raise ValueError("spec_tokens must be >= 1")
        if not context_lens:
            return PhaseCost(0.0, 0.0, 0.0, 0.0)
        batch = [PrefillItem(new=spec_tokens, reused=ctx) for ctx in context_lens]
        layers = self.prefill_layer(batch).scaled(self.model.num_layers)
        return layers + self.prefill_head(len(batch))

    def draft_chain(self, context_lens: list[int], draft_len: int) -> PhaseCost:
        """Cost of autoregressively drafting ``draft_len`` tokens per request.

        The draft model (``self``) runs ``draft_len`` sequential decode
        iterations; iteration ``i`` sees each request's context grown by
        the ``i`` tokens it already drafted.  The iterations cannot batch
        with each other — the chain is serial — so the cost is their sum.
        """
        if draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        if not context_lens:
            return PhaseCost(0.0, 0.0, 0.0, 0.0)
        total = self.decode_iter(context_lens)
        for i in range(1, draft_len):
            total = total + self.decode_iter([ctx + i for ctx in context_lens])
        return total

    # ------------------------------------------------------------------ #
    # KV transfer (disaggregated serving)
    # ------------------------------------------------------------------ #

    def kv_bytes(self, tokens: int) -> float:
        """KV-cache bytes held by ``tokens`` tokens across all layers."""
        return tokens * self.model.kv_bytes_per_token

    def kv_transfer_time(self, tokens: int) -> float:
        """Time to migrate ``tokens`` of KV cache between instances."""
        if tokens <= 0:
            return 0.0
        return self.kv_bytes(tokens) / self.nvlink_bandwidth + ALLREDUCE_LATENCY


def phase_latency(
    cost: PhaseCost,
    device: Device,
    sm_count: float,
    max_bandwidth: float = math.inf,
) -> float:
    """Contention-free latency of ``cost`` on ``sm_count`` SMs of ``device``."""
    compute = cost.flops / device.compute_rate(sm_count)
    bandwidth = min(device.effective_bandwidth, max_bandwidth)
    memory = cost.bytes / bandwidth
    return max(compute, memory) + cost.comm_time
