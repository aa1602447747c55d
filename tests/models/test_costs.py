"""Unit tests for the phase cost model against the paper's reference points."""

import pytest

from repro.gpu import A100, Device
from repro.models import (
    LLAMA_8B,
    LLAMA_70B,
    QWEN3_235B,
    CostModel,
    PhaseCost,
    PrefillItem,
    phase_latency,
)
from repro.sim import Simulator


@pytest.fixture
def cm70() -> CostModel:
    return CostModel(LLAMA_70B, n_gpus=8, nvlink_bandwidth=A100.nvlink_bandwidth)


@pytest.fixture
def dev8() -> Device:
    return Device(Simulator(), A100, n_gpus=8)


class TestPrefillCost:
    def test_flops_scale_roughly_linearly_with_new_tokens(self, cm70):
        small = cm70.prefill_full([PrefillItem(new=1024)])
        large = cm70.prefill_full([PrefillItem(new=4096)])
        assert 3.0 <= large.raw_flops / small.raw_flops <= 5.0

    def test_reused_context_adds_attention_flops_only(self, cm70):
        base = cm70.prefill_layer([PrefillItem(new=1024, reused=0)])
        reused = cm70.prefill_layer([PrefillItem(new=1024, reused=65536)])
        assert reused.raw_flops > base.raw_flops
        # Linear-layer FLOPs identical: the delta is attention + KV reads.
        expected_extra_attn = 4.0 * 1024 * 65536 * LLAMA_70B.q_dim
        assert reused.raw_flops - base.raw_flops == pytest.approx(expected_extra_attn, rel=1e-6)

    def test_empty_batch_costs_nothing(self, cm70):
        cost = cm70.prefill_layer([])
        assert cost.flops == 0 and cost.bytes == 0

    def test_layers_scale_costs(self, cm70):
        one = cm70.prefill_layer([PrefillItem(new=512)])
        ten = cm70.prefill_layers([PrefillItem(new=512)], 10)
        assert ten.flops == pytest.approx(10 * one.flops)
        assert ten.bytes == pytest.approx(10 * one.bytes)

    def test_full_prefill_includes_all_layers_and_head(self, cm70):
        layers = cm70.prefill_layer([PrefillItem(new=512)]).scaled(LLAMA_70B.num_layers)
        full = cm70.prefill_full([PrefillItem(new=512)])
        assert full.flops > layers.flops

    def test_gemm_efficiency_monotone_and_bounded(self, cm70):
        effs = [cm70.gemm_efficiency(t) for t in (32, 256, 2048, 16384)]
        assert all(0 < e <= 1 for e in effs)
        assert effs == sorted(effs)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            PrefillItem(new=-1)


class TestDecodeCost:
    @pytest.mark.parametrize("model", [LLAMA_8B, LLAMA_70B, QWEN3_235B])
    @pytest.mark.parametrize("n_gpus", [1, 8])
    def test_per_batch_closure_is_bit_identical(self, model, n_gpus):
        cm = CostModel(model, n_gpus=n_gpus)
        for batch_size in (1, 3, 32, 256):
            cost = cm.decode_iter_fn(batch_size)
            for total_ctx in (0, 1, 777, 65_536, 3_000_001):
                phase = cm.decode_iter_totals(batch_size, total_ctx)
                assert cost(total_ctx) == (phase.flops, phase.bytes, phase.comm_time)

    def test_per_batch_closure_follows_a_repriced_subclass(self):
        class Doubled(CostModel):
            def decode_layer_totals(self, batch_size, total_ctx):
                return super().decode_layer_totals(batch_size, total_ctx).scaled(2.0)

        cm = Doubled(LLAMA_8B)
        phase = cm.decode_iter_totals(4, 4000)
        assert cm.decode_iter_fn(4)(4000) == (phase.flops, phase.bytes, phase.comm_time)
        with pytest.raises(ValueError):
            cm.decode_iter_fn(0)

    def test_decode_is_memory_dominated_at_full_sms(self, cm70, dev8):
        """Decode reads the full weights every iteration: memory-bound."""
        cost = cm70.decode_iter([1024] * 32)
        compute_time = cost.flops / dev8.compute_rate(dev8.total_sms)
        memory_time = cost.bytes / dev8.effective_bandwidth
        assert memory_time > compute_time

    def test_decode_bytes_include_weights(self, cm70):
        cost = cm70.decode_iter([1024] * 32)
        assert cost.bytes > LLAMA_70B.weight_bytes

    def test_kv_reads_scale_with_context(self, cm70):
        short = cm70.decode_iter([1024] * 32)
        long = cm70.decode_iter([65536] * 32)
        extra_kv = 32 * (65536 - 1024) * LLAMA_70B.kv_bytes_per_token
        assert long.bytes - short.bytes == pytest.approx(extra_kv, rel=0.01)

    def test_reference_latency_70b_bs32(self, cm70, dev8):
        """~20-30 ms TBT for Llama-70B TP8 on A100 at batch 32 (observed in
        practice and consistent with the paper's Table 3 MuxWise TBT)."""
        cost = cm70.decode_iter([1024] * 32)
        latency = phase_latency(cost, dev8, dev8.total_sms)
        assert 0.015 <= latency <= 0.035

    def test_decode_latency_rises_when_sm_starved(self, cm70, dev8):
        cost = cm70.decode_iter([1024] * 32)
        at_16 = phase_latency(cost, dev8, 16)
        at_96 = phase_latency(cost, dev8, 96)
        assert at_16 > at_96

    def test_empty_batch_costs_nothing(self, cm70):
        cost = cm70.decode_layer([])
        assert cost.flops == 0 and cost.bytes == 0


class TestMoE:
    def test_moe_decode_reads_only_activated_experts(self):
        cm = CostModel(QWEN3_235B, n_gpus=8)
        small_batch = cm.decode_layer([1024] * 2)
        big_batch = cm.decode_layer([1024] * 256)
        # More tokens activate more distinct experts -> more weight traffic,
        # but sub-linearly (expert reuse across the batch).
        assert big_batch.bytes > small_batch.bytes
        assert big_batch.bytes < small_batch.bytes * 128

    def test_moe_experts_touched_saturates(self):
        cm = CostModel(QWEN3_235B, n_gpus=8)
        assert cm._moe_experts_touched(1) == pytest.approx(8, rel=0.01)
        assert cm._moe_experts_touched(10_000) == pytest.approx(128, rel=0.01)

    def test_dense_model_touches_all_weights(self):
        cm = CostModel(LLAMA_70B, n_gpus=8)
        bytes_small = cm._layer_weight_bytes_touched(1)
        bytes_big = cm._layer_weight_bytes_touched(1000)
        assert bytes_small == bytes_big


class TestCommunication:
    def test_single_gpu_has_no_allreduce(self):
        cm = CostModel(LLAMA_8B, n_gpus=1)
        assert cm.decode_layer([128] * 8).comm_time > 0  # decode overhead only
        assert cm._allreduce_time(128) == 0.0

    def test_allreduce_grows_with_tokens(self, cm70):
        assert cm70._allreduce_time(4096) > cm70._allreduce_time(64)

    def test_kv_transfer_time_scales_with_tokens(self, cm70):
        assert cm70.kv_transfer_time(10_000) > cm70.kv_transfer_time(100)
        assert cm70.kv_transfer_time(0) == 0.0


class TestPhaseCostAlgebra:
    def test_add(self):
        a = PhaseCost(1.0, 2.0, 3.0, 4.0)
        b = PhaseCost(10.0, 20.0, 30.0, 40.0)
        total = a + b
        assert (total.flops, total.raw_flops, total.bytes, total.comm_time) == (11.0, 22.0, 33.0, 44.0)

    def test_scaled(self):
        a = PhaseCost(1.0, 2.0, 3.0, 4.0)
        assert a.scaled(3).bytes == 9.0
