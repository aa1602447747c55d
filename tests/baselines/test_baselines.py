"""Behavioural tests for the four baselines and the §6 variants."""

import pytest

from repro.baselines import (
    ChunkedPrefillServer,
    LoongServeServer,
    NanoFlowServer,
    SGLangPDServer,
    TemporalMuxServer,
    WindServeServer,
)
from repro.kvcache import new_segment
from repro.serving import ServingConfig
from repro.sim import Simulator
from repro.workloads import Request, Workload, sharegpt_workload, toolagent_workload


def run(cls, cfg, workload, **kwargs):
    sim = Simulator()
    server = cls(sim, cfg, **kwargs)
    server.submit(workload)
    server.run()
    return server


ALL_SYSTEMS = [
    (ChunkedPrefillServer, {"token_budget": 256}),
    (NanoFlowServer, {"token_budget": 256}),
    (SGLangPDServer, {}),
    (LoongServeServer, {}),
    (WindServeServer, {}),
    (TemporalMuxServer, {}),
]


class TestAllSystemsComplete:
    @pytest.mark.parametrize("cls,kwargs", ALL_SYSTEMS, ids=lambda v: getattr(v, "name", ""))
    def test_sharegpt_completes(self, cfg_70b, cls, kwargs):
        wl = sharegpt_workload(40, rate=2.0, seed=1)
        server = run(cls, cfg_70b, wl, **kwargs)
        assert server.metrics.summarize().requests_finished == 40

    @pytest.mark.parametrize("cls,kwargs", ALL_SYSTEMS, ids=lambda v: getattr(v, "name", ""))
    def test_multiturn_completes(self, cfg_70b, cls, kwargs):
        wl = toolagent_workload(25, request_rate=0.5, seed=2)
        server = run(cls, cfg_70b, wl, **kwargs)
        summary = server.metrics.summarize()
        assert summary.requests_finished == summary.requests_total


class TestChunkedPrefill:
    def test_token_budget_validation(self, cfg_70b):
        with pytest.raises(ValueError):
            ChunkedPrefillServer(Simulator(), cfg_70b, token_budget=0)

    def test_long_prefill_is_chunked_across_iterations(self, cfg_70b):
        request = Request(
            session_id=0,
            turn_index=0,
            arrival_time=0.0,
            history=[],
            new_input=new_segment(4096),
            output_tokens=4,
        )
        server = run(ChunkedPrefillServer, cfg_70b, Workload("one", [request]), token_budget=512)
        record = server.metrics.records[request.request_id]
        # 4096 tokens at budget 512 -> at least 8 fused iterations before
        # the first token.
        assert record.ttft > 8 * 0.05

    def test_smaller_budget_lowers_tbt_but_raises_ttft(self, cfg_70b):
        """The SLO-vs-utilisation dilemma (Fig. 6a) under real decode load."""
        wl = sharegpt_workload(150, rate=6.0, seed=3)
        small = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=128).metrics.summarize()
        big = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=4096).metrics.summarize()
        assert small.tbt_p99 < big.tbt_p99
        assert small.ttft_p99 > big.ttft_p99

    def test_cache_reuse_across_turns(self, cfg_70b):
        wl = toolagent_workload(25, request_rate=0.5, seed=4)
        server = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=512)
        assert server.instance.cache.stats.hit_rate > 0.1


class TestNanoFlow:
    def test_worse_than_chunked_for_70b(self, cfg_70b):
        """§4.2.1: duplicated weight loads are amplified on large models."""
        wl = sharegpt_workload(40, rate=3.0, seed=5)
        chunked = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=256).metrics.summarize()
        nano = run(NanoFlowServer, cfg_70b, wl, token_budget=256).metrics.summarize()
        assert nano.tbt_p99 > chunked.tbt_p99

    def test_8b_with_large_budget_can_beat_chunked(self, cfg_8b):
        """NanoFlow outperforms chunked only in its comfort zone (ShareGPT,
        8B, ample token budget)."""
        wl = sharegpt_workload(80, rate=12.0, seed=6)
        chunked = run(ChunkedPrefillServer, cfg_8b, wl, token_budget=1024).metrics.summarize()
        nano = run(NanoFlowServer, cfg_8b, wl, token_budget=1024).metrics.summarize()
        assert nano.tpot_avg < chunked.tpot_avg * 1.15


class TestSGLangPD:
    def test_needs_two_gpus(self):
        from repro.gpu import A100
        from repro.models import LLAMA_8B

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        with pytest.raises(ValueError):
            SGLangPDServer(Simulator(), cfg)

    def test_decode_instance_is_never_multiplexed(self, cfg_70b):
        """TBT stays low under load — the paper's SGLang-PD strength."""
        wl = sharegpt_workload(60, rate=3.0, seed=7)
        server = run(SGLangPDServer, cfg_70b, wl)
        assert server.metrics.summarize().slo_met

    def test_prefill_side_caches_cross_request_prefixes(self, cfg_70b):
        wl = toolagent_workload(25, request_rate=0.5, seed=8)
        server = run(SGLangPDServer, cfg_70b, wl)
        assert server.prefill_inst.cache.stats.tokens_hit > 0

    def test_kv_pools_are_split(self, cfg_70b):
        server = SGLangPDServer(Simulator(), cfg_70b)
        split = (
            server.prefill_inst.cache.pool.capacity_tokens
            + server.decode_inst.cache.pool.capacity_tokens
        )
        from repro.serving.base import build_instance

        full = build_instance(Simulator(), cfg_70b, 8, "agg")
        assert split < full.cache.pool.capacity_tokens


def with_giant(workload, input_tokens):
    """``workload`` plus one request of ``input_tokens`` arriving at 0.5 s."""
    requests = workload.requests
    giant = Request(
        session_id=1 + max(r.session_id for r in requests),
        turn_index=0,
        arrival_time=0.5,
        history=[],
        new_input=new_segment(input_tokens),
        output_tokens=4,
        request_id=1 + max(r.request_id for r in requests),
    )
    return Workload(workload.name, [*requests, giant])


class TestSGLangPDAsymmetricSplit:
    def test_request_too_big_for_prefill_pool_is_dropped(self):
        """One prefill GPU and two decode GPUs: a request that fits the
        decode pool but never the prefill pool must be dropped, not block
        the queue head forever."""
        from repro.gpu import A100
        from repro.models import LLAMA_8B

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=3)
        server = SGLangPDServer(Simulator(), cfg, prefill_gpus=1)
        prefill_pool = server.prefill_inst.cache.pool.capacity_tokens
        decode_pool = server.decode_inst.cache.pool.capacity_tokens
        assert prefill_pool < 600_000 < decode_pool
        server.submit(with_giant(sharegpt_workload(20, rate=4.0, seed=1), 600_000))
        server.run()
        summary = server.metrics.summarize()
        assert summary.requests_finished == 20
        assert not server.waiting
        assert server.sim.pending_events == 0


class TestLoongServe:
    def test_no_cross_request_reuse(self, cfg_70b):
        """The key penalty: multi-turn history is always recomputed."""
        wl = toolagent_workload(25, request_rate=0.5, seed=9)
        server = run(LoongServeServer, cfg_70b, wl)
        assert server.instance.cache.stats.tokens_hit == 0

    def test_recompute_inflates_prefilled_tokens(self, cfg_70b):
        wl = toolagent_workload(25, request_rate=0.4, seed=10)
        loong = run(LoongServeServer, cfg_70b, wl)
        chunked = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=512)
        assert loong.metrics._prefilled_tokens > chunked.metrics._prefilled_tokens

    def test_elastic_scale_up_uses_multiple_gpus(self, cfg_70b):
        request = Request(
            session_id=0,
            turn_index=0,
            arrival_time=0.0,
            history=[],
            new_input=new_segment(30_000),
            output_tokens=4,
        )
        sim = Simulator()
        server = LoongServeServer(sim, cfg_70b)
        server.submit(Workload("one", [request]))
        sim.run(max_events=1)  # process the arrival only
        assert server._prefill_jobs and server._prefill_jobs[0].gpus >= 4
        sim.run()


class TestVariants:
    def test_windserve_oversubscribes_compute(self, cfg_8b_single):
        server = WindServeServer(Simulator(), cfg_8b_single)
        assert server.decode_stream.sm_count == cfg_8b_single.spec.sms
        assert server.prefill_stream.sm_count == cfg_8b_single.spec.sms

    def test_temporal_mux_respects_slo_at_light_load(self, cfg_8b_single):
        wl = sharegpt_workload(40, rate=2.0, seed=11)
        server = run(TemporalMuxServer, cfg_8b_single, wl)
        summary = server.metrics.summarize()
        assert summary.requests_finished == 40
