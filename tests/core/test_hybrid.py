"""Tests for the §5 hybrid deployment (MuxWise as the decode instance)."""

from dataclasses import replace

import pytest

from repro.baselines import SGLangPDServer
from repro.core import HybridPDServer
from repro.kvcache import new_segment
from repro.serving import SLO
from repro.sim import Simulator
from repro.tenancy.wfq import WFQQueue
from repro.workloads import Request, Workload, sharegpt_workload, toolagent_workload


def run(cls, cfg, workload, **kwargs):
    sim = Simulator()
    server = cls(sim, cfg, **kwargs)
    server.submit(workload)
    server.run()
    return server


class TestHybridPD:
    def test_completes_and_meets_slo(self, cfg_70b):
        wl = toolagent_workload(40, request_rate=0.8, seed=61)
        server = run(HybridPDServer, cfg_70b, wl)
        summary = server.metrics.summarize()
        assert summary.requests_finished == summary.requests_total
        assert summary.slo_met

    def test_short_requests_served_locally(self, cfg_70b):
        """Short prefills run on the MuxWise side, skipping migration."""
        wl = sharegpt_workload(40, rate=2.0, seed=62)
        server = run(HybridPDServer, cfg_70b, wl)
        # The dedicated prefill instance never saw the short requests.
        assert server.prefill_inst.cache.stats.lookups == 0
        assert server.metrics.summarize().requests_finished == 40

    def test_long_requests_use_dedicated_instance(self, cfg_70b):
        wl = toolagent_workload(30, request_rate=0.6, seed=63)
        server = run(HybridPDServer, cfg_70b, wl)
        assert server.prefill_inst.cache.stats.lookups > 0

    def test_better_ttft_than_static_disaggregation(self, cfg_70b):
        """Replacing the idle decode instance with MuxWise exploits idle
        compute, improving prefill latency under load (§5)."""
        wl = toolagent_workload(50, request_rate=1.2, seed=64)
        hybrid = run(HybridPDServer, cfg_70b, wl).metrics.summarize()
        static = run(SGLangPDServer, cfg_70b, wl).metrics.summarize()
        assert hybrid.ttft_p99 <= static.ttft_p99 * 1.05

    def test_needs_two_gpus(self, cfg_8b_single):
        with pytest.raises(ValueError):
            HybridPDServer(Simulator(), cfg_8b_single)

    def test_muxwise_side_keeps_every_config_field(self, cfg_8b):
        cfg = replace(
            cfg_8b,
            n_gpus=2,
            kv_pool_limit_bytes=1.5e9,
            queue_policy="wfq",
            name_prefix="r3/",
        )
        server = HybridPDServer(Simulator(), cfg)
        assert server.cfg.n_gpus == 1
        assert server.cfg.kv_pool_limit_bytes == 1.5e9
        assert (
            server.instance.cache.pool.capacity_tokens
            == server.prefill_inst.cache.pool.capacity_tokens
        )
        assert isinstance(server.waiting, WFQQueue)
        assert server.metrics.name == "r3/Hybrid-PD"
        assert server.instance.name.startswith("r3/")

    def test_too_big_for_prefill_pool_is_served_by_muxwise_side(self, cfg_8b):
        """One dedicated prefill GPU, two MuxWise GPUs: a request that never
        fits the prefill pool is handed to the MuxWise side, not dropped."""
        server = HybridPDServer(Simulator(), replace(cfg_8b, n_gpus=3), prefill_gpus=1)
        assert (
            server.prefill_inst.cache.pool.capacity_tokens
            < 600_000
            < server.instance.cache.pool.capacity_tokens
        )
        requests = sharegpt_workload(20, rate=4.0, seed=1).requests
        giant = Request(
            session_id=1 + max(r.session_id for r in requests),
            turn_index=0,
            arrival_time=0.0,
            history=[],
            new_input=new_segment(600_000),
            output_tokens=4,
            request_id=1 + max(r.request_id for r in requests),
        )
        server.submit(Workload("giant", [*requests, giant]))
        server.run()
        assert server.metrics.summarize().requests_finished == 21


class TestPerTokenTTFT:
    def test_target_scales_with_length(self):
        slo = SLO(tbt=0.1, ttft=5.0, ttft_per_token=0.01)
        assert slo.ttft_target(100_000) == pytest.approx(1000.0)
        assert slo.ttft_target(1) == SLO.MIN_TTFT_DEADLINE

    def test_flat_target_without_per_token(self):
        slo = SLO(tbt=0.1, ttft=5.0)
        assert slo.ttft_target(1) == slo.ttft_target(100_000) == 5.0

    def test_invalid_per_token_rejected(self):
        with pytest.raises(ValueError):
            SLO(tbt=0.1, ttft_per_token=0.0)
