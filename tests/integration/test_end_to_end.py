"""Integration tests: the paper's headline comparisons at test scale.

These runs are deliberately small (tens of requests) so the suite stays
fast; the full-scale reproductions are the figure studies
(``python -m repro study <name>``, :mod:`repro.bench.figures`).
"""

import pytest

from repro.baselines import ChunkedPrefillServer, LoongServeServer, SGLangPDServer
from repro.core import MuxWiseServer
from repro.sim import Simulator
from repro.workloads import sharegpt_workload, toolagent_workload


def run(cls, cfg, workload, **kwargs):
    sim = Simulator()
    server = cls(sim, cfg, **kwargs)
    server.submit(workload)
    server.run()
    return server.metrics.summarize(), server


class TestMuxWiseVsChunked:
    def test_muxwise_meets_slo_where_chunked_fails(self, cfg_70b):
        """Multi-turn load that chunked-prefill cannot serve within TBT."""
        wl = toolagent_workload(60, request_rate=1.0, seed=21)
        mux, _ = run(MuxWiseServer, cfg_70b, wl)
        chunked, _ = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=256)
        assert mux.slo_met
        assert not chunked.slo_met

    def test_muxwise_ttft_beats_chunked(self, cfg_70b):
        wl = toolagent_workload(60, request_rate=1.0, seed=21)
        mux, _ = run(MuxWiseServer, cfg_70b, wl)
        chunked, _ = run(ChunkedPrefillServer, cfg_70b, wl, token_budget=256)
        assert mux.ttft_p99 < chunked.ttft_p99

    def test_muxwise_tbt_unaffected_by_long_reuse(self, cfg_70b):
        """§2.3.2: long reused contexts break chunking, not multiplexing."""
        wl = toolagent_workload(40, request_rate=0.8, seed=22)
        mux, _ = run(MuxWiseServer, cfg_70b, wl)
        assert mux.tbt_p99 <= cfg_70b.slo.tbt


class TestMuxWiseVsDisaggregation:
    def test_muxwise_ttft_beats_sglang_pd(self, cfg_70b):
        """Static disaggregation leaves decode GPUs idle during bursts."""
        wl = toolagent_workload(60, request_rate=1.2, seed=23)
        mux, _ = run(MuxWiseServer, cfg_70b, wl)
        pd, _ = run(SGLangPDServer, cfg_70b, wl)
        assert mux.ttft_p99 < pd.ttft_p99

    def test_aggregated_cache_beats_split_pools(self, cfg_70b):
        """MuxWise's single pool yields a higher hit rate than SGLang-PD's
        split pools on multi-turn traffic (Fig. 5's consequence)."""
        wl = toolagent_workload(60, request_rate=0.8, seed=24)
        _, mux_server = run(MuxWiseServer, cfg_70b, wl)
        _, pd_server = run(SGLangPDServer, cfg_70b, wl)
        mux_hits = mux_server.instance.cache.stats.hit_rate
        pd_stats = pd_server.prefill_inst.cache.stats
        pd_hits = pd_stats.hit_rate
        assert mux_hits >= pd_hits

    def test_loongserve_recompute_penalty(self, cfg_70b):
        """LoongServe recomputes multi-turn history; MuxWise reuses it."""
        wl = toolagent_workload(50, request_rate=0.8, seed=25)
        _, mux_server = run(MuxWiseServer, cfg_70b, wl)
        _, loong_server = run(LoongServeServer, cfg_70b, wl)
        assert loong_server.metrics._prefilled_tokens > mux_server.metrics._prefilled_tokens


class TestLlama8B:
    def test_muxwise_meets_50ms_slo(self, cfg_8b):
        wl = sharegpt_workload(100, rate=10.0, seed=26)
        mux, _ = run(MuxWiseServer, cfg_8b, wl)
        assert mux.slo_met
        assert cfg_8b.slo.tbt == pytest.approx(0.050)

    def test_single_gpu_muxwise_beats_chunked_throughput(self, cfg_8b_single):
        """§4.3.1: on 1xA100 ShareGPT, MuxWise sustains load chunked cannot."""
        wl = sharegpt_workload(150, rate=9.0, seed=27)
        mux, _ = run(MuxWiseServer, cfg_8b_single, wl)
        chunked, _ = run(ChunkedPrefillServer, cfg_8b_single, wl, token_budget=128)
        # "...improves goodput by 1.2x while maintaining similar TBT":
        # at equal rate MuxWise has far better TTFT and comparable TBT.
        assert mux.slo_met
        assert mux.ttft_avg < chunked.ttft_avg
        assert mux.tbt_p99 <= chunked.tbt_p99 * 1.6
