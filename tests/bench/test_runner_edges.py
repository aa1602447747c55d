"""Edge-case tests for the experiment runner's stability heuristics."""

import math

import pytest

from repro.baselines import ChunkedPrefillServer
from repro.bench import runner
from repro.bench.fleet import run_fleet
from repro.bench.runner import STABILITY_TTFT, RunResult, RunStats, run_system
from repro.cluster import FleetConfig
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.serving.metrics import Summary
from repro.sim import SimulationError, Simulator
from repro.workloads import sharegpt_workload
from repro.workloads.request import Workload


def make_summary(**overrides) -> Summary:
    base = dict(
        name="x",
        requests_total=100,
        requests_finished=100,
        ttft_avg=1.0,
        ttft_p50=1.0,
        ttft_p99=2.0,
        tbt_avg=0.02,
        tbt_p50=0.02,
        tbt_p99=0.05,
        tpot_avg=0.02,
        tpot_p50=0.02,
        e2e_avg=3.0,
        e2e_p50=3.0,
        token_throughput=1000.0,
        useful_throughput=900.0,
        output_throughput=500.0,
        tbt_attainment=1.0,
        slo_met=True,
    )
    base.update(overrides)
    return Summary(**base)


def make_result(summary: Summary, **overrides) -> RunResult:
    return RunResult(
        summary=summary,
        cache_hit_rate=0.5,
        sm_utilization=0.7,
        bandwidth_utilization=0.5,
        **overrides,
    )


class TestStability:
    def test_healthy_run_is_stable_and_meets_slo(self):
        result = make_result(make_summary())
        assert result.stable
        assert result.meets_slo

    def test_unfinished_requests_mark_unstable(self):
        result = make_result(make_summary(requests_finished=90))
        assert not result.stable
        assert not result.meets_slo

    def test_diverging_ttft_marks_unstable(self):
        result = make_result(make_summary(ttft_p99=STABILITY_TTFT * 2))
        assert not result.stable

    def test_nan_ttft_marks_unstable(self):
        result = make_result(make_summary(ttft_p99=math.nan))
        assert not result.stable

    def test_slo_violation_blocks_goodput_even_when_stable(self):
        result = make_result(make_summary(slo_met=False, tbt_p99=0.2))
        assert result.stable
        assert not result.meets_slo

    def test_boundary_ttft_exactly_at_threshold_is_stable(self):
        result = make_result(make_summary(ttft_p99=STABILITY_TTFT))
        assert result.stable

    def test_empty_workload_counts_as_stable(self):
        # Zero requests means zero unfinished requests and no latency
        # samples; that must read as "stable", not as a failed run.
        summary = make_summary(
            requests_total=0, requests_finished=0, ttft_p99=math.nan
        )
        assert make_result(summary).stable

    def test_custom_stability_threshold_applies(self):
        summary = make_summary(ttft_p99=2.0)
        assert make_result(summary).stable
        assert not make_result(summary, stability_ttft=1.0).stable
        assert make_result(summary, stability_ttft=2.0).stable


class TestRunStats:
    def test_addition_sums_events_and_drained_needs_every_run(self):
        total = RunStats(10) + RunStats(5, drained=False) + RunStats(1)
        assert total == RunStats(events=16, drained=False)

    def test_empty_stats_are_the_identity(self):
        stats = RunStats(3, drained=False)
        assert sum([stats], RunStats()) == stats == RunStats() + stats

    def test_extras_keys_feed_result_payloads(self, cfg_8b_single):
        result = run_system(
            ChunkedPrefillServer, cfg_8b_single, sharegpt_workload(4, rate=4.0, seed=9)
        )
        assert result.stats.drained and result.stats.events > 0
        assert result.extras["events_processed"] == float(result.stats.events)
        # The heap's high-water mark is a work counter, not a result.
        assert "peak_event_queue" not in result.extras


class TestEmptyWorkloadRun:
    def test_run_system_handles_empty_workload(self, cfg_8b_single):
        result = run_system(
            lambda sim, cfg: ChunkedPrefillServer(sim, cfg, token_budget=256),
            cfg_8b_single,
            Workload(name="empty", requests=[]),
        )
        assert result.summary.requests_total == 0
        assert result.stable
        assert result.meets_slo  # vacuously: nothing arrived, nothing violated

    def test_run_system_accepts_stability_overrides(self, cfg_8b_single):
        from repro.workloads import sharegpt_workload

        workload = sharegpt_workload(5, rate=4.0, seed=9)
        factory = lambda sim, cfg: ChunkedPrefillServer(sim, cfg, token_budget=256)
        strict = run_system(
            factory, cfg_8b_single, workload, stability_ttft=1e-9, drain_horizon=1800.0
        )
        relaxed = run_system(factory, cfg_8b_single, workload, stability_ttft=1e9)
        assert not strict.stable
        assert relaxed.stable


class TestEventCap:
    """A run that stops on MAX_EVENTS with work pending must fail loudly."""

    @staticmethod
    def _setup():
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        return cfg, sharegpt_workload(8, rate=6.0, seed=13)

    def test_run_system_raises_on_cap(self, monkeypatch):
        cfg, workload = self._setup()
        monkeypatch.setattr(runner, "MAX_EVENTS", 50)
        with pytest.raises(SimulationError) as excinfo:
            run_system(lambda sim, c: ChunkedPrefillServer(sim, c), cfg, workload)
        message = str(excinfo.value)
        assert "50-event cap" in message
        assert "50 events fired" in message
        assert "head event at t=" in message and " runs " in message

    def test_run_fleet_raises_on_cap(self, monkeypatch):
        cfg, workload = self._setup()
        monkeypatch.setattr(runner, "MAX_EVENTS", 50)
        with pytest.raises(SimulationError, match="50-event cap"):
            run_fleet(
                lambda sim, c: ChunkedPrefillServer(sim, c),
                cfg,
                workload,
                FleetConfig(replicas=2),
            )

    def test_drained_run_at_exact_cap_does_not_raise(self, monkeypatch):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        monkeypatch.setattr(runner, "MAX_EVENTS", 3)
        runner.run_capped(sim, None)
        assert sim.processed_events == 3
