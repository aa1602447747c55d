"""Tests for the simulator perf harness (repro.bench.perf).

The golden fingerprints below pin the *simulation results* of the three
canonical scenarios at a small scale.  They are byte-stable by contract:
any change — an optimisation that reorders float arithmetic, a scheduler
tweak, a metrics fix — that alters them must be deliberate, and the golden
updated in the same commit with an explanation.
"""

import json

import pytest

from repro.bench.perf import (
    SCENARIOS,
    SMOKE_SCENARIOS,
    TIER_SCALES,
    PerfReport,
    ScenarioTiming,
    run_perf,
)
from repro.cli import _measured_part
from repro.sim import Simulator, fastpath

#: Scale used for the golden run; small enough for a unit test, large
#: enough that every scenario exercises batching, caching and faults.
GOLDEN_SCALE = 0.05

#: Deterministic results of ``run_perf(scale=GOLDEN_SCALE)``.  Regenerate
#: with ``python -m repro perf --scale 0.05 --fingerprint`` after any
#: intentional behaviour change.
GOLDEN_RESULTS = {
    "agentic_rag": {
        "events": 91466,
        "fingerprint": "ba50ddb0431139bc7d2d68da7e5683d34b34a7f3101a5a062199b698601e5e3b",
        "peak_event_queue": 41,
    },
    # chaos_4_replicas moved when the round-robin liveness bug was fixed:
    # the policy now routes around a stalled/killed replica during the
    # kill->detection window instead of feeding it, so the chaos trace
    # loses fewer requests and the event stream differs.
    "chaos_4_replicas": {
        "events": 3203,
        "fingerprint": "47957045ed4f684ea50f3b2790dc6febf32b7ef04b3d28d76534eaad22b94b18",
        "peak_event_queue": 15,
    },
    "hetero_fleet": {
        "events": 96601,
        "fingerprint": "8c35e0474ead3cc6ad044b9edeec4a029743300f504adedc32671a5d8aa9d623",
        "peak_event_queue": 120,
    },
    "kv_tiers": {
        "events": 81928,
        "fingerprint": "69e278e426f781611af12a42bc0a131f6f5898dc9eaaac49d316d30cc27b0bdd",
        "peak_event_queue": 65,
    },
    "fleet_4_replicas": {
        "events": 6102,
        "fingerprint": "99a44a988cf062e2850b88100238a330e4fc5bcf6db1882fbebc9803b870d196",
        "peak_event_queue": 40,
    },
    "single_goodput": {
        "events": 4168,
        "fingerprint": "c1147d43a9ad0a98eeef8693d9bc5feb57ac15554c615152ba75e42c708bfe4f",
        "peak_event_queue": 10,
    },
    "spec_decoding": {
        "events": 7788,
        "fingerprint": "3e889eebf87da1b5fbdc2bbd9396292bcfa05880a632da8232b156d78c7f1ce3",
        "peak_event_queue": 8,
    },
    "tenancy_wfq_brownout": {
        "events": 2806,
        "fingerprint": "0d3c07560ed0e36b07a281602a663f8c4343045060824068a8e9ec902cf27f22",
        "peak_event_queue": 24,
    },
}


#: Deterministic results of the smoke scenarios at the committed "10"
#: tier — the CI ``scale-smoke`` contract.  Regenerate with
#: ``python -m repro perf --scale 10 --scenarios single_goodput,tenancy_wfq_brownout --fingerprint``.
GOLDEN_RESULTS_SCALE_10 = {
    "single_goodput": {
        "events": 63754,
        "fingerprint": "a937e6a5a8cd6c422d6f987251f17b8da98f9bf416f6422ced343104cd259220",
        "peak_event_queue": 2000,
    },
    "tenancy_wfq_brownout": {
        "events": 47150,
        "fingerprint": "69b259a59d2cee9df6fa82c92d5e5c0f43efb1948bd3b68776639903bfd02878",
        "peak_event_queue": 1250,
    },
}


#: Fast-loop work counters of ``single_goodput`` at ``GOLDEN_SCALE`` with the
#: fast path on.  Deterministic like the fingerprints, but they describe how
#: the result was computed: a change that moves them changed the fast loop's
#: work, not the simulation.  Regenerate from ``python -m repro perf --scale
#: 0.05 --scenarios single_goodput``.
GOLDEN_COUNTERS_SINGLE = {
    "pushes": 75,
    "cancels": 0,
    "chains_elided": 1369,
    "stretches": 14,
    "ledger_writes": 134,
    "bail_head": 3,
    "bail_busy": 0,
    "bail_prefill": 11,
    "bail_plan": 4,
    "bail_pages": 0,
    "bail_partition": 0,
    "realloc_lone": 32,
    "realloc_pair": 0,
    "realloc_general": 0,
    "corun_stretches": 0,
    "corun_bail_state": 0,
    "corun_bail_partition": 0,
    "corun_bail_group": 0,
    "corun_bail_horizon": 0,
    "corun_bail_pages": 0,
    "corun_bail_plan": 0,
}

#: Decode stretches on fleets: each replica's stretch is bounded by the
#: next event that can reach it, not by the fleet-wide queue head.  The
#: chunked ``fleet_4_replicas`` scenario at ``GOLDEN_SCALE`` and a small
#: 4-replica MuxWise fleet (:func:`_muxwise_fleet_counters`), whose co-run
#: stretches plan decode iterations beside prefill layer groups; the scalar
#: path schedules 6102 and 18107 events on them (the MuxWise estimator's
#: calibration, warmed before counting, is not included).
GOLDEN_FLEET_COUNTERS = {
    "fleet_4_replicas": {"chains_elided": 1827, "stretches": 138, "pushes": 759},
    "muxwise_fleet": {
        "chains_elided": 4049,
        "stretches": 279,
        "pushes": 2020,
        "corun_stretches": 20,
    },
}


def _muxwise_fleet_counters() -> dict[str, int]:
    """Work counters of 60 ShareGPT requests on 4 MuxWise replicas."""
    from repro.bench.fleet import run_fleet
    from repro.cluster import FleetConfig
    from repro.core import MuxWiseServer
    from repro.core.calibration import calibrated_estimator
    from repro.gpu.specs import A100
    from repro.models.config import LLAMA_8B
    from repro.serving.config import ServingConfig
    from repro.sim import WorkCounters, collect_counters
    from repro.workloads import sharegpt_workload

    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    # The estimator's calibration is memoised per process and runs its own
    # simulator: warm it first, so the counts are the fleet's alone
    # whichever test ran first.
    calibrated_estimator(cfg)
    with collect_counters() as counters:
        run_fleet(
            MuxWiseServer,
            cfg,
            sharegpt_workload(60, rate=6.0, seed=13),
            FleetConfig(replicas=4, policy="prefix-affinity"),
        )
    return WorkCounters.total(counters)


@pytest.fixture(scope="module")
def golden_run() -> PerfReport:
    return run_perf(scale=GOLDEN_SCALE)


class TestGoldenFingerprints:
    def test_results_match_golden(self, golden_run):
        assert golden_run.fingerprints() == GOLDEN_RESULTS

    def test_fingerprints_stable_across_runs(self, golden_run):
        again = run_perf(scale=GOLDEN_SCALE)
        assert again.fingerprint_json() == golden_run.fingerprint_json()

    def test_repeats_agree(self):
        # run_perf itself raises if repeats fingerprint differently.
        report = run_perf(scenarios=["single_goodput"], scale=GOLDEN_SCALE, repeats=2)
        assert report.scenarios["single_goodput"].fingerprint == (
            GOLDEN_RESULTS["single_goodput"]["fingerprint"]
        )


class TestWorkCounters:
    def test_single_goodput_counters_pinned(self):
        with fastpath.enabled():
            report = run_perf(scenarios=["single_goodput"], scale=GOLDEN_SCALE)
        timing = report.scenarios["single_goodput"]
        assert timing.counters == GOLDEN_COUNTERS_SINGLE
        # Counters stay out of the fingerprint view and the JSON report.
        assert report.fingerprints() == {"single_goodput": GOLDEN_RESULTS["single_goodput"]}
        assert "counters" not in report.to_json()

    def test_fleet_counters_pinned(self):
        with fastpath.enabled():
            report = run_perf(scenarios=["fleet_4_replicas"], scale=GOLDEN_SCALE)
            measured = {
                "fleet_4_replicas": report.scenarios["fleet_4_replicas"].counters,
                "muxwise_fleet": _muxwise_fleet_counters(),
            }
        for name, golden in GOLDEN_FLEET_COUNTERS.items():
            assert {key: measured[name][key] for key in golden} == golden, name

    def test_pushes_and_cancels_by_kind_sum_to_the_totals(self):
        # agentic_rag runs MuxWise co-run stretches and cancels device updates.
        schedule_at = Simulator.schedule_at
        report = run_perf(scenarios=["agentic_rag"], scale=GOLDEN_SCALE, by_kind=True)
        timing = report.scenarios["agentic_rag"]
        kinds = timing.by_kind
        assert sum(kinds["pushes"].values()) == timing.counters["pushes"]
        assert sum(kinds["cancels"].values()) == timing.counters["cancels"] > 0
        assert kinds["cancels"]["Device._on_update"] > 0
        assert timing.counters["corun_stretches"] > 0
        # The tally is installed only for the run, and stays out of reports.
        assert Simulator.schedule_at is schedule_at
        assert report.fingerprints()["agentic_rag"] == GOLDEN_RESULTS["agentic_rag"]
        plain = run_perf(scenarios=["agentic_rag"], scale=GOLDEN_SCALE)
        assert plain.scenarios["agentic_rag"].by_kind == {}

    def test_scalar_path_elides_nothing(self):
        with fastpath.disabled():
            report = run_perf(scenarios=["single_goodput"], scale=GOLDEN_SCALE)
        counters = report.scenarios["single_goodput"].counters
        assert counters["chains_elided"] == counters["stretches"] == 0
        # Every decode token is then its own ledger write.
        assert counters["ledger_writes"] > GOLDEN_COUNTERS_SINGLE["ledger_writes"]


class TestScaleTiers:
    def test_scale10_smoke_fingerprints(self):
        """The committed "10" tier: smoke scenarios at 10x workload."""
        report = run_perf(scenarios=list(SMOKE_SCENARIOS), scale=TIER_SCALES["10"])
        assert report.fingerprints() == GOLDEN_RESULTS_SCALE_10

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            run_perf(scenarios=["single_goodput"], scale=GOLDEN_SCALE, tiers=["7"])

    def test_tier_payload_layout(self):
        report = PerfReport(scale=1.0)
        report.scenarios["s"] = ScenarioTiming(
            name="s", fingerprint="f", events=10, peak_event_queue=5, wall_s=1.0
        )
        tier = PerfReport(scale=10.0)
        tier.scenarios["s"] = ScenarioTiming(
            name="s", fingerprint="g", events=100, peak_event_queue=50, wall_s=4.0
        )
        report.tiers["10"] = tier
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert payload["tiers"]["10"]["scale"] == 10.0
        assert payload["tiers"]["10"]["results"]["s"]["fingerprint"] == "g"
        # Tier-aware comparison: a changed tier fingerprint is flagged.
        baseline = json.loads(report.to_json())
        baseline["tiers"]["10"]["results"]["s"]["fingerprint"] = "0" * 64
        problems = report.compare_results(baseline)
        assert len(problems) == 1 and problems[0].startswith("tier 10:")
        # ... and a slow tier run is flagged by the timing comparison.
        baseline = json.loads(report.to_json())
        baseline["tiers"]["10"]["timings"]["s"]["wall_s"] = 1.0
        problems = report.compare_timings(baseline, max_regression=2.0)
        assert len(problems) == 1 and problems[0].startswith("tier 10:")

    def test_missing_tier_flagged(self):
        report = PerfReport(scale=1.0)
        problems = report.compare_results({"tiers": {"10": {"results": {}}}})
        assert problems == ["tier 10: missing from this run"]


class TestSpecMemoization:
    """Regression guard for the spec hot path: position rates are derived
    once per session, not once per verify step."""

    def test_position_rates_computed_once_per_session(self):
        from repro.spec.config import PositionAcceptance, SpecConfig
        from repro.spec.runtime import SpecSession

        calls = []

        class CountingAcceptance(PositionAcceptance):
            def position_rate(self, base, position):
                calls.append(position)
                return super().position_rate(base, position)

        spec = SpecConfig(acceptance=CountingAcceptance(base=0.8, decay=0.9), draft_len=4)
        session = SpecSession(spec, index=0)
        assert calls == [0, 1, 2, 3]  # derived once, at session creation
        for _ in range(200):
            session.sample_step(spec, max_emit=5)
        assert calls == [0, 1, 2, 3]  # sample_step never re-derives

    def test_memoized_rates_match_direct_derivation(self):
        from repro.spec.config import PositionAcceptance, SpecConfig
        from repro.spec.runtime import SpecSession

        acceptance = PositionAcceptance(base=0.8, decay=0.9)
        spec = SpecConfig(acceptance=acceptance, draft_len=6)
        session = SpecSession(spec, index=3)
        assert session.position_rates == tuple(
            acceptance.position_rate(session.base_rate, i) for i in range(6)
        )

    def test_rng_stream_unchanged_by_memoization(self):
        """Bit-exact contract: same seed, same emitted-token sequence."""
        import random

        from repro.spec.config import PositionAcceptance, SpecConfig
        from repro.spec.runtime import SpecSession, _SESSION_SEED_MIX

        acceptance = PositionAcceptance(base=0.8, decay=0.9)
        spec = SpecConfig(acceptance=acceptance, draft_len=4, seed=7)
        session = SpecSession(spec, index=2)
        # Reference: the pre-memoization per-step derivation, replayed on
        # an identical RNG.
        rng = random.Random((spec.seed << 32) ^ (2 * _SESSION_SEED_MIX))
        base = acceptance.request_rate(rng)
        assert session.base_rate == base

        def reference_step():
            accepted = 0
            rejected = False
            for i in range(spec.draft_len):
                if not rejected and rng.random() < acceptance.position_rate(base, i):
                    accepted += 1
                else:
                    rejected = True
                    rng.random()
            return min(accepted + 1, 5)

        for _ in range(500):
            assert session.sample_step(spec, max_emit=5) == reference_step()


class TestHarnessMechanics:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_perf(scenarios=["nope"], scale=GOLDEN_SCALE)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_perf(scenarios=["single_goodput"], repeats=0)

    def test_scenario_registry_is_complete(self):
        assert set(SCENARIOS) == set(GOLDEN_RESULTS)

    def test_report_json_round_trips(self, golden_run):
        payload = json.loads(golden_run.to_json())
        assert payload["schema"] == 1
        assert payload["scale"] == GOLDEN_SCALE
        assert set(payload["results"]) == set(GOLDEN_RESULTS)
        for timing in payload["timings"].values():
            assert timing["wall_s"] >= 0.0

    def test_compare_results_flags_fingerprint_change(self, golden_run):
        baseline = json.loads(golden_run.to_json())
        baseline["results"]["fleet_4_replicas"]["fingerprint"] = "0" * 64
        problems = golden_run.compare_results(baseline)
        assert len(problems) == 1
        assert "fleet_4_replicas" in problems[0]

    def test_compare_results_flags_missing_scenario(self, golden_run):
        baseline = {"results": {"brand_new_scenario": {"fingerprint": "x"}}}
        problems = golden_run.compare_results(baseline)
        assert problems == ["brand_new_scenario: scenario missing from this run"]

    def test_compare_timings_flags_regression(self):
        report = PerfReport(scale=1.0)
        report.scenarios["s"] = ScenarioTiming(
            name="s", fingerprint="f", events=10, peak_event_queue=5, wall_s=10.0
        )
        baseline = {"timings": {"s": {"wall_s": 1.0}}}
        problems = report.compare_timings(baseline, max_regression=2.0)
        assert len(problems) == 1 and "exceeds" in problems[0]
        assert report.compare_timings(baseline, max_regression=20.0) == []

    def test_compare_timings_ignores_zero_baseline(self):
        report = PerfReport()
        report.scenarios["s"] = ScenarioTiming(
            name="s", fingerprint="f", events=1, peak_event_queue=1, wall_s=5.0
        )
        assert report.compare_timings({"timings": {"s": {"wall_s": 0.0}}}, 2.0) == []

    def test_events_per_sec(self):
        timing = ScenarioTiming(
            name="s", fingerprint="f", events=500, peak_event_queue=1, wall_s=0.5
        )
        assert timing.events_per_sec == 1000.0
        zero = ScenarioTiming(
            name="s", fingerprint="f", events=500, peak_event_queue=1, wall_s=0.0
        )
        assert zero.events_per_sec == 0.0


class TestBaselineRestriction:
    """``repro perf --scenarios/--tiers --baseline`` compares what it ran."""

    BASELINE = {
        "scale": 1.0,
        "results": {"a": {"fingerprint": "1"}, "b": {"fingerprint": "2"}},
        "timings": {"a": {"wall_s": 1.0}, "b": {"wall_s": 2.0}},
        "tiers": {"10": {"scale": 10.0}, "100": {"scale": 100.0}},
    }

    def test_scenarios_and_tiers_filtered(self):
        part = _measured_part(self.BASELINE, ["a"], ["10"])
        assert part["results"] == {"a": {"fingerprint": "1"}}
        assert part["timings"] == {"a": {"wall_s": 1.0}}
        assert list(part["tiers"]) == ["10"]
        assert part["scale"] == 1.0

    def test_unrestricted_run_keeps_scenarios_drops_unrequested_tiers(self):
        part = _measured_part(self.BASELINE, None, None)
        assert part["results"] == self.BASELINE["results"]
        assert part["tiers"] == {}

    def test_tier_baseline_without_tiers_key(self):
        tier = {"scale": 100.0, "results": {"a": {}, "b": {}}, "timings": {}}
        assert list(_measured_part(tier, ["a"], None)["results"]) == ["a"]
