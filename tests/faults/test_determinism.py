"""Replay contract: same (plan, seed, workload) → byte-identical report."""

from repro.bench import run_chaos
from repro.cluster import FleetConfig, HealthConfig
from repro.faults import FaultKind, FaultPlan, default_chaos_plan
from repro.workloads import sharegpt_workload

from tests.faults.conftest import chunked_factory


def one_run(cfg, plan):
    workload = sharegpt_workload(24, rate=12.0, seed=31)
    return run_chaos(
        chunked_factory,
        cfg,
        workload,
        fleet=FleetConfig(replicas=3, health=HealthConfig()),
        plan=plan,
    )


def random_plan():
    return FaultPlan.random(
        seed=13,
        horizon=2.0,
        counts={
            FaultKind.REPLICA_KILL: 1,
            FaultKind.NETWORK_DROP: 1,
            FaultKind.PREEMPTION_STORM: 1,
        },
    )


class TestDeterminism:
    def test_scripted_plan_replays_byte_identically(self, cfg_8b_single):
        plan = default_chaos_plan(2.0)
        first = one_run(cfg_8b_single, plan)
        second = one_run(cfg_8b_single, plan)
        assert first.to_json() == second.to_json()
        assert first.drained and first.conserved()

    def test_probabilistic_plan_replays_byte_identically(self, cfg_8b_single):
        plan = random_plan()
        first = one_run(cfg_8b_single, plan)
        second = one_run(cfg_8b_single, plan)
        assert first.to_json() == second.to_json()

    def test_report_json_is_strict(self, cfg_8b_single):
        import json

        result = one_run(cfg_8b_single, default_chaos_plan(2.0))
        # Parses under strict JSON (no NaN/Infinity literals allowed).
        payload = json.loads(result.to_json(), parse_constant=lambda _: 1 / 0)
        assert payload["drained"] is True
        assert "request_id" not in result.to_json()
