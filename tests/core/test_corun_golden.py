"""Golden pin of the MuxWise prefill/decode co-run path on a fleet.

The perf goldens (``tests/bench/test_perf.py``) run at a scale where the
device almost always holds one task; this run keeps the decode and prefill
green contexts busy side by side (about 12.6k two-task bandwidth
reallocations across four replicas), so any change to the co-run
arithmetic of :class:`repro.gpu.device.Device`, the multiplex engine or the
estimator moves its digest.
"""

from repro.bench.fleet import run_fleet
from repro.bench.perf import _digest
from repro.cluster import FleetConfig
from repro.core import MuxWiseServer
from repro.workloads import poissonized, rag_workload

#: Result digest and events fired of the run.
GOLDEN_CORUN = (
    "30edafdb0767731ab1d1145c572c22f1f4a21c52c455f80c23b6caafa1b6cce3",
    59955,
)


def test_fleet_rag_corun_matches_golden(cfg_8b_single):
    workload = poissonized(rag_workload(120, 3.0, seed=0), 3.0, seed=0)
    result = run_fleet(
        MuxWiseServer,
        cfg_8b_single,
        workload,
        FleetConfig(replicas=4, policy="prefix-affinity"),
    )
    payload = {
        "summary": result.summary.as_dict(),
        "per_replica": {n: s.as_dict() for n, s in sorted(result.per_replica.items())},
        "cache_hit_rate": result.cache_hit_rate,
        "sm_utilization": result.sm_utilization,
        "bandwidth_utilization": result.bandwidth_utilization,
        "requests_shed": result.requests_shed,
        "router_decisions": result.router_decisions,
        "extras": result.extras,
    }
    observed = (_digest(payload), int(result.extras["events_processed"]))
    assert observed == GOLDEN_CORUN
