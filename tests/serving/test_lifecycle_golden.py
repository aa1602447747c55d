"""Golden pin of every serving system's request lifecycle.

Each of the eight systems in the CLI's ``SYSTEMS`` table runs the same
ShareGPT trace on two Llama-8B A100s in two regimes:

* **ample** — the memory-derived KV pools; admission, first-token
  hand-off and decode retirement on their common path;
* **tight** — every pool capped at 1.5 GB (about 11.4k tokens), a
  200k-token request that can never fit, and two preemption storms, so
  oversized-request drops, pool-pressure back-off, recompute requeues and
  storm retirement all fire.

The digest covers the summary, every instance's KV-cache statistics and
SM utilisation, the simulator's event count and queue high-water mark, the
drain flag and the storm preemption count.  A run that elided any decode
chain through the fast path must give the same digest with it turned off.
"""

from dataclasses import asdict

import pytest

from repro.bench.perf import _digest
from repro.bench.runner import simulate
from repro.cli import SYSTEMS, make_factory
from repro.gpu.specs import A100
from repro.kvcache import new_segment
from repro.models.config import LLAMA_8B
from repro.serving.base import iter_instances
from repro.serving.config import ServingConfig
from repro.sim import WorkCounters, collect_counters, fastpath
from repro.workloads import Request, Workload, sharegpt_workload

#: KV pool cap of the tight regime (bytes).
TIGHT_POOL_BYTES = 1.5e9
#: Context of the request no tight pool can ever hold (tokens).
GIANT_TOKENS = 200_000
#: Simulated times at which the tight regime arms a preemption storm.
STORM_TIMES = (6.0, 12.0)

GOLDEN = {
    ("muxwise", "ample"): "579c29c441ca0f3fc3d0cf00790c85ad2c6cae9ac184249def841e6d0649172e",
    ("muxwise", "tight"): "2e4bc8b7330f1d387a137e4af694525bfb0a5286f3b05ecaab393a9b4735168d",
    ("chunked", "ample"): "5ea97939c44cf0eae718595bd08c1d93e470de4779cd6ca12a60f731b6da779a",
    ("chunked", "tight"): "351e0590b0ad81f8aadbe5de004d5024847841e8c5a1e1e20287021782849b54",
    ("nanoflow", "ample"): "abf96944d581a92b8aa412489b70f3e667e09103a036ac1a47a9df1a3ac72718",
    ("nanoflow", "tight"): "85c6b57a30f8a6887e738fa2de541441d77fce24c52ecd249ea1bebf2174cae5",
    ("sglang-pd", "ample"): "eae0ea64a9a3b8ebfdb9afdccaa854ced213fc108b79d2702262d6a1f3da31d2",
    ("sglang-pd", "tight"): "cf5f69aa6e30e1c9411e63fbf98fdc5f2465f2a4df0e82eca723cc3988f6b1b9",
    ("loongserve", "ample"): "8abc019d1b4f587a63d383c2f7f18c7ffb5de0410e2d43db9ea9860b44eddaa5",
    ("loongserve", "tight"): "62defaabb9e0ea93f656e9de2eef79972b0d1b1aff84ad76984701607e1e9410",
    ("windserve", "ample"): "6cb1765d9c78e6ac44132a51d530950e87dbf0e7d3f21ab737bcc67090bf101d",
    ("windserve", "tight"): "8b43209362f8f9df18da51203b11a1fa036b632dd44b4a767fcde55094b7ffc3",
    ("temporal", "ample"): "e83e231a7fc33364a8fe3c54b8b9e762f13a7e9c2ea10de05a1a08a78d5bd33b",
    ("temporal", "tight"): "948a81382755393feb0f5322ef4f89765977b0491a0ae20253f9706b45565a74",
    ("hybrid-pd", "ample"): "acfec748e45adae089e1864821ca7e980a7cdcff33c8f888a876a6082aa31653",
    ("hybrid-pd", "tight"): "4691a0010daf45104e13d92c179160ca53942a578b88eadf81e0f7e966b1a5c3",
}


def _workload(tight: bool) -> Workload:
    workload = sharegpt_workload(150, 8.0, seed=3)
    if not tight:
        return workload
    requests = workload.requests
    giant = Request(
        session_id=1 + max(r.session_id for r in requests),
        turn_index=0,
        arrival_time=2.0,
        history=[],
        new_input=new_segment(GIANT_TOKENS),
        output_tokens=8,
        request_id=1 + max(r.request_id for r in requests),
    )
    return Workload(workload.name, [*requests, giant])


def _run(system: str, regime: str) -> str:
    tight = regime == "tight"
    cfg = ServingConfig(
        model=LLAMA_8B,
        spec=A100,
        n_gpus=2,
        kv_pool_limit_bytes=TIGHT_POOL_BYTES if tight else None,
    )
    factory = make_factory(system, 256)

    def build(sim):
        server = factory(sim, cfg)
        if tight:
            for at in STORM_TIMES:
                sim.schedule_at(at, server.force_preempt)
        return server

    server, stats = simulate(build, _workload(tight))
    payload = {
        "summary": server.metrics.summarize().as_dict(),
        "instances": [
            {
                "cache": asdict(inst.cache.stats),
                "sm_utilization": inst.device.sm_utilization(),
            }
            for inst in iter_instances(server)
        ],
        "events": stats.events,
        "drained": stats.drained,
        "storm_preemptions": server.storm_preemptions,
    }
    return _digest(payload)


@pytest.mark.parametrize("regime", ["ample", "tight"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_lifecycle_matches_golden(system, regime):
    with fastpath.enabled(), collect_counters() as counters:
        digest = _run(system, regime)
    assert digest == GOLDEN[system, regime]
    if WorkCounters.total(counters)["chains_elided"]:
        with fastpath.disabled():
            assert _run(system, regime) == digest
