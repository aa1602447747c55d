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
from repro.sim import fastpath
from repro.workloads import Request, Workload, sharegpt_workload

#: KV pool cap of the tight regime (bytes).
TIGHT_POOL_BYTES = 1.5e9
#: Context of the request no tight pool can ever hold (tokens).
GIANT_TOKENS = 200_000
#: Simulated times at which the tight regime arms a preemption storm.
STORM_TIMES = (6.0, 12.0)

GOLDEN = {
    ("muxwise", "ample"): "eb06f707e0173d693299b84798d292ca6861ff13d61c8b221c28fa007b28015f",
    ("muxwise", "tight"): "f7d33c11c1fad3236babee28c70fc874491d2f8806c2b539e510cb22e77798e7",
    ("chunked", "ample"): "9a147668beaa35ae8de9d80532a8c7c679f9e88ed5f8a1d4e762b8e5640146a8",
    ("chunked", "tight"): "0c5137243bad2a6e1c98c0c9f4ee40d4a5c8b13946c59e46eab389a6d3d78787",
    ("nanoflow", "ample"): "23d260f5fac9521d6a0738d04cbba1651a881578059a72adc8abf78359aa93bc",
    ("nanoflow", "tight"): "e21d02f8d42dcbc9f12b60b7a2958a4eeae7347af095bb3a25e2457d5a4111f1",
    ("sglang-pd", "ample"): "e288e528bd578aaf3c6432b5dbadd8ec8ddcb7accba4d1e6e3550f0a4ca19aa5",
    ("sglang-pd", "tight"): "4201e780787b3569de70ad99f0bbc60bc53ca61b1321a93c6da85dcb64c8c854",
    ("loongserve", "ample"): "e806bd41c502cd28ff32b85c2b491fb1d4133d794577a8a35d9431ceac14f027",
    ("loongserve", "tight"): "b2aedc11cc9b6bc727099d85e38cc6f770fa1d86e022bd224baaacf249e327f1",
    ("windserve", "ample"): "3ffe1f48ce4c3d2bbfda00994df899563fa89d29bedc0b3774e996eaa7ffae7e",
    ("windserve", "tight"): "579af0be51ef3a4bbabeeb805c6a5e008db0f0788f4d5129df243a0158213d3c",
    ("temporal", "ample"): "f807420aa5dcf842d6d913f5dd7dcfdb4539013a387413cc4e06024c62411d07",
    ("temporal", "tight"): "6251f74beb71ec71ceed8da29f92dd420c4dabc0d5c4856adcf3ac889c38b3ed",
    ("hybrid-pd", "ample"): "f3e9c3829057743141852405d64c0a12d39ebe4dcab94070517450e617928312",
    ("hybrid-pd", "tight"): "2ea67250af66208cdde68ac360957dd68d08290c3169f23dd54bf55f1cf7121a",
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
        "peak_queue": stats.peak_queue,
        "drained": stats.drained,
        "storm_preemptions": server.storm_preemptions,
    }
    return _digest(payload)


@pytest.mark.parametrize("regime", ["ample", "tight"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_lifecycle_matches_golden(system, regime, monkeypatch):
    commits = 0
    commit_chain = fastpath.commit_chain

    def counting_commit(*args):
        nonlocal commits
        commits += 1
        return commit_chain(*args)

    monkeypatch.setattr(fastpath, "commit_chain", counting_commit)
    with fastpath.enabled():
        digest = _run(system, regime)
    assert digest == GOLDEN[system, regime]
    if commits:
        with fastpath.disabled():
            assert _run(system, regime) == digest
