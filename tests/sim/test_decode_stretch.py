"""Decode stretches at their boundaries: fast path vs scalar reference.

The decode fast loop applies the token effects of a *stretch* of
decode-only iterations once per request (see
``DecodeBatchMixin._decode_fast_loop``).  Each case here drives one of the
places where a stretch must end or must not form, runs it with the fast
path on and under ``fastpath.disabled()``, and requires the same result
digest and the same per-token sink stream.  Each case also reads the
simulator's work counters (or, where no counter separates the paths, a
probe on the fast loop) to prove it really formed stretches longer than
one iteration, or really fell back.
"""

from __future__ import annotations

import pytest

from repro.baselines import ChunkedPrefillServer, NanoFlowServer, SGLangPDServer
from repro.bench.perf import _digest
from repro.bench.sinks import ListSink
from repro.gpu.specs import A100
from repro.kvcache.radix import RadixCache
from repro.models.config import LLAMA_8B
from repro.serving.base import iter_instances
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.sim import fastpath, make_sim
from repro.workloads import sharegpt_workload

#: LLaMA-8B KV bytes per token (all layers).
KV_TOKEN_BYTES = 2**17


def _chunked(sim, cfg):
    return ChunkedPrefillServer(sim, cfg, token_budget=256)


def _nanoflow(sim, cfg):
    return NanoFlowServer(sim, cfg, token_budget=256)


class _Run:
    """One single-system run with its token stream tapped."""

    def __init__(
        self, make_server=_chunked, n_gpus=1, pool_tokens=None, setup=None, max_events=None
    ) -> None:
        extra = {}
        if pool_tokens is not None:
            extra["kv_pool_limit_bytes"] = pool_tokens * KV_TOKEN_BYTES
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=n_gpus, **extra)
        self.sim = sim = make_sim()
        self.server = server = make_server(sim, cfg)
        self.sink = ListSink()
        server.metrics.sink = self.sink
        if setup is not None:
            setup(sim, server)
        workload = sharegpt_workload(40, rate=6.0, seed=13)
        server.submit(workload)
        sim.run(until=workload.requests[-1].arrival_time + 3600.0, max_events=max_events)
        metrics = server.metrics
        self.digest = _digest(
            {
                "summary": metrics.summarize().as_dict(),
                "tokens": [r.tokens_emitted for r in metrics.records.values()],
                "instances": [
                    [
                        inst.cache.stats.lookups,
                        inst.cache.stats.tokens_hit,
                        inst.cache.stats.evictions,
                        inst.cache.stats.evicted_tokens,
                        inst.cache.pool.used_pages,
                        inst.device.sm_utilization(),
                        inst.device.bandwidth_utilization(),
                    ]
                    for inst in iter_instances(server)
                ],
                "sim": [sim.now, sim.processed_events, sim.max_event_queue],
                "storms": server.storm_preemptions,
            }
        )
        self.counters = sim.counters.as_dict()


def _both(**kwargs) -> tuple[_Run, _Run]:
    """Run fast and scalar, assert they agree, and return both runs."""
    with fastpath.enabled():
        fast = _Run(**kwargs)
    with fastpath.disabled():
        scalar = _Run(**kwargs)
    assert len(fast.sink.records) > 100
    assert fast.digest == scalar.digest
    assert fast.sink.records == scalar.sink.records
    # The scalar reference never elides, so it never forms stretches.
    assert scalar.counters["chains_elided"] == scalar.counters["stretches"] == 0
    return fast, scalar


def _multi_iteration_stretches(counters) -> bool:
    return counters["stretches"] > 0 and counters["chains_elided"] > counters["stretches"]


@pytest.fixture
def stretch_log(monkeypatch):
    """``(stretch length, batch size, finished count)`` per applied stretch."""
    log = []
    apply = DecodeBatchMixin._apply_stretch

    def logged(self, instance, batch, times):
        finished = apply(self, instance, batch, times)
        log.append((len(times), len(batch), len(finished)))
        return finished

    monkeypatch.setattr(DecodeBatchMixin, "_apply_stretch", logged)
    return log


def test_member_finishing_mid_batch_ends_the_stretch(stretch_log):
    fast, _ = _both()
    assert _multi_iteration_stretches(fast.counters)
    # Some multi-iteration stretch ended on a member finishing while the
    # rest of its batch kept decoding.
    assert any(k > 1 and 0 < done < size for k, size, done in stretch_log)


def test_page_crossing_evicts_inside_a_stretch(monkeypatch):
    evicting = []
    extend_many = RadixCache.extend_many

    def probed(self, leases, tokens):
        before = self.stats.evictions
        extend_many(self, leases, tokens)
        if tokens > 1 and self.stats.evictions > before:
            evicting.append(tokens)

    monkeypatch.setattr(RadixCache, "extend_many", probed)
    fast, _ = _both(pool_tokens=8000)
    assert _multi_iteration_stretches(fast.counters)
    assert evicting, "no stretch evicted"


def test_pool_exhaustion_falls_back_and_preempts():
    fast, _ = _both(pool_tokens=2000)
    # The page budget could not cover an iteration: it ran through the
    # per-request emission, which preempts.
    assert fast.counters["bail_pages"] > 0
    assert _multi_iteration_stretches(fast.counters)


def test_preemption_storm_falls_back(monkeypatch):
    # Probe: emissions a stretch's continuation routes through
    # emit_decode_iteration with a storm armed.
    inside = []
    storm_emits = []
    finish = DecodeBatchMixin._finish_stretch
    emit = DecodeBatchMixin.emit_decode_iteration

    def finishing(self, *args):
        inside.append(True)
        try:
            return finish(self, *args)
        finally:
            inside.pop()

    def emitting(self, instance, batch):
        if inside and self._storm_pending:
            storm_emits.append(len(batch))
        return emit(self, instance, batch)

    monkeypatch.setattr(DecodeBatchMixin, "_finish_stretch", finishing)
    monkeypatch.setattr(DecodeBatchMixin, "emit_decode_iteration", emitting)

    def storms(sim, server):
        # A storm is consumed by the next decode iteration.  Chunked prefill
        # always completes a step (emitting) before it plans the next, but
        # SGLang-PD's decode instance idles between batches, so a storm
        # armed then is still pending when a migrated request reaches the
        # fast loop.
        server.force_preempt()
        for at in (2.0, 4.0, 6.5, 9.0):
            sim.schedule_at(at, server.force_preempt)

    fast, _ = _both(make_server=SGLangPDServer, n_gpus=2, setup=storms)
    assert fast.server.storm_preemptions > 0
    assert storm_emits, "no storm reached the fast loop"
    assert _multi_iteration_stretches(fast.counters)


def test_spill_hook_falls_back():
    def spill_log(sim, server):
        server.spilled = []
        server.instance.cache.spill = lambda key, tokens, clock: server.spilled.append(
            (len(key), tokens, clock)
        )

    fast, scalar = _both(pool_tokens=8000, setup=spill_log)
    # Spill calls carry the eviction clock: same victims at the same times.
    assert fast.server.spilled and fast.server.spilled == scalar.server.spilled
    # Chains were elided one iteration at a time: no stretch formed.
    assert fast.counters["chains_elided"] > 0
    assert fast.counters["stretches"] == 0


def test_nanoflow_prices_stretch_iterations_with_its_override(monkeypatch):
    calls = []
    override = NanoFlowServer._decode_only_cost

    def counted(self, instance, batch_size, total_ctx):
        calls.append(batch_size)
        return override(self, instance, batch_size, total_ctx)

    monkeypatch.setattr(NanoFlowServer, "_decode_only_cost", counted)
    fast, _ = _both(make_server=_nanoflow)
    assert _multi_iteration_stretches(fast.counters)
    # Every elided iteration was priced through the override (a rejected
    # plan is priced too, then not committed).
    assert len(calls) >= fast.counters["chains_elided"]


def test_event_cap_mid_stretch(monkeypatch):
    # Find a stretch of three or more iterations midway through an uncapped
    # run and cap the run one event past its second iteration: the third
    # chain no longer fits the budget, so the cap cuts the stretch.
    # ``completed_at`` holds, per planned iteration, the processed-event
    # count the scalar path reaches at its completion: the count when the
    # stretch was planned plus the events the plan has fired by then.
    completed_at = []
    step = fastpath.plan_chain

    def recording(plan, *args):
        end = step(plan, *args)
        if end is not None:
            completed_at.append(plan.device.sim.processed_events + plan.fired)
        return end

    monkeypatch.setattr(fastpath, "plan_chain", recording)
    stretches = []
    apply = DecodeBatchMixin._apply_stretch

    def logged(self, instance, batch, times):
        stretches.append((len(completed_at), len(times)))
        return apply(self, instance, batch, times)

    monkeypatch.setattr(DecodeBatchMixin, "_apply_stretch", logged)
    with fastpath.enabled():
        _Run()
    middle = stretches[len(stretches) // 2 :]
    last_iteration, steps = next((end, k) for end, k in middle if k >= 3)
    cap = completed_at[last_iteration - steps + 1] + 1

    del stretches[:]
    fast, _ = _both(max_events=cap)
    assert fast.sim.processed_events == cap
    # The run's last stretch was cut after two iterations.
    assert stretches[-1][1] == 2
    assert fast.counters["bail_plan"] > 0
