"""Differential equivalence: decode fast path vs scalar reference.

Every canonical perf scenario runs twice — elision on, elision off — and
the full result payloads must be byte-identical: same summaries, same
utilisation integrals, same event counts, same queue high-water marks.
The golden tests in ``tests/bench/test_perf.py`` pin the *values*; this
suite pins the *contract* that produced them: the fast path is an
optimisation, never a model change.

A second layer diffs the per-request metric streams (every token gap, in
emission order, tapped through a metrics sink) so a compensating error —
two deviations cancelling in an aggregate — cannot hide.  It runs once
per caller of the shared decode fast loop: chunked prefill and SGLang-PD.
"""

import pytest

from repro.baselines import ChunkedPrefillServer, SGLangPDServer
from repro.bench.perf import SCENARIOS, _digest
from repro.bench.runner import run_system
from repro.bench.sinks import ListSink
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.sim import fastpath
from repro.workloads import sharegpt_workload

#: Same scale as the golden fingerprints: small enough to run every
#: scenario twice, large enough to exercise batching, caching and faults.
SCALE = 0.05


def _run_scenario(name: str):
    payload, extras = SCENARIOS[name](SCALE)
    return (
        _digest(payload),
        int(extras.get("events_processed", 0)),
        int(extras.get("peak_event_queue", 0)),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_fastpath_equivalence(name):
    with fastpath.enabled():
        fast = _run_scenario(name)
    with fastpath.disabled():
        scalar = _run_scenario(name)
    # Fingerprint, processed-event count (elided events are charged), and
    # queue high-water mark all byte-identical.
    assert fast == scalar


def _chunked(sim, cfg):
    return ChunkedPrefillServer(sim, cfg, token_budget=256)


#: Every caller of ``DecodeBatchMixin._decode_fast_loop``, with its GPU count.
STREAMED_SERVERS = {
    "chunked": (_chunked, 1),
    "sglang_pd": (SGLangPDServer, 2),
}


class _StreamedRun:
    """One single-system run with the per-token metric stream tapped."""

    def __init__(self, make_server=_chunked, n_gpus=1):
        self.sink = ListSink()

        def factory(sim, cfg):
            server = make_server(sim, cfg)
            server.metrics.sink = self.sink
            return server

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=n_gpus)
        workload = sharegpt_workload(40, rate=6.0, seed=13)
        self.result = run_system(factory, cfg, workload)


class TestMetricStreamEquivalence:
    @pytest.mark.parametrize("server", sorted(STREAMED_SERVERS))
    def test_per_request_token_streams_identical(self, server, monkeypatch):
        make_server, n_gpus = STREAMED_SERVERS[server]
        commits = 0
        commit_chain = fastpath.commit_chain

        def counting_commit(*args):
            nonlocal commits
            commits += 1
            return commit_chain(*args)

        monkeypatch.setattr(fastpath, "commit_chain", counting_commit)
        with fastpath.enabled():
            fast = _StreamedRun(make_server, n_gpus)
        # Non-vacuous: this server really elided chains through the loop.
        assert commits > 0
        with fastpath.disabled():
            scalar = _StreamedRun(make_server, n_gpus)
        assert len(fast.sink.records) > 100
        # The full stream — request identity, emission time, exact gap
        # floats, emission order — not just aggregates.
        assert fast.sink.records == scalar.sink.records
        assert fast.result.summary.as_dict() == scalar.result.summary.as_dict()

    def test_streaming_tap_does_not_perturb_results(self):
        with fastpath.enabled():
            tapped = _StreamedRun()
            cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
            workload = sharegpt_workload(40, rate=6.0, seed=13)
            untapped = run_system(_chunked, cfg, workload)
        assert tapped.result.summary.as_dict() == untapped.summary.as_dict()
