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
per serving system in the CLI's ``SYSTEMS`` table, not per hand-listed
caller of the shared decode fast loop: a server can reach the loop by
inheritance (NanoFlow through chunked prefill), and one that prices its
steps differently must price the elided ones the same way.  Every server
whose scheduler calls the loop must really elide chains through it.

A third layer runs fleets, where a replica's stretch is bounded by the
next event that can reach *that* replica: MuxWise and chunked fleets,
fleets whose router holds session followers or queued requests (whose
stretches must fall back to the fleet-wide queue head), and a planted
cross-replica event into a pending stretch, which must raise.

A fourth layer covers MuxWise's co-run stretches, which plan decode
iterations together with the prefill layer groups beside them: a single
replica under prefill load, the 4-replica RAG co-run fleet, Fig. 20's
preemption setup, a 2-GPU replica (whose prefill groups have a serialized
communication tail), the layer-wise and query-sync ablations (which must
bail and still match) and a planted cross-replica event into a co-run
stretch, which must raise.
"""

from collections import Counter

import pytest

from repro.baselines import ChunkedPrefillServer
from repro.bench.perf import SCENARIOS, _digest
from repro.bench.runner import run_capped, run_system
from repro.bench.sinks import ListSink
from repro.cli import SYSTEMS, make_factory
from repro.cluster import AdmissionConfig, Fleet, FleetConfig
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.batching import DecodeBatchMixin
from repro.serving.config import ServingConfig
from repro.serving.slo import SLO
from repro.sim import (
    SimulationError,
    Simulator,
    WorkCounters,
    collect_counters,
    fastpath,
    make_sim,
)
from repro.workloads import (
    conversation_workload,
    mixed_workload,
    poissonized,
    rag_workload,
    sharegpt_workload,
)

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


#: Every serving system, on the two GPUs the disaggregated ones need.
STREAMED_SERVERS = {name: (make_factory(name, 256), 2) for name in SYSTEMS}


def _calls_fast_loop(cls) -> bool:
    """Whether a method ``cls`` defines or inherits calls the decode fast loop."""
    return any(
        "_decode_fast_loop" in getattr(fn, "__code__", None).co_names
        for klass in cls.__mro__
        if klass is not DecodeBatchMixin
        for fn in vars(klass).values()
        if hasattr(fn, "__code__")
    )


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
        # Non-vacuous: a server that calls the loop really elided chains.
        assert (commits > 0) == _calls_fast_loop(SYSTEMS[server])
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


# --------------------------------------------------------------------- #
# Decode stretches on fleets
# --------------------------------------------------------------------- #


def _muxwise(sim, cfg):
    return MuxWiseServer(sim, cfg)


class _FleetRun:
    """One fleet run with every replica's token stream tapped.

    Records the fleet's isolation answers as the stretch horizons asked
    for them: True lets a replica's stretch ignore the other replicas'
    events, False bounds it by the fleet-wide queue head.
    """

    def __init__(self, factory, workload, config, plant=None):
        self.sinks = []

        def tapped(sim, cfg):
            server = factory(sim, cfg)
            server.metrics.sink = ListSink()
            self.sinks.append(server.metrics.sink)
            return server

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        self.sim = sim = make_sim()
        self.fleet = fleet = Fleet(sim, tapped, cfg, config)
        isolated = sim._isolation
        self.isolation = Counter()

        def watched():
            answer = isolated()
            self.isolation[answer] += 1
            return answer

        sim.set_isolation(watched)
        if plant is not None:
            plant(sim, fleet)
        fleet.submit(workload)
        run_capped(sim, workload.requests[-1].arrival_time + 3600.0)
        self.counters = sim.counters.as_dict()
        self.digest = _digest(
            {
                "summary": fleet.summarize().as_dict(),
                "per_replica": {
                    n: s.as_dict() for n, s in sorted(fleet.per_replica_summaries().items())
                },
                "sm_utilization": fleet.sm_utilization(),
                "bandwidth_utilization": fleet.bandwidth_utilization(),
                "bubble_ratio": [
                    r.system.engine.bubble_ratio()
                    for r in fleet.replicas
                    if hasattr(r.system, "engine")
                ],
                "router": fleet.router.conservation(),
            }
        )
        self.events = sim.processed_events
        self.peak_event_queue = sim.max_event_queue
        self.streams = [sink.records for sink in self.sinks]


def _fleet_both(factory, workload, config) -> tuple[_FleetRun, _FleetRun]:
    """Run a fleet fast and scalar; the two must agree byte for byte."""
    with fastpath.enabled():
        fast = _FleetRun(factory, workload, config)
    with fastpath.disabled():
        scalar = _FleetRun(factory, workload, config)
    assert fast.digest == scalar.digest
    assert fast.events == scalar.events
    assert fast.peak_event_queue == scalar.peak_event_queue
    assert sum(len(stream) for stream in fast.streams) > 100
    assert fast.streams == scalar.streams
    assert fast.counters["chains_elided"] > 0
    assert scalar.counters["chains_elided"] == 0
    # The stretches replace scheduled events; the fired count is charged.
    assert fast.counters["pushes"] < scalar.counters["pushes"]
    return fast, scalar


AFFINITY = FleetConfig(replicas=4, policy="prefix-affinity")


def test_single_muxwise_replica_matches_scalar():
    runs = {}
    for on in (True, False):
        with fastpath.enabled() if on else fastpath.disabled():
            with collect_counters() as counters:
                tapped = _StreamedRun(_muxwise)
        runs[on] = (tapped, WorkCounters.total(counters))
    (fast, fast_counters), (scalar, _) = runs[True], runs[False]
    assert fast.result.summary.as_dict() == scalar.result.summary.as_dict()
    # Events and the queue high-water mark, utilisations and extras.
    assert fast.result.stats == scalar.result.stats
    assert fast.result.sm_utilization == scalar.result.sm_utilization
    assert fast.result.bandwidth_utilization == scalar.result.bandwidth_utilization
    assert fast.result.extras == scalar.result.extras
    assert len(fast.sink.records) > 100
    assert fast.sink.records == scalar.sink.records
    assert fast_counters["chains_elided"] > 0


def test_muxwise_fleet_stretches_past_other_replicas():
    fast, _ = _fleet_both(_muxwise, sharegpt_workload(80, rate=6.0, seed=13), AFFINITY)
    # Replicas were isolated when their stretches were planned.
    assert fast.isolation[True] > 0


def test_chunked_fleet_matches_scalar():
    fast, _ = _fleet_both(_chunked, sharegpt_workload(120, rate=12.0, seed=13), AFFINITY)
    assert fast.isolation[True] > 0


def test_held_session_follower_falls_back():
    # Multi-turn sessions: the router holds each later turn until the
    # previous one completes, so stretches must fall back to the fleet-wide
    # queue head while a follower is held.
    workload = conversation_workload(
        12, 3.0, seed=5, turn_decode_estimate=0.0, think_time_mean=0.05
    )
    fast, _ = _fleet_both(_muxwise, workload, AFFINITY)
    assert fast.isolation[False] > 0 and fast.isolation[True] > 0


def test_admission_queueing_falls_back():
    config = FleetConfig(
        replicas=4,
        policy="least-outstanding",
        admission=AdmissionConfig(max_outstanding_per_replica=2, mode="queue"),
    )
    fast, _ = _fleet_both(_chunked, sharegpt_workload(120, rate=12.0, seed=13), config)
    assert fast.fleet.router.requests_queued > 0
    assert fast.isolation[False] > 0


def test_cross_scope_schedule_into_a_pending_stretch_raises(monkeypatch):
    """Another replica's event reaching a replica inside its stretch is a
    broken isolation promise, and must fail loudly, not silently diverge."""
    planted = []
    begin = Simulator.begin_stretch

    def begin_and_plant(sim, end, callback, footprint=None):
        event = begin(sim, end, callback, footprint)
        victim = sim.current_scope
        if planted or victim is None:
            return event
        others = [
            r.scope
            for r in fleet_box[0].replicas
            if r.scope != victim and r.scope not in sim._stretch_ends
        ]
        if others:
            planted.append((victim, end))
            # From another replica's scope, reach into the stretch.
            sim.schedule_at(
                sim.now,
                lambda: sim.schedule_at(end, lambda: None, scope=victim),
                scope=others[0],
            )
        return event

    fleet_box = []
    monkeypatch.setattr(Simulator, "begin_stretch", begin_and_plant)
    with fastpath.enabled(), pytest.raises(SimulationError) as raised:
        _FleetRun(
            _muxwise,
            sharegpt_workload(40, rate=6.0, seed=13),
            AFFINITY,
            plant=lambda sim, fleet: fleet_box.append(fleet),
        )
    victim, end = planted[0]
    message = str(raised.value)
    assert repr(victim) in message and f"{end:.9f}" in message


# --------------------------------------------------------------------- #
# Co-run stretches: decode iterations beside prefill layer groups
# --------------------------------------------------------------------- #


def _single_both(make_server, workload, n_gpus=1, slo=None):
    """Run one system fast and scalar; the two must agree byte for byte.

    Returns the fast run's work counters.
    """
    runs = {}
    for on in (True, False):
        sink = ListSink()

        def factory(sim, cfg):
            server = make_server(sim, cfg)
            server.metrics.sink = sink
            return server

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=n_gpus, slo=slo)
        with fastpath.enabled() if on else fastpath.disabled():
            with collect_counters() as counters:
                result = run_system(factory, cfg, workload)
        runs[on] = (result, sink.records, WorkCounters.total(counters))
    (fast, fast_stream, fast_counters), (scalar, scalar_stream, _) = runs[True], runs[False]
    assert fast.summary.as_dict() == scalar.summary.as_dict()
    # Events and the queue high-water mark, utilisations and extras.
    assert fast.stats == scalar.stats
    assert fast.sm_utilization == scalar.sm_utilization
    assert fast.bandwidth_utilization == scalar.bandwidth_utilization
    assert fast.extras == scalar.extras
    assert len(fast_stream) > 100
    assert fast_stream == scalar_stream
    return fast_counters


def _rag(requests: int):
    return poissonized(rag_workload(requests, 3.0, seed=0), 3.0, seed=0)


def test_corun_single_replica_matches_scalar():
    counters = _single_both(_muxwise, _rag(60))
    assert counters["corun_stretches"] > 0


def test_corun_partition_growth_matches_scalar():
    """A tight TBT SLO moves the decode partition (16 to 96 SMs) as the
    batch's context grows, so co-run stretches must stop before an
    iteration whose partition differs from the current one."""
    counters = _single_both(_muxwise, _rag(60), slo=SLO(tbt=0.018))
    assert counters["corun_stretches"] > 0
    assert counters["corun_bail_partition"] > 0


def test_corun_fleet_matches_scalar():
    fast, _ = _fleet_both(_muxwise, _rag(120), AFFINITY)
    assert fast.counters["corun_stretches"] > 0
    assert fast.isolation[True] > 0


def test_corun_preemption_setup_matches_scalar():
    """Fig. 20: short prefills preempt a long one at a layer boundary; a
    job with a preemption requested or pending never joins a stretch."""
    from repro.bench.figures import FIG20_CFG

    def preempting(sim, cfg):
        return MuxWiseServer(sim, FIG20_CFG, preemption=True)

    counters = _single_both(preempting, mixed_workload(40, rate=0.25, seed=200))
    assert counters["corun_stretches"] > 0


@pytest.mark.parametrize("ablation", ["layerwise", "query_sync"])
def test_corun_ablations_bail_and_match(ablation):
    def ablated(sim, cfg):
        return MuxWiseServer(sim, cfg, **{ablation: False})

    counters = _single_both(ablated, _rag(40))
    assert counters["corun_stretches"] == 0
    assert counters["corun_bail_state"] > 0


def test_corun_two_gpu_replica_matches_scalar():
    # Two GPUs: every prefill group ends in a serialized all-reduce tail,
    # so stretches start with a group's completion pending.
    counters = _single_both(_muxwise, _rag(40), n_gpus=2)
    assert counters["corun_stretches"] > 0


def test_cross_scope_schedule_into_a_corun_stretch_raises(monkeypatch):
    planted = []
    begin = Simulator.begin_stretch

    def begin_and_plant(sim, end, callback, footprint=None):
        event = begin(sim, end, callback, footprint)
        victim = sim.current_scope
        if planted or victim is None or footprint is None:
            return event
        others = [r.scope for r in fleet_box[0].replicas if r.scope != victim]
        planted.append((victim, end))
        sim.schedule_at(
            sim.now,
            lambda: sim.schedule_at(end, lambda: None, scope=victim),
            scope=others[0],
        )
        return event

    fleet_box = []
    monkeypatch.setattr(Simulator, "begin_stretch", begin_and_plant)
    with fastpath.enabled(), pytest.raises(SimulationError) as raised:
        _FleetRun(
            _muxwise, _rag(120), AFFINITY, plant=lambda sim, fleet: fleet_box.append(fleet)
        )
    victim, end = planted[0]
    message = str(raised.value)
    assert repr(victim) in message and f"{end:.9f}" in message


class _Compactions:
    """Counts heap compactions, and those made while a stretch footprint
    was pending (the scalar heap's cancelled entries include the plan's)."""

    def __init__(self, monkeypatch):
        self.total = self.inside = 0
        compact = Simulator._compact

        def counted(sim):
            self.total += 1
            self.inside += bool(sim._footprints)
            compact(sim)

        monkeypatch.setattr(Simulator, "_compact", counted)


def _plant_cancelled(count: int):
    """Fill the heap with ``count`` cancelled far-future entries, so that a
    compaction comes due while the run drains its arrivals."""

    def plant(sim, *_):
        for _ in range(count):
            sim.schedule_at(1e9, lambda: None, daemon=True, scope=None).cancel()

    return plant


@pytest.mark.parametrize("cancelled", [40, 44, 48])
def test_compaction_inside_corun_stretches_matches_scalar(cancelled, monkeypatch):
    compactions = _Compactions(monkeypatch)
    runs = []
    for on in (True, False):
        with fastpath.enabled() if on else fastpath.disabled():
            runs.append(_FleetRun(_muxwise, _rag(100), AFFINITY, plant=_plant_cancelled(cancelled)))
    fast, scalar = runs
    assert fast.digest == scalar.digest
    assert (fast.events, fast.peak_event_queue) == (scalar.events, scalar.peak_event_queue)
    assert fast.streams == scalar.streams
    assert fast.counters["corun_stretches"] > 0
    assert compactions.total >= 2


def test_some_compaction_lands_inside_a_stretch(monkeypatch):
    compactions = _Compactions(monkeypatch)
    with fastpath.enabled():
        for cancelled in (40, 44, 48):
            _FleetRun(_muxwise, _rag(100), AFFINITY, plant=_plant_cancelled(cancelled))
    assert compactions.inside > 0
