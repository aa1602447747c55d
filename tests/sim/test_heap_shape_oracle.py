"""Oracle: results do not depend on the shape of the event heap.

The heap fires events in ``(time, priority, seq)`` order whatever else it
holds, and a compaction only drops cancelled entries, so what a run
computes must not depend on when the heap compacts or on how many dead
entries it carries.  Every ``repro perf`` scenario and the 4-replica RAG
co-run fleet run here with ``Simulator.COMPACT_MIN_SIZE`` at 8, 64 and
2**30, with cancelled far-future entries preloaded into every simulator,
and with the fast path on and off: the result digest and the fired-event
count must equal those of the default run.  (The heap's high-water
mark moves with compaction by construction, so it must not be a result.)

Hypothesis draws the variants; the explicit examples pin the extremes.
The example budget follows the Hypothesis profile (one drawn example per
case by default, ten under ``--hypothesis-profile=ci-deep``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.fleet import run_fleet
from repro.bench.perf import SCENARIOS, _digest
from repro.cluster import FleetConfig
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.sim import Simulator, fastpath
from repro.workloads import poissonized, rag_workload

#: The perf goldens' scale: every scenario batches, caches and faults.
SCALE = 0.05

COMPACT_SIZES = (8, 64, 2**30)

#: Drawn examples per case: one by default, ten under ``ci-deep``.
EXAMPLES = max(1, settings.default.max_examples // 100)


def _corun_fleet(_scale: float):
    """The 4-replica RAG co-run fleet of ``tests/core/test_corun_golden.py``."""
    cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    workload = poissonized(rag_workload(120, 3.0, seed=0), 3.0, seed=0)
    result = run_fleet(
        MuxWiseServer, cfg, workload, FleetConfig(replicas=4, policy="prefix-affinity")
    )
    payload = {
        "summary": result.summary.as_dict(),
        "per_replica": {n: s.as_dict() for n, s in sorted(result.per_replica.items())},
        "cache_hit_rate": result.cache_hit_rate,
        "sm_utilization": result.sm_utilization,
        "bandwidth_utilization": result.bandwidth_utilization,
        "router_decisions": result.router_decisions,
        "extras": result.extras,
    }
    return payload, result.extras


RUNS = {**SCENARIOS, "corun_fleet": _corun_fleet}


class _Shape:
    """What the heap did during one run."""

    compactions = 0


@contextmanager
def heap_shape(compact_min_size: int, preload: int) -> Iterator[_Shape]:
    """Run the block with every new simulator compacting at
    ``compact_min_size`` and starting with ``preload`` cancelled entries."""
    shape = _Shape()
    init = Simulator.__init__
    compact = Simulator._compact
    size = Simulator.COMPACT_MIN_SIZE

    def preloaded_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        for _ in range(preload):
            sim.schedule_at(1e9, lambda: None, daemon=True, scope=None).cancel()

    def counted_compact(sim):
        shape.compactions += 1
        compact(sim)

    Simulator.__init__ = preloaded_init
    Simulator._compact = counted_compact
    Simulator.COMPACT_MIN_SIZE = compact_min_size
    try:
        yield shape
    finally:
        Simulator.__init__ = init
        Simulator._compact = compact
        Simulator.COMPACT_MIN_SIZE = size


def _result(name: str, fast: bool) -> tuple[str, int]:
    """The digest of run ``name``'s result payload and its fired events."""
    with fastpath.enabled() if fast else fastpath.disabled():
        payload, extras = RUNS[name](SCALE)
    return _digest(payload), int(extras["events_processed"])


_reference: dict[str, tuple[str, int]] = {}


def _plain(name: str) -> tuple[str, int]:
    """The default run (fast path, default heap), computed once per name."""
    if name not in _reference:
        _reference[name] = _result(name, fast=True)
    return _reference[name]


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(
    compact_min_size=st.sampled_from(COMPACT_SIZES),
    preload=st.integers(min_value=0, max_value=64),
    fast=st.booleans(),
)
@example(compact_min_size=8, preload=44, fast=True)
@example(compact_min_size=2**30, preload=44, fast=False)
def test_results_do_not_depend_on_heap_shape(name, compact_min_size, preload, fast):
    expected = _plain(name)
    with heap_shape(compact_min_size, preload) as shape:
        observed = _result(name, fast)
    assert observed == expected
    if compact_min_size <= preload:
        # Non-vacuous: the preloaded entries alone force a compaction.
        assert shape.compactions > 0
