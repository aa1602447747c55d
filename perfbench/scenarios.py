"""The benchmark's workloads and the one simulation run each makes.

Every workload is Llama-8B on 1xA100 replicas (the cheapest deployment to
simulate) under open-loop Poisson arrivals.  The two workloads are chosen
so that each layer of the simulator is exercised by one of them and
bypassed by the other (see README.md for the prediction table).

Only the public API is used: ``repro.sim.make_sim``, the server factories,
``repro.cluster.Fleet``, the workload generators and
``ServingSystem.add_completion_listener``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

from repro.baselines import ChunkedPrefillServer
from repro.cluster import Fleet, FleetConfig
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.base import ServingSystem, iter_instances
from repro.serving.config import ServingConfig
from repro.serving.metrics import percentile
from repro.sim import make_sim
from repro.workloads import poissonized, rag_workload, sharegpt_workload
from repro.workloads.request import Workload

#: Simulated time allowed after the last arrival before a run is cut; the
#: same horizon ``repro.bench.runner`` uses.
DRAIN_HORIZON = 3600.0
#: Guard against a scheduling bug spinning forever.
MAX_EVENTS = 20_000_000
#: Every workload must send this many requests, so P99 has at least ten
#: samples beyond it.
MIN_REQUESTS = 1000
#: The RAG corpus and retrievals are fixed; the seed re-times arrivals.  A
#: handful of Zipf-popular documents dominate every request, so a fresh
#: corpus per seed moves the fleet's TTFT median by up to 3x.
RAG_TRACE_SEED = 0


def _chunked(sim, cfg):
    return ChunkedPrefillServer(sim, cfg, token_budget=256)


@dataclass(frozen=True)
class Scenario:
    """One workload: the serving system, its fleet shape and its trace.

    A run simulates ``traces`` traces from different seeds; the simulated
    metrics are medians over them, because one trace's tail holds too few
    requests to be steady from seed to seed.
    """

    factory: Callable
    replicas: int
    generate: Callable[[int], Workload]
    traces: int


#: The benchmark's workloads; README.md says why each was chosen.  Every
#: rate keeps the servers below saturation, where queueing tails would
#: swing from seed to seed.  A chunked trace simulates in about 2 s, so a
#: 50 s run simulates each of its four traces three to five times; a fleet
#: trace takes 9-11 s, so each of its four runs once.
SCENARIOS: dict[str, Scenario] = {
    "chunked_sharegpt_long": Scenario(
        factory=_chunked,
        replicas=1,
        generate=lambda seed: sharegpt_workload(2000, 6.0, seed=seed),
        traces=4,
    ),
    "fleet4_rag_affinity": Scenario(
        factory=MuxWiseServer,
        replicas=4,
        generate=lambda seed: poissonized(
            rag_workload(1000, 3.0, seed=RAG_TRACE_SEED), 3.0, seed=seed
        ),
        traces=4,
    ),
}


def _jsonable(value):
    """Map NaN/inf floats to None so the digest is strict JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def digest(payload) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    canon = json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class Run:
    """A built, not yet started simulation of one scenario.

    ``fleet`` is None for single-replica scenarios, which drive the
    serving system directly so that the cluster layer does no work.
    """

    def __init__(self, scenario: Scenario, workload: Workload) -> None:
        self.workload = workload
        self.sim = make_sim()
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        self.slo = cfg.slo
        if scenario.replicas == 1:
            self.fleet = None
            self.systems: list[ServingSystem] = [scenario.factory(self.sim, cfg)]
            self.systems[0].submit(workload)
        else:
            self.fleet = Fleet(
                self.sim,
                scenario.factory,
                cfg,
                FleetConfig(replicas=scenario.replicas, policy="prefix-affinity"),
            )
            self.systems = [replica.system for replica in self.fleet.replicas]
            self.fleet.submit(workload)
        #: Wall-clock stamp of every finished request, in completion order.
        self.completion_stamps: list[float] = []
        #: Requests each system retired without finishing them.
        self.dropped = [0] * len(self.systems)
        self.finished = [0] * len(self.systems)
        for index, system in enumerate(self.systems):
            system.add_completion_listener(
                lambda state, i=index: self._on_completion(i, state)
            )
        self.run_start = 0.0
        self.wall_s = 0.0

    def _on_completion(self, index: int, state) -> None:
        if state.record.finished:
            self.finished[index] += 1
            self.completion_stamps.append(time.perf_counter())
        else:
            self.dropped[index] += 1

    def run(self) -> None:
        """Run the simulation to drain and time it."""
        last_arrival = self.workload.requests[-1].arrival_time
        self.run_start = time.perf_counter()
        self.sim.run(until=last_arrival + DRAIN_HORIZON, max_events=MAX_EVENTS)
        self.wall_s = time.perf_counter() - self.run_start

    # ------------------------------------------------------------------ #
    # Results (read after run)
    # ------------------------------------------------------------------ #

    def records(self):
        """Every request record across the systems."""
        for system in self.systems:
            yield from system.metrics.records.values()

    @cached_property
    def summary(self):
        """The fleet-merged (or the single system's) summary."""
        if self.fleet is not None:
            return self.fleet.summarize()
        return self.systems[0].metrics.summarize()

    def result_payload(self) -> dict:
        """What the simulation computed: the digest's input."""
        if self.fleet is not None:
            per_replica = {
                name: s.as_dict()
                for name, s in sorted(self.fleet.per_replica_summaries().items())
            }
        else:
            per_replica = {}
        return {
            "summary": self.summary.as_dict(),
            "per_replica": per_replica,
            "cache": [
                asdict(inst.cache.stats)
                for system in self.systems
                for inst in iter_instances(system)
            ],
            "events": self.sim.processed_events,
            "peak_event_queue": self.sim.max_event_queue,
        }

    def slo_attainment(self) -> float:
        """Share of sent requests that finished within both SLO targets.

        A request attains when it finished, its TTFT is within
        ``SLO.ttft_target(input_tokens)`` and its own P99 TBT is within
        ``SLO.tbt``; failures count as misses.
        """
        good = 0
        for record in self.records():
            if not record.finished:
                continue
            if record.ttft > self.slo.ttft_target(record.request.input_tokens):
                continue
            if record.token_gaps and percentile(record.token_gaps, 99.0) > self.slo.tbt:
                continue
            good += 1
        return good / len(self.workload)

    def quarter_walls(self) -> list[float]:
        """Wall-clock of the first and of the last quarter of completions.

        With ``n`` completions and ``q = n // 4``: from the run's start to
        completion ``q``, and from completion ``n - q`` to the last one.
        """
        stamps = self.completion_stamps
        quarter = len(stamps) // 4
        if quarter < 1:
            return [math.nan, math.nan]
        return [stamps[quarter - 1] - self.run_start, stamps[-1] - stamps[-1 - quarter]]

    def conservation_errors(self) -> list[str]:
        """Request-conservation violations, per replica and fleet-wide.

        At drain, finished + failed must equal sent, where failed is the
        requests a system dropped, the router shed or lost, or that are
        still unfinished.  Finishes and drops are counted twice, from the
        metrics records and from the completion listeners, and must agree.
        """
        errors: list[str] = []
        finished = dropped = unfinished = 0
        for index, system in enumerate(self.systems):
            records = system.metrics.records.values()
            done = sum(1 for r in records if r.finished)
            rest = len(records) - done - self.dropped[index]
            if done != self.finished[index]:
                errors.append(
                    f"replica {index}: {done} finished records but "
                    f"{self.finished[index]} finish notifications"
                )
            if rest < 0:
                errors.append(f"replica {index}: more drops than unfinished records")
            if self.fleet is not None:
                dispatched = self.fleet.replicas[index].dispatched
                if dispatched != len(records):
                    errors.append(
                        f"replica {index}: {dispatched} dispatched, {len(records)} arrived"
                    )
            finished += done
            dropped += self.dropped[index]
            unfinished += rest
        shed_lost = 0
        if self.fleet is not None:
            ledger = self.fleet.router.conservation()
            shed_lost = ledger["shed"] + ledger["lost"]
            if ledger["arrivals"] != len(self.workload):
                errors.append(f"router saw {ledger['arrivals']} arrivals")
            if ledger["completed"] != finished or ledger["dropped"] != dropped:
                errors.append(f"router ledger {ledger} disagrees with the replicas")
            if ledger["queued_now"] or ledger["held_now"]:
                errors.append(f"router still holds requests: {ledger}")
        failed = dropped + unfinished + shed_lost
        if finished + failed != len(self.workload):
            errors.append(
                f"finished {finished} + failed {failed} != sent {len(self.workload)}"
            )
        if self.summary.requests_finished != finished:
            errors.append("summary disagrees with the finished records")
        return errors
