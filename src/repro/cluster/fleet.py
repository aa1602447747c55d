"""Multi-replica fleet: N serving systems behind one router, one simulator.

A :class:`Fleet` stands up ``replicas`` independent copies of any serving
system (MuxWise or a baseline) inside one shared
:class:`~repro.sim.Simulator`.  Each replica owns its GPUs, KV cache and
metrics exactly as in a single-server run — the per-replica model stays the
one validated by the paper benchmarks — and a front-end
:class:`~repro.cluster.router.Router` spreads arrivals across them, with
optional admission control and autoscaling.

Fleet-level metrics are the *merge* of per-replica collectors
(:func:`repro.serving.metrics.merge_collectors`): request counts add, and
percentiles are computed over the pooled per-request samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.cluster.admission import AdmissionConfig, AdmissionController
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.health import HealthConfig, HealthMonitor, RetryPolicy
from repro.cluster.router import (
    NETWORK_LATENCY,
    ROUTER_OVERHEAD,
    IngressFilter,
    Router,
    RoutingPolicy,
    make_policy,
)
from repro.gpu.specs import SPECS_BY_NAME, GPUSpec
from repro.kvcache.radix import Segment
from repro.kvcache.tiers import TieredKVStore
from repro.kvcache.transfer import TransferConfig, TransferEngine
from repro.serving.base import ServingSystem, iter_instances
from repro.serving.config import ServingConfig
from repro.serving.metrics import MetricsCollector, Summary, merge_collectors
from repro.sim import Simulator
from repro.trace.tracer import CAT_FAULT, CAT_ROUTER
from repro.workloads.request import Request, Workload

SystemFactory = Callable[[Simulator, ServingConfig], ServingSystem]

#: Trace track sampling the fleet's replica count.
FLEET_TRACK = "fleet/replicas"


def resolve_sku(sku: "GPUSpec | str") -> GPUSpec:
    """A :class:`GPUSpec` from a spec instance or a registry name."""
    if isinstance(sku, GPUSpec):
        return sku
    try:
        return SPECS_BY_NAME[sku]
    except KeyError:
        raise ValueError(f"unknown GPU SKU {sku!r}; choose from {sorted(SPECS_BY_NAME)}")


def _normalize_skus(
    skus: "Sequence[GPUSpec | str] | Mapping[GPUSpec | str, int]",
) -> tuple[GPUSpec, ...]:
    """Flatten a per-replica SKU list or a ``{sku: count}`` map.

    Map insertion order is preserved (replica ``r0`` gets the first SKU's
    first slot), so the same literal always yields the same placement.
    """
    if isinstance(skus, Mapping):
        flat: list[GPUSpec] = []
        for sku, count in skus.items():
            if count < 1:
                raise ValueError(f"SKU count must be >= 1, got {count} for {sku!r}")
            flat.extend([resolve_sku(sku)] * count)
    else:
        flat = [resolve_sku(sku) for sku in skus]
    if not flat:
        raise ValueError("skus must provision at least one replica")
    return tuple(flat)


@dataclass
class FleetConfig:
    """Shape of one fleet deployment.

    Attributes:
        replicas: Replicas provisioned at start.
        policy: Routing policy name (see
            :data:`repro.cluster.router.POLICIES`) or an instance.
        router_overhead: Modelled routing-decision latency (seconds).
        network_latency: Modelled router-to-replica transfer (seconds).
        admission: Admission-control settings (None disables admission:
            every arrival is dispatched immediately).  A pre-built
            :class:`~repro.cluster.admission.AdmissionController` instance
            is used as-is — tenant-aware deployments pass a
            :class:`~repro.tenancy.admission.TieredAdmissionController`.
        autoscaler: Autoscaler settings (None keeps the replica count
            fixed).
        retry: Router delivery-retry/backoff policy (also bounds how often
            one request survives replica failovers).
        health: Health-watchdog settings (None disables hang detection —
            crash faults are still handled, but a stalled replica is only
            noticed if something else fails it).
        ingress: Front-door filter applied before routing (e.g. a
            :class:`~repro.tenancy.ratelimit.TenantRateLimiter`); None
            admits everything.
        transfer: Cross-replica KV interconnect model (see
            :mod:`repro.kvcache.transfer`).  When set, the router's
            dispatch path may fetch a request's prefix from a
            better-matching replica into the target before delivery,
            making prefix affinity fleet-wide.  ``None`` (the default)
            disables every cross-replica branch — byte-identical routing.
        skus: Mixed-SKU fleet shape: a per-replica GPU list (specs or
            registry names, e.g. ``["H200-SXM5-141GB", "L40S-48GB"]``) or
            a ``{sku: count}`` map.  When set it *overrides* ``replicas``
            (one replica per entry) and each replica's serving system is
            built with its own GPU spec — everything else of the base
            :class:`~repro.serving.config.ServingConfig` is shared.
            ``None`` (the default) keeps the historical homogeneous fleet:
            every replica runs the base config's spec, byte-identically.
    """

    replicas: int = 2
    policy: str | RoutingPolicy = "round-robin"
    router_overhead: float = ROUTER_OVERHEAD
    network_latency: float = NETWORK_LATENCY
    admission: AdmissionConfig | AdmissionController | None = None
    autoscaler: AutoscalerConfig | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    health: HealthConfig | None = None
    ingress: IngressFilter | None = None
    transfer: TransferConfig | None = None
    skus: "Sequence[GPUSpec | str] | Mapping[GPUSpec | str, int] | None" = None

    def __post_init__(self) -> None:
        if self.skus is not None:
            self.skus = _normalize_skus(self.skus)
            self.replicas = len(self.skus)
        if self.replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        if self.router_overhead < 0 or self.network_latency < 0:
            raise ValueError("latencies must be non-negative")


@dataclass
class Replica:
    """One serving system inside the fleet, plus router-side bookkeeping."""

    index: int
    name: str
    system: ServingSystem
    created_at: float = 0.0
    outstanding: int = 0
    dispatched: int = 0
    draining: bool = False
    #: Dead: KV cache and in-flight work lost; not routable until restarted.
    failed: bool = False
    #: Incremented on every restart — scopes a generation's event cascade.
    generation: int = 0
    #: Simulated time a scheduled restart will complete (None: none pending).
    restart_at: float | None = None
    #: Requests dispatched here and not yet completed, by request id.  The
    #: router's source of truth for what a failover must re-dispatch.
    inflight: dict[int, Request] = field(default_factory=dict)
    #: Whether this replica's HBM KV cache holds anything worth reusing.
    #: Set when a request completes here; cleared by a kill (the cache
    #: died with the generation).  The autoscaler's reactivation path
    #: prefers warm replicas — but only genuinely warm ones.
    kv_warm: bool = False
    #: DRAM/NVMe spill store owned by this replica *slot*.  Survives kills
    #: and restarts: a new generation re-attaches the same store, which is
    #: what makes failover restore (rather than recompute) prefixes.
    tier_store: TieredKVStore | None = None
    #: The serving config this slot's systems are built from.  In a
    #: mixed-SKU fleet each slot carries its own spec; restarts rebuild
    #: from this config, so a slot never changes SKU across generations.
    cfg: ServingConfig | None = None
    #: Seconds this slot has been alive (not failed) in *completed* alive
    #: stretches; the open stretch is tracked by ``active_since``.  The
    #: cost ledger integrates billable replica-time from these.
    active_seconds: float = 0.0
    #: Start of the current alive stretch (None while failed).
    active_since: float | None = 0.0

    @property
    def spec(self) -> GPUSpec:
        """The GPU SKU this slot is provisioned with."""
        assert self.cfg is not None, "replica built outside a Fleet has no config"
        return self.cfg.spec

    def note_failed(self, now: float) -> None:
        """Close the open alive stretch (the slot stops billing)."""
        if self.active_since is not None:
            self.active_seconds += now - self.active_since
            self.active_since = None

    def note_restored(self, now: float) -> None:
        """Open a new alive stretch (the slot bills again)."""
        if self.active_since is None:
            self.active_since = now

    def uptime(self, now: float) -> float:
        """Total alive (billable) seconds of this slot up to ``now``."""
        up = self.active_seconds
        if self.active_since is not None:
            up += now - self.active_since
        return up

    @property
    def scope(self) -> str:
        """Failure-domain tag of this replica's current generation.

        Every event the replica's serving system schedules inherits this
        scope, so killing the replica is one
        :meth:`~repro.sim.Simulator.cancel_scope` call — the whole cascade
        (device updates, decode iterations, in-transit deliveries) dies
        atomically with it.
        """
        return f"replica/{self.name}/g{self.generation}"

    @property
    def routable(self) -> bool:
        """Whether the router may send new work here."""
        return not self.draining and not self.failed

    @property
    def drained(self) -> bool:
        """Draining and idle: safe to deprovision."""
        return self.draining and self.outstanding == 0

    @property
    def responsive(self) -> bool:
        """Not failed and no instance device stalled.

        What a route-time liveness probe can observe *right now*, without
        waiting for the health monitor's miss threshold.  A stalled device
        is indistinguishable from a hung replica at probe time, so both
        count as unresponsive.
        """
        if self.failed:
            return False
        return not any(inst.device.stalled for inst in iter_instances(self.system))

    def prefix_match_tokens(self, path: list[Segment]) -> int:
        """Most tokens of ``path`` cached in HBM by any instance here."""
        counts = [inst.cache.match(path) for inst in iter_instances(self.system)]
        return max(counts) if counts else 0

    def kv_utilization(self) -> float:
        """Pool pressure: utilisation of the replica's fullest KV pool."""
        utils = [inst.cache.pool.utilization() for inst in iter_instances(self.system)]
        return max(utils) if utils else 0.0

    def prefix_affinity(self, path: list[Segment]) -> float:
        """Best cached-prefix coverage of ``path`` across instances."""
        scores = [inst.cache.prefix_affinity(path) for inst in iter_instances(self.system)]
        return max(scores) if scores else 0.0

    def cache_counts(self) -> tuple[int, int]:
        """(tokens hit, tokens requested) summed over instances."""
        hits = requested = 0
        for inst in iter_instances(self.system):
            hits += inst.cache.stats.tokens_hit
            requested += inst.cache.stats.tokens_requested
        return hits, requested


class Fleet:
    """N replicas of one serving system behind a policy-driven router."""

    def __init__(
        self,
        sim: Simulator,
        factory: SystemFactory,
        cfg: ServingConfig,
        config: FleetConfig | None = None,
    ) -> None:
        self.sim = sim
        self.factory = factory
        self.base_cfg = cfg
        self.config = config or FleetConfig()
        self.replicas: list[Replica] = []
        #: Metrics of dead generations — merged into fleet summaries so the
        #: requests a replica finished before dying still count.
        self._retired_collectors: list[MetricsCollector] = []
        self.failures = 0
        self.restarts = 0
        self.autoscaler: Autoscaler | None = None
        #: Cross-replica KV interconnect, shared by the whole fleet.
        self.transfer: TransferEngine | None = (
            TransferEngine(self.config.transfer, cfg.model.kv_bytes_per_token)
            if self.config.transfer is not None
            else None
        )
        if self.config.admission is None:
            self.admission = None
        elif isinstance(self.config.admission, AdmissionController):
            self.admission = self.config.admission
        else:
            self.admission = AdmissionController(self.config.admission)
        self.router = Router(
            sim,
            self,
            make_policy(self.config.policy),
            admission=self.admission,
            overhead=self.config.router_overhead,
            network_latency=self.config.network_latency,
            retry=self.config.retry,
            ingress=self.config.ingress,
        )
        for index in range(self.config.replicas):
            self.add_replica(
                spec=self.config.skus[index] if self.config.skus is not None else None
            )
        if self.config.autoscaler is not None:
            self.autoscaler = Autoscaler(sim, self, self.config.autoscaler)
        self.health = (
            HealthMonitor(sim, self, self.config.health)
            if self.config.health is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def add_replica(self, spec: GPUSpec | None = None) -> Replica:
        """Provision one more replica (usable immediately).

        ``spec`` overrides the base config's GPU SKU for this slot (mixed
        fleets and SKU-aware autoscaling); ``None`` keeps the base SKU.
        """
        index = len(self.replicas)
        name = f"r{index}"
        cfg = replace(
            self.base_cfg,
            name_prefix=f"{self.base_cfg.name_prefix}r{index}/",
            **({} if spec is None else {"spec": spec}),
        )
        with self.sim.scope(f"replica/{name}/g0"):
            system = self.factory(self.sim, cfg)
        replica = Replica(
            index=index,
            name=name,
            system=system,
            created_at=self.sim.now,
            cfg=cfg,
            active_since=self.sim.now,
        )
        if cfg.kv_tiers is not None:
            replica.tier_store = TieredKVStore(
                cfg.kv_tiers,
                cfg.model.kv_bytes_per_token,
                sim=self.sim,
                name=name,
            )
            system.attach_tiers(replica.tier_store)
        system.add_completion_listener(
            lambda state, rep=replica: self.router.on_completion(rep, state)
        )
        self.replicas.append(replica)
        self._trace_size()
        # New capacity may unblock work parked while the fleet was dark.
        self.router._drain_queue()
        return replica

    def scale_up(self, max_replicas: int, spec: GPUSpec | None = None) -> Replica | None:
        """Add capacity: reactivate a draining replica (warm cache) or
        provision a new one while under the ``max_replicas`` budget.

        ``spec`` is the SKU a *newly provisioned* replica gets (SKU-aware
        autoscaling picks the cheapest feasible one); reactivation keeps
        the draining replica's own SKU — its warm cache outweighs a
        cheaper cold slot.
        """
        # Prefer a replica whose cache is actually warm: a drained replica
        # that was killed and restarted while parked holds nothing (the
        # kill cleared kv_warm), so it ranks behind genuinely warm peers.
        candidates = [r for r in self.replicas if r.draining and not r.failed]
        for replica in sorted(candidates, key=lambda r: not r.kv_warm):
            replica.draining = False
            self._trace_size()
            return replica
        # Budget counts *live* replicas: corpses awaiting no restart do not
        # consume capacity the fleet can no longer use.
        if self.alive_count() >= max_replicas:
            return None
        return self.add_replica(spec=spec)

    def drain_one(self) -> Replica | None:
        """Start draining one routable replica (if more than one remains).

        The victim is the least-loaded replica; among equally idle ones
        the *most expensive* SKU retires first — scaling down should shed
        dollars, not just capacity.  Homogeneous fleets (equal prices)
        keep the historical highest-index tie-break byte-identically.
        """
        candidates = [r for r in self.replicas if r.routable]
        if len(candidates) <= 1:
            return None
        victim = min(
            candidates,
            key=lambda r: (r.outstanding, -r.cfg.hourly_cost, -r.index),
        )
        victim.draining = True
        self._trace_size()
        return victim

    def routable_replicas(self) -> list[Replica]:
        """Replicas accepting new work, in index order."""
        return [r for r in self.replicas if r.routable]

    def alive_count(self) -> int:
        """Replicas not currently failed (routable or draining)."""
        return sum(1 for r in self.replicas if not r.failed)

    # ------------------------------------------------------------------ #
    # Faults and recovery
    # ------------------------------------------------------------------ #

    def fail_replica(
        self,
        replica: Replica,
        reason: str = "fault",
        restart_after: float | None = None,
    ) -> None:
        """Kill one replica: its KV cache, in-flight work and pending event
        cascade are lost atomically.

        Cancelling the replica's scope removes every event it would have
        fired (decode iterations, device updates, in-transit deliveries)
        before the router re-dispatches the in-flight requests — nothing of
        the dead generation can run afterwards and corrupt the replacement.
        With ``restart_after`` set, a fresh (cold-cache) system takes over
        the slot after that delay; otherwise the slot stays dead and only
        an autoscaler can replace the capacity.
        """
        if replica.failed:
            return
        replica.failed = True
        # A dead slot stops billing: close its open alive stretch.
        replica.note_failed(self.sim.now)
        # The HBM cache died with the generation: whatever warmth the
        # autoscaler remembered is gone.  (The DRAM/NVMe tier store, if
        # any, survives — that is the point of it — but it is no longer
        # *warm* in the reactivate-without-cost sense.)
        replica.kv_warm = False
        if replica.tier_store is not None:
            replica.tier_store.mark_killed()
        self.failures += 1
        inflight = len(replica.inflight)
        # Mark the pending restart BEFORE failing over: the router decides
        # park-vs-lose from recovery_pending(), and in a fleet whose last
        # replica just died that decision happens inside fail_over().
        if restart_after is not None:
            replica.restart_at = self.sim.now + restart_after
        cancelled = self.sim.cancel_scope(replica.scope)
        redispatched = self.router.fail_over(replica, reason)
        if restart_after is not None:
            # Productive, scope=None: the restart must fire even though the
            # fleet may have no other pending work — it IS the recovery.
            self.sim.schedule(
                restart_after, lambda: self.restart_replica(replica), scope=None
            )
        elif self.autoscaler is not None:
            # No restart is coming, so replacement is the recovery path.
            # The autoscaler's periodic tick is a daemon (it never keeps
            # the simulation alive), so give it one *productive* wake-up —
            # otherwise a fleet whose other work drains first would stop
            # with requests parked forever behind a replacement that the
            # daemon tick never got to provision.
            self.sim.schedule(
                self.autoscaler.config.interval, self._replace_abandoned, scope=None
            )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                FLEET_TRACK,
                "replica-failed",
                CAT_FAULT,
                self.sim.now,
                {
                    "replica": replica.name,
                    "reason": reason,
                    "generation": replica.generation,
                    "inflight": inflight,
                    "events_cancelled": cancelled,
                    "redispatched": redispatched,
                    "restart_after": restart_after,
                },
            )
        self._trace_size()

    def restart_replica(self, replica: Replica) -> Replica:
        """Bring a failed replica back with a fresh serving system.

        The old generation's metrics collector is retired (its finished
        requests still count toward fleet totals — they were delivered) and
        a new system is built under the *next* generation's scope.  The KV
        cache starts cold: every radix-cache prefix the old generation held
        is gone, which is exactly the recovery cost the chaos harness
        measures.
        """
        if not replica.failed:
            return replica
        self._retired_collectors.append(replica.system.metrics)
        replica.generation += 1
        self.restarts += 1
        # Rebuild from the slot's own config, not the base: a mixed-SKU
        # slot keeps its GPU spec across generations (homogeneous fleets
        # see the identical config either way).
        cfg = replace(
            replica.cfg if replica.cfg is not None else self.base_cfg,
            name_prefix=f"{self.base_cfg.name_prefix}r{replica.index}g{replica.generation}/",
        )
        with self.sim.scope(replica.scope):
            system = self.factory(self.sim, cfg)
        if replica.tier_store is not None:
            # The slot's DRAM/NVMe tiers survived the kill: the fresh
            # generation spills into and promotes from the same store,
            # restoring prefixes the dead generation demoted.
            system.attach_tiers(replica.tier_store)
        system.add_completion_listener(
            lambda state, rep=replica: self.router.on_completion(rep, state)
        )
        replica.system = system
        replica.failed = False
        replica.draining = False
        replica.restart_at = None
        replica.created_at = self.sim.now
        replica.note_restored(self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                FLEET_TRACK,
                "replica-restarted",
                CAT_FAULT,
                self.sim.now,
                {"replica": replica.name, "generation": replica.generation},
            )
        self._trace_size()
        self.router._drain_queue()
        return replica

    def _replace_abandoned(self) -> None:
        if self.autoscaler is None:
            return
        replica = self.replace_failed(self.autoscaler.config.max_replicas)
        if replica is not None:
            self.autoscaler.replacements += 1

    def replace_failed(self, max_replicas: int) -> Replica | None:
        """Provision a substitute for a failed replica with no scheduled
        restart (autoscaler path; bypasses scaling cooldown).

        The substitute is like-for-like: it gets the dead slot's SKU, so a
        fleet's SKU mix is stable under churn.  (Homogeneous fleets build
        the identical config either way.)
        """
        abandoned = [r for r in self.replicas if r.failed and r.restart_at is None]
        if not abandoned or self.alive_count() >= max_replicas:
            return None
        dead = abandoned[0]
        return self.add_replica(spec=dead.spec if dead.cfg is not None else None)

    def recovery_pending(self) -> bool:
        """Whether lost capacity will come back without outside help.

        True while any replica has a scheduled restart, or an autoscaler
        holds budget to provision a replacement.  The router uses this to
        decide between *parking* admitted requests (capacity returns) and
        *losing* them (nothing will ever serve them — terminate honestly
        rather than hang).
        """
        if any(r.restart_at is not None for r in self.replicas):
            return True
        if self.autoscaler is not None:
            return self.alive_count() < self.autoscaler.config.max_replicas
        return False

    def degraded(self) -> bool:
        """Any replica currently failed (admission brownout signal)."""
        return any(r.failed for r in self.replicas)

    # ------------------------------------------------------------------ #
    # Load signals
    # ------------------------------------------------------------------ #

    def total_outstanding(self) -> int:
        """In-flight requests across every replica."""
        return sum(r.outstanding for r in self.replicas)

    def scaling_load(self) -> float:
        """Mean backlog per routable replica (router queue included)."""
        routable = max(1, len(self.routable_replicas()))
        return (self.total_outstanding() + len(self.router.queue)) / routable

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #

    def submit(self, workload: Workload) -> None:
        """Schedule every request's arrival at the router."""
        for request in workload:
            self.sim.schedule_at(request.arrival_time, lambda r=request: self.router.route(r))

    def run(self, until: float | None = None) -> None:
        """Run the shared simulation (drains the event queue by default)."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def merged_metrics(self, name: str = "fleet") -> MetricsCollector:
        """Every replica's collector merged into one, under ``name``
        (retired generations included — their finished work was real)."""
        return merge_collectors(
            [*self._retired_collectors, *(r.system.metrics for r in self.replicas)],
            self.base_cfg.slo,
            name=name,
        )

    def summarize(self) -> Summary:
        """Fleet-level summary of :meth:`merged_metrics`."""
        return self.merged_metrics().summarize()

    def per_replica_summaries(self) -> dict[str, Summary]:
        """Each replica's own summary, keyed by replica name."""
        return {r.name: r.system.metrics.summarize() for r in self.replicas}

    def kv_ledger(self) -> dict[str, int] | None:
        """Fleet-wide KV movement ledger (restored vs recomputed tokens).

        ``None`` when neither tiers nor cross-replica transfer are enabled
        — result payloads must not grow keys on the byte-identical path.
        """
        if self.base_cfg.kv_tiers is None and self.transfer is None:
            return None
        ledger = {
            "demoted_tokens": 0,
            "promoted_tokens": 0,
            "dropped_tokens": 0,
            "restored_tokens": 0,
            "wasted_fetch_tokens": 0,
        }
        for replica in self.replicas:
            store = replica.tier_store
            if store is None:
                continue
            stats = store.stats
            ledger["demoted_tokens"] += stats.demoted_tokens
            ledger["promoted_tokens"] += stats.promoted_tokens
            ledger["dropped_tokens"] += stats.dropped_tokens
            ledger["restored_tokens"] += stats.restored_tokens
            ledger["wasted_fetch_tokens"] += stats.wasted_fetch_tokens
        ledger["fetches"] = self.router.kv_fetches
        ledger["fetched_tokens"] = self.router.kv_fetched_tokens
        ledger["recomputed_tokens"] = self.router.kv_recomputed_tokens
        return ledger

    @property
    def heterogeneous(self) -> bool:
        """Whether the fleet currently runs more than one GPU SKU."""
        return len({r.spec.name for r in self.replicas}) > 1

    def cost_ledger(self) -> dict:
        """Dollar and energy accounting for the fleet, up to ``sim.now``.

        Billable time is *alive* time: a slot bills from provisioning
        until it fails, and again from restart — draining replicas are
        still provisioned and still bill.  Dollars integrate
        ``replica-seconds x $/hr`` per slot; energy integrates board TDP
        over the same stretches (a deliberate upper bound, mirroring how
        datacenter capacity is billed).  Fleet totals are the sum of the
        per-replica rows — conservation the tests assert exactly.
        """
        now = self.sim.now
        per_replica: dict[str, dict] = {}
        total_usd = total_kwh = total_seconds = 0.0
        for r in self.replicas:
            assert r.cfg is not None
            up = r.uptime(now)
            hours = up / 3600.0
            usd = hours * r.cfg.hourly_cost
            kwh = hours * r.cfg.power_watts / 1000.0
            per_replica[r.name] = {
                "sku": r.spec.name,
                "active_seconds": up,
                "usd": usd,
                "kwh": kwh,
            }
            total_usd += usd
            total_kwh += kwh
            total_seconds += up
        return {
            "per_replica": per_replica,
            "replica_seconds": total_seconds,
            "usd": total_usd,
            "kwh": total_kwh,
            "hourly_cost": sum(
                r.cfg.hourly_cost for r in self.replicas if not r.failed
            ),
        }

    def cache_hit_rate(self) -> float:
        """Token-weighted KV-cache hit rate over the whole fleet."""
        hits = requested = 0
        for replica in self.replicas:
            h, q = replica.cache_counts()
            hits += h
            requested += q
        return hits / requested if requested else 0.0

    def sm_utilization(self) -> float:
        """Mean SM utilisation over every instance in the fleet."""
        utils = [
            inst.device.sm_utilization()
            for replica in self.replicas
            for inst in iter_instances(replica.system)
        ]
        return sum(utils) / len(utils) if utils else 0.0

    def bandwidth_utilization(self) -> float:
        """Mean memory-bandwidth utilisation over every instance."""
        utils = [
            inst.device.bandwidth_utilization()
            for replica in self.replicas
            for inst in iter_instances(replica.system)
        ]
        return sum(utils) / len(utils) if utils else 0.0

    def _trace_size(self) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        tracer.counter(
            FLEET_TRACK,
            "replicas",
            self.sim.now,
            {
                "total": float(len(self.replicas)),
                "routable": float(len(self.routable_replicas())),
            },
            cat=CAT_ROUTER,
        )
