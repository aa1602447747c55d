"""Front-end request router for multi-replica fleets.

The router is the fleet's single entry point: every request arrival lands
here, passes admission control, gets a replica picked by a pluggable
:class:`RoutingPolicy`, and is delivered to that replica after a modelled
routing + network delay.

Unlike a single :class:`~repro.serving.base.ServingSystem`, the router owns
*session ordering*: turn ``k`` of a session is held until turn ``k-1``
finished — wherever it ran.  This is what production routers do, and it is
what makes routing policy matter: a cache-oblivious policy may scatter a
session's turns across replicas (each turn re-prefills its whole history),
while prefix-affinity routing follows the KV cache and keeps reuse intact.

Every routing decision is recorded as a span on the ``fleet/router`` trace
track (category ``router``) so policy behaviour is visible in an exported
Chrome trace.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro.cluster.admission import AdmissionController, Decision
from repro.cluster.health import RetryPolicy
from repro.kvcache.radix import Segment
from repro.serving.base import RequestState, ServingSystem, iter_instances
from repro.sim import Simulator
from repro.trace.tracer import (
    CAT_FAULT,
    CAT_KV_XFER,
    CAT_ROUTER,
    CAT_TENANCY,
    TENANCY_TRACK,
)
from repro.workloads.request import Request

if TYPE_CHECKING:
    from repro.cluster.fleet import Fleet, Replica

#: Modelled latency of one routing decision (policy scoring, table lookup).
ROUTER_OVERHEAD = 200e-6
#: Modelled one-way network transfer between router and replica front-end.
NETWORK_LATENCY = 2e-3

#: Trace track carrying routing decisions and shed/hold/queue occurrences.
ROUTER_TRACK = "fleet/router"

#: Trace track carrying cross-replica KV prefix transfers.
KV_XFER_TRACK = "fleet/kvxfer"


def _responsive_subset(replicas: Sequence["Replica"]) -> Sequence["Replica"]:
    """Replicas that answer a liveness probe right now, if any.

    Scoring policies probe replica state (cache contents, queue depths) at
    route time anyway, so they can — and should — notice a replica that
    died or stalled before the health monitor's miss threshold trips.  In
    that detection window the probe steers around the corpse.  When *no*
    replica responds the original set is returned: parking or losing the
    request is the dispatcher's call, not the policy's.
    """
    # getattr: routing tests drive policies with duck-typed replica stubs;
    # anything not exposing a liveness signal counts as responsive.
    live = [r for r in replicas if getattr(r, "responsive", True)]
    return live if live else replicas


class IngressFilter(Protocol):
    """Front-door admission hook applied before routing and queueing.

    The multi-tenant rate limiter
    (:class:`repro.tenancy.ratelimit.TenantRateLimiter`) implements this to
    charge each arrival against its tenant's token bucket and quota; a
    ``None`` filter admits everything.
    """

    def admit(self, request: Request, now: float) -> str | None:
        """Return ``None`` to pass, or a deny reason to shed the request."""
        ...


class DeliveryNetwork(Protocol):
    """Hook deciding the fate of one router-to-replica delivery.

    The fault injector installs itself here to model a lossy/slow network;
    a ``None`` network delivers every request after the configured latency.
    """

    def disposition(
        self, request: Request, replica: "Replica", now: float
    ) -> tuple[bool, float]:
        """Return ``(dropped, extra_delay)`` for this delivery attempt."""
        ...


class RoutingPolicy(ABC):
    """Picks a replica for each admitted request."""

    name = "base"

    @abstractmethod
    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        """Pick one of ``replicas`` (non-empty, routable) for ``request``."""


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas regardless of load or cache state.

    The rotation runs over the *responsive* subset: round-robin ignores
    load and cache signals by design, but liveness is not a scoring signal
    — delivering every Nth request into a stalled replica during the
    kill→detection window loses exactly the work the scoring policies
    steer around.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        replicas = _responsive_subset(replicas)
        choice = replicas[self._next % len(replicas)]
        self._next += 1
        return choice


def _least_loaded(replicas: Sequence["Replica"]) -> "Replica":
    return min(replicas, key=lambda r: (r.outstanding, r.index))


class LeastOutstandingPolicy(RoutingPolicy):
    """Send to the replica with the fewest in-flight requests."""

    name = "least-outstanding"

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        return _least_loaded(_responsive_subset(replicas))


class LeastKVPressurePolicy(RoutingPolicy):
    """Send to the replica whose KV pool has the most headroom.

    Pressure is the most-utilised pool of the replica (for disaggregated
    systems the bottleneck instance); ties fall back to outstanding count.
    """

    name = "least-kv"

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        replicas = _responsive_subset(replicas)
        return min(replicas, key=lambda r: (r.kv_utilization(), r.outstanding, r.index))


class PrefixAffinityPolicy(RoutingPolicy):
    """Send to the replica whose radix cache covers the longest prefix.

    Scores every routable replica with
    :meth:`repro.kvcache.radix.RadixCache.prefix_affinity` over the
    request's context path.  When no replica holds any of the prefix the
    request carries no locality signal, so the policy falls back to
    least-outstanding to keep the fleet balanced.

    The probe only considers *responsive* replicas: in the window between
    a kill and health-monitor detection, a dead replica's cache would
    otherwise still score highest for the sessions it was serving —
    exactly the requests that must now go elsewhere.
    """

    name = "prefix-affinity"

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        replicas = _responsive_subset(replicas)
        path = request.context_path
        scored = [(replica.prefix_affinity(path), replica) for replica in replicas]
        best = max(score for score, _ in scored)
        if best <= 0.0:
            return _least_loaded(replicas)
        return _least_loaded([replica for score, replica in scored if score == best])


class TenantAffinityPolicy(RoutingPolicy):
    """Pin each tenant to a home replica (soft multi-tenant isolation).

    A tenant's home is assigned on first sight — ``crc32(tenant) mod
    routable`` (CRC32, not Python's per-process-seeded ``hash()``, so
    placement is deterministic across runs) — and then remembered *by
    replica name*.  Pinning concentrates each tenant's prefix reuse on one
    cache and contains a noisy tenant's queueing damage to its home
    replica; that only works if the home is sticky, so a fleet resize
    (autoscaler add/drain, a failure) must not reshuffle tenants whose
    home is still routable.  Only when a tenant's own home drops out of
    the routable set does *that* tenant fall back — deterministically,
    by rehashing into the current set — and it returns home as soon as
    the home replica is routable again.  Untagged requests share the
    default tenant's home.
    """

    name = "tenant-affinity"

    def __init__(self) -> None:
        #: Sticky tenant → home replica *name* map.  Names are stable for
        #: a slot across restarts and resizes (unlike positions in the
        #: routable list), which is what keeps unaffected tenants pinned.
        self._homes: dict[str, str] = {}

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        tenant = request.tenant if request.tenant is not None else "default"
        slot = zlib.crc32(tenant.encode("utf-8")) % len(replicas)
        home = self._homes.setdefault(tenant, replicas[slot].name)
        for replica in replicas:
            if replica.name == home:
                return replica
        # Home unroutable right now: deterministic fallback for this
        # tenant only.  The sticky entry is left untouched so the tenant
        # snaps back the moment its home returns.
        return replicas[slot]


class CostAwareRoutingPolicy(RoutingPolicy):
    """Route by estimated marginal latency on each replica's GPU SKU.

    In a mixed-SKU fleet the replicas are not interchangeable: prefill is
    compute-bound (a prefill-heavy request finishes sooner on a
    high-TFLOPS part) while decode is bandwidth-bound (a decode-heavy
    request wants HBM bandwidth, not FLOPs).  This policy scores every
    responsive replica with a roofline estimate of the *marginal* latency
    the request would see there —

    - prefill: ``2 * active_params * input_tokens`` FLOPs over the
      replica's effective FLOP/s,
    - decode: ``output_tokens`` iterations, each streaming the weights
      (amortised over the work already batched there) plus the request's
      own KV, over effective bytes/s,

    penalised by the replica's queue depth — and picks the minimum.  On a
    homogeneous fleet every spec term is identical, so the policy degrades
    to queue-aware least-loaded routing.

    ``tier_pins`` optionally maps a workload tier to a SKU name (e.g.
    ``{"batch": "L40S-48GB", "interactive": "H200-SXM5-141GB"}``): a
    pinned request only considers replicas of that SKU while at least one
    is responsive, steering cheap throughput traffic onto cheap parts and
    latency traffic onto the big-HBM parts.
    """

    name = "cost-aware"

    def __init__(self, tier_pins: Mapping[str, str] | None = None) -> None:
        self._tier_pins = dict(tier_pins) if tier_pins is not None else {}

    @staticmethod
    def _marginal_latency(replica: "Replica", request: Request) -> float:
        cfg = replica.cfg
        assert cfg is not None
        model, spec = cfg.model, cfg.spec
        flops = spec.effective_flops * cfg.n_gpus
        bandwidth = spec.effective_bandwidth * cfg.n_gpus
        prefill_s = 2.0 * model.active_params * request.input_tokens / flops
        # Weight streaming amortises over whatever is already decoding
        # there; the request's own KV read does not.
        weight_share = model.weight_bytes / (replica.outstanding + 1)
        kv_read = model.kv_bytes_per_token * request.input_tokens
        decode_s = request.output_tokens * (weight_share + kv_read) / bandwidth
        return (prefill_s + decode_s) * (1 + replica.outstanding)

    def choose(self, replicas: Sequence["Replica"], request: Request) -> "Replica":
        replicas = _responsive_subset(replicas)
        pinned_sku = self._tier_pins.get(request.tier) if request.tier is not None else None
        if pinned_sku is not None:
            pinned = [
                r
                for r in replicas
                if getattr(r, "cfg", None) is not None and r.cfg.spec.name == pinned_sku
            ]
            if pinned:
                replicas = pinned
        # Duck-typed stubs (and replicas built outside a Fleet) carry no
        # config to cost against: fall back to queue-aware routing.
        if any(getattr(r, "cfg", None) is None for r in replicas):
            return _least_loaded(replicas)
        return min(replicas, key=lambda r: (self._marginal_latency(r, request), r.index))


POLICIES: dict[str, type[RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastOutstandingPolicy.name: LeastOutstandingPolicy,
    LeastKVPressurePolicy.name: LeastKVPressurePolicy,
    PrefixAffinityPolicy.name: PrefixAffinityPolicy,
    TenantAffinityPolicy.name: TenantAffinityPolicy,
    CostAwareRoutingPolicy.name: CostAwareRoutingPolicy,
}


def make_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(f"unknown routing policy {policy!r}; choose from {sorted(POLICIES)}")


class Router:
    """SLO-aware front end: admission, policy dispatch, session ordering."""

    def __init__(
        self,
        sim: Simulator,
        fleet: "Fleet",
        policy: RoutingPolicy,
        admission: AdmissionController | None = None,
        overhead: float = ROUTER_OVERHEAD,
        network_latency: float = NETWORK_LATENCY,
        retry: RetryPolicy | None = None,
        ingress: IngressFilter | None = None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.policy = policy
        self.admission = admission
        self.overhead = overhead
        self.network_latency = network_latency
        self.retry = retry or RetryPolicy()
        #: Optional per-tenant rate-limit/quota filter at the front door.
        self.ingress = ingress
        #: Optional lossy-network model (fault injector installs itself).
        self.network: DeliveryNetwork | None = None
        self.queue: deque[Request] = deque()
        self.decisions = 0
        self.arrivals = 0
        self.requests_shed = 0
        #: Sheds attributable to the ingress filter (subset of shed).
        self.requests_rate_limited = 0
        self.requests_queued = 0
        self.requests_completed = 0
        self.requests_dropped = 0
        self.requests_lost = 0
        self.requests_retried = 0
        self.deliveries_dropped = 0
        #: Turns a session has completed fleet-wide (ordering barrier).
        self._session_done: dict[int, int] = {}
        self._held: dict[tuple[int, int], Request] = {}
        self._shed_sessions: set[int] = set()
        #: First delivery time per request id — failover re-dispatches keep
        #: this so TTFT is measured against the original delivery, not the
        #: retry (the recovery honestly pays for the crash).
        self._first_arrival: dict[int, float] = {}
        #: Delivery attempts consumed per in-flight request id.
        self._attempts: dict[int, int] = {}
        #: Request ids re-dispatched by a failover and not yet completed.
        #: Their prefill on the replacement replica is *recomputed* work —
        #: the ledger's counterweight to tier-restored tokens.
        self._failover_ids: set[int] = set()
        #: Cross-replica prefix transfers performed (fleet.transfer set).
        self.kv_fetches = 0
        self.kv_fetched_tokens = 0
        #: Tokens the target replica seeded from transfers (<= fetched).
        self.kv_seeded_tokens = 0
        #: Prefill tokens paid by failover re-dispatches that finished.
        self.kv_recomputed_tokens = 0

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #

    def route(self, request: Request) -> None:
        """Handle one arrival: order within its session, admit, dispatch."""
        self.arrivals += 1
        session, turn = request.session_id, request.turn_index
        if session in self._shed_sessions:
            self._shed(request, reason="session-shed")
            return
        if self.ingress is not None:
            denied = self.ingress.admit(request, self.sim.now)
            if denied is not None:
                self.requests_rate_limited += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.instant(
                        TENANCY_TRACK,
                        "ingress-deny",
                        CAT_TENANCY,
                        self.sim.now,
                        {
                            "request": request.request_id,
                            "tenant": request.tenant or "default",
                            "reason": denied,
                        },
                    )
                self._shed(request, reason=denied)
                return
        if turn > self._session_done.get(session, 0):
            # Predecessor still running somewhere in the fleet.
            self._held[(session, turn)] = request
            self._trace_instant("hold", request)
            return
        self._admit(request)

    def _admit(self, request: Request) -> None:
        if self.admission is None:
            decision = Decision.ADMIT
            reason = "overload"
        else:
            decision = self.admission.decide(self.fleet, request)
            reason = self.admission.last_reason or "overload"
        if decision is Decision.QUEUE and len(self.queue) >= self.admission.config.queue_limit:
            decision = Decision.SHED
            reason = "queue-full"
        if self.admission is not None:
            self.admission.note(decision)
        if decision is Decision.ADMIT:
            self._dispatch(request)
        elif decision is Decision.QUEUE:
            self.requests_queued += 1
            self.queue.append(request)
            self._trace_instant("queue", request)
        else:
            self._shed(request, reason=reason)

    def _shed(self, request: Request, reason: str) -> None:
        self.requests_shed += 1
        self._shed_sessions.add(request.session_id)
        self._trace_instant("shed", request, {"reason": reason})
        self._flush_held(request.session_id)

    def _flush_held(self, session: int) -> None:
        """Shed every held follower of a session that just died.

        A held turn waits for its predecessor to complete; once that
        predecessor is shed or lost the follower would wait forever, so it
        is shed too (and counted — conservation must still balance).
        """
        for key in [k for k in self._held if k[0] == session]:
            follower = self._held.pop(key)
            self.requests_shed += 1
            self._trace_instant("shed", follower, {"reason": "session-shed"})

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(self, request: Request, attempt: int = 0) -> None:
        replicas = self.fleet.routable_replicas()
        if not replicas:
            # Every replica is draining; deliver to a live draining one
            # rather than dropping admitted work.  Failed replicas are
            # never a fallback — delivering to a corpse loses the request.
            replicas = [r for r in self.fleet.replicas if not r.failed and not r.drained]
        if not replicas:
            if self.fleet.recovery_pending():
                # Someone (restart or autoscaler) will bring capacity back:
                # park at the queue front and redeliver on recovery.
                self.queue.appendleft(request)
                self._trace_instant("park", request, cat=CAT_FAULT)
            else:
                self._lose(request, reason="no-replicas")
            return
        now = self.sim.now
        replica = self.policy.choose(replicas, request)
        self.decisions += 1
        if self.network is not None:
            dropped, extra_delay = self.network.disposition(request, replica, now)
            if dropped:
                self._retry_delivery(request, attempt)
                return
        else:
            extra_delay = 0.0
        if self.fleet.transfer is not None:
            seed_path, xfer_delay = self._plan_prefix_fetch(request, replica, now)
        else:
            seed_path, xfer_delay = None, 0.0
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                ROUTER_TRACK,
                f"route:{self.policy.name}",
                CAT_ROUTER,
                now,
                now + self.overhead,
                {
                    "request": request.request_id,
                    "session": request.session_id,
                    "turn": request.turn_index,
                    "replica": replica.name,
                    "outstanding": replica.outstanding,
                    "attempt": attempt,
                },
            )
        replica.outstanding += 1
        replica.dispatched += 1
        replica.inflight[request.request_id] = request
        replica.system.expect_turn(request.session_id, request.turn_index)
        delay = self.overhead + self.network_latency + extra_delay + xfer_delay
        # TTFT anchor: the *nominal* first delivery time.  Injected network
        # delay (extra_delay), cross-replica prefix transfer time
        # (xfer_delay) and any later failover re-dispatch deliver after
        # this anchor, so fault-induced and transfer-induced latency lands
        # in TTFT instead of being silently re-based away.
        arrival = self._first_arrival.setdefault(
            request.request_id, now + self.overhead + self.network_latency
        )
        # Bind the target system now (the replica may be restarted with a
        # fresh system before delivery) and tag the delivery with the
        # replica's failure scope so a kill cancels in-transit deliveries
        # along with everything else — fail_over() re-dispatches them.
        system = replica.system
        if seed_path is None:
            deliver = lambda: system.inject(request, arrival_time=arrival)
        else:
            deliver = lambda: self._deliver_with_prefix(
                system, request, arrival, seed_path
            )
        self.sim.schedule(delay, deliver, scope=replica.scope)

    def _plan_prefix_fetch(
        self, request: Request, target: "Replica", now: float
    ) -> tuple[list[Segment] | None, float]:
        """Arrange a cross-replica prefix transfer into ``target``, if any.

        Scans the fleet for a live replica whose HBM cache covers at least
        ``min_fetch_tokens`` more of the request's context than the target
        already holds.  On a hit, the donor's covered prefix is scheduled
        to be seeded into the target at delivery time and the transfer's
        modelled cost is added to the delivery delay (it lands in TTFT).
        Returns ``(seed path, transfer delay)`` or ``(None, 0.0)``.
        """
        engine = self.fleet.transfer
        link = engine.select()
        if link is None:
            return None, 0.0
        path = request.context_path
        target_tokens = target.prefix_match_tokens(path)
        best: "Replica | None" = None
        best_tokens = target_tokens + engine.config.min_fetch_tokens - 1
        for replica in self.fleet.replicas:
            if replica is target or replica.failed:
                continue
            tokens = replica.prefix_match_tokens(path)
            if tokens > best_tokens:
                best = replica
                best_tokens = tokens
        if best is None:
            return None, 0.0
        donor_cache = max(
            (inst.cache for inst in iter_instances(best.system)),
            key=lambda cache: cache.match(path),
        )
        chain = donor_cache.match_chain(path)
        seed_path = [
            Segment(uid=path[i].uid, tokens=chain[i]) for i in range(len(chain))
        ]
        moved = best_tokens - target_tokens
        delay = engine.acquire(now, moved, link)
        engine.record(link, moved)
        self.kv_fetches += 1
        self.kv_fetched_tokens += moved
        if engine.config.migrate:
            donor_cache.touch(now)
            donor_cache.evict_path(path)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                KV_XFER_TRACK,
                f"fetch:{link.name}",
                CAT_KV_XFER,
                now,
                now + delay,
                {
                    "request": request.request_id,
                    "donor": best.name,
                    "target": target.name,
                    "tokens": moved,
                },
            )
        return seed_path, delay

    def _deliver_with_prefix(
        self,
        system: ServingSystem,
        request: Request,
        arrival: float,
        seed_path: list[Segment],
    ) -> None:
        """Seed the fetched prefix into the target, then deliver."""
        inst = next(iter_instances(system), None)
        if inst is not None:
            inst.cache.touch(self.sim.now)
            self.kv_seeded_tokens += inst.cache.seed(seed_path)
        system.inject(request, arrival_time=arrival)

    def _retry_delivery(self, request: Request, attempt: int) -> None:
        """A delivery was dropped in flight: back off and re-dispatch."""
        if attempt + 1 >= self.retry.max_attempts:
            self._lose(request, reason="delivery-drop")
            return
        self.deliveries_dropped += 1
        self.requests_retried += 1
        backoff = self.retry.backoff(attempt)
        self._trace_instant(
            "retry", request, {"attempt": attempt + 1, "backoff": backoff}, cat=CAT_FAULT
        )
        # scope=None: the retry must survive any replica's death — it is
        # router state, not replica state.
        self.sim.schedule(
            self.overhead + backoff,
            lambda: self._dispatch(request, attempt=attempt + 1),
            scope=None,
        )

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #

    def fail_over(self, replica: "Replica", reason: str) -> int:
        """Re-dispatch everything in flight on a replica that just died.

        The dead replica's unfinished metrics records are discarded (their
        partial decode tokens are wasted work, not delivered work) and each
        victim is re-dispatched through the normal path, burning one retry
        attempt.  TTFT keeps the original first-delivery timestamp, so the
        recovered request's latency honestly spans the crash.  Returns the
        number of requests re-dispatched.
        """
        victims = list(replica.inflight.values())
        replica.inflight.clear()
        replica.outstanding = 0
        redispatched = 0
        for request in victims:
            replica.system.metrics.discard(request.request_id)
            attempts = self._attempts.get(request.request_id, 0) + 1
            self._attempts[request.request_id] = attempts
            if attempts >= self.retry.max_attempts:
                self._lose(request, reason=f"failover-exhausted:{reason}")
                continue
            self.requests_retried += 1
            self._failover_ids.add(request.request_id)
            redispatched += 1
            self._trace_instant(
                "failover",
                request,
                {"replica": replica.name, "reason": reason, "attempt": attempts},
                cat=CAT_FAULT,
            )
            self._dispatch(request, attempt=attempts)
        return redispatched

    def _lose(self, request: Request, reason: str) -> None:
        """Declare an admitted request unservable (all recovery exhausted)."""
        self.requests_lost += 1
        self._first_arrival.pop(request.request_id, None)
        self._attempts.pop(request.request_id, None)
        self._failover_ids.discard(request.request_id)
        self._shed_sessions.add(request.session_id)
        self._trace_instant("lost", request, {"reason": reason}, cat=CAT_FAULT)
        self._flush_held(request.session_id)

    # ------------------------------------------------------------------ #
    # Completion feedback
    # ------------------------------------------------------------------ #

    def on_completion(self, replica: "Replica", state: RequestState) -> None:
        """A request finished (or dropped) on ``replica``."""
        replica.outstanding = max(0, replica.outstanding - 1)
        request = state.request
        replica.inflight.pop(request.request_id, None)
        self._first_arrival.pop(request.request_id, None)
        self._attempts.pop(request.request_id, None)
        was_failover = request.request_id in self._failover_ids
        if was_failover:
            self._failover_ids.discard(request.request_id)
        if state.record.finished:
            self.requests_completed += 1
            # This replica's HBM cache now holds a finished request's
            # prefixes — warm for the autoscaler's reactivation heuristic.
            replica.kv_warm = True
            if was_failover:
                self.kv_recomputed_tokens += state.prefill_tokens
        else:
            self.requests_dropped += 1
        done = self._session_done.get(request.session_id, 0)
        if request.turn_index + 1 > done:
            self._session_done[request.session_id] = request.turn_index + 1
        if self.admission is not None:
            ttft = state.record.ttft
            if not math.isnan(ttft):
                self.admission.observe_ttft(ttft)
        follower = self._held.pop((request.session_id, request.turn_index + 1), None)
        if follower is not None:
            self._admit(follower)
        self._drain_queue()

    def _drain_queue(self) -> None:
        # Without a live replica, _dispatch would park the popped request
        # right back at the queue front — spin forever.  Leave the queue
        # parked until recovery calls back in.
        if not any(not r.failed for r in self.fleet.replicas):
            return
        while self.queue and (self.admission is None or self.admission.has_capacity(self.fleet)):
            self._dispatch(self.queue.popleft())

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def inflight_now(self) -> int:
        """Requests currently dispatched to (or in transit to) replicas."""
        return sum(len(r.inflight) for r in self.fleet.replicas)

    def conservation(self) -> dict[str, int]:
        """Snapshot of request conservation terms.

        At drain (no productive events pending) every arrival is in exactly
        one terminal bucket and the ``*_now`` terms are zero, so::

            arrivals == completed + dropped + shed + lost
        """
        return {
            "arrivals": self.arrivals,
            "completed": self.requests_completed,
            "dropped": self.requests_dropped,
            "shed": self.requests_shed,
            "lost": self.requests_lost,
            "retried": self.requests_retried,
            "deliveries_dropped": self.deliveries_dropped,
            "queued_now": len(self.queue),
            "held_now": len(self._held),
            "inflight_now": self.inflight_now(),
        }

    def _trace_instant(
        self,
        name: str,
        request: Request,
        extra: dict | None = None,
        cat: str = CAT_ROUTER,
    ) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        args = {"request": request.request_id, "session": request.session_id}
        if extra:
            args.update(extra)
        tracer.instant(ROUTER_TRACK, name, cat, self.sim.now, args)
