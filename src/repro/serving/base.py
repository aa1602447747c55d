"""Base machinery shared by all serving systems.

A :class:`ServingSystem` owns request admission (arrival events, multi-turn
session ordering), metrics, and the KV-cache bookkeeping helpers; concrete
systems (MuxWise and the baselines) implement scheduling on top via
:meth:`ServingSystem.on_request_ready`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.gpu.device import Device, OutOfMemoryError
from repro.gpu.host import HostThread
from repro.kvcache.pool import KVCachePool, PoolExhaustedError
from repro.kvcache.radix import Lease, RadixCache, Segment
from repro.kvcache.tiers import TierFetchPlan, TieredKVStore
from repro.models.costs import CostModel, PrefillItem
from repro.serving.config import ServingConfig
from repro.serving.metrics import MetricsCollector, RequestRecord
from repro.sim import Simulator
from repro.trace.tracer import CAT_KV_XFER, CAT_LIFECYCLE
from repro.workloads.request import Request, Workload


@dataclass
class Instance:
    """One serving instance: a device, its KV cache, and host thread."""

    name: str
    device: Device
    cache: RadixCache
    cost_model: CostModel
    host: HostThread
    n_gpus: int


def build_instance(
    sim: Simulator,
    cfg: ServingConfig,
    n_gpus: int,
    name: str,
    cross_request_reuse: bool = True,
) -> Instance:
    """Construct an instance: device + weights + KV pool + cost model.

    Raises :class:`OutOfMemoryError` when the weights do not fit — e.g.
    Qwen3-235B on a 4-GPU disaggregated instance, which the paper notes is
    infeasible.
    """
    if cfg.name_prefix:
        name = f"{cfg.name_prefix}{name}"
    device = Device(sim, cfg.spec, n_gpus=n_gpus, name=name)
    device.alloc_memory(cfg.model.weight_bytes)
    reserve = device.mem_capacity * cfg.activation_reserve_fraction
    if device.mem_free < reserve:
        raise OutOfMemoryError(f"{name}: no memory left for activations")
    device.alloc_memory(reserve)
    pool_bytes = device.mem_free
    if cfg.kv_pool_limit_bytes is not None:
        pool_bytes = min(pool_bytes, cfg.kv_pool_limit_bytes)
    pool = KVCachePool(pool_bytes, cfg.model.kv_bytes_per_token, cfg.page_tokens)
    cache = RadixCache(
        pool, enable_prefix_sharing=cross_request_reuse, sim=sim, name=name
    )
    if cfg.cost_profile is not None:
        # Lazy import: the profiles package sits above the serving layer
        # (it pulls in the bench runner for capture), and the default
        # roofline path must not pay for it.
        from repro.profiles.model import ProfiledCostModel

        cost_model: CostModel = ProfiledCostModel(
            cfg.cost_profile,
            cfg.model,
            n_gpus=n_gpus,
            nvlink_bandwidth=cfg.spec.nvlink_bandwidth,
        )
    else:
        cost_model = CostModel(
            cfg.model, n_gpus=n_gpus, nvlink_bandwidth=cfg.spec.nvlink_bandwidth
        )
    host = HostThread(sim, name=f"{name}-host")
    return Instance(
        name=name,
        device=device,
        cache=cache,
        cost_model=cost_model,
        host=host,
        n_gpus=n_gpus,
    )


def iter_instances(system: "ServingSystem") -> Iterator[Instance]:
    """Yield a system's serving instances, aggregated or disaggregated.

    Aggregated systems expose one ``instance``; PD-disaggregated systems
    expose ``prefill_inst`` and ``decode_inst``.  Shared by the bench runner
    (utilisation averages) and the fleet router (KV pressure, prefix
    affinity).
    """
    for attr in ("instance", "prefill_inst", "decode_inst"):
        inst = getattr(system, attr, None)
        if inst is not None:
            yield inst


class RequestState:
    """Mutable serving-side state of one request."""

    def __init__(self, request: Request, record: RequestRecord) -> None:
        self.request = request
        self.record = record
        # Requests are immutable once built; keep their input length local
        # so context_len() (per request per decode iteration) is two
        # attribute reads instead of a property chain.
        self._input_tokens = request.input_tokens
        self.lease: Lease | None = None
        self.reused_tokens = 0
        self.prefill_tokens = 0
        self.generated = 0
        self.first_token_emitted = False
        self.finished = False
        # System-specific progress (layer-wise execution, chunking).
        self.layers_done = 0
        self.chunk_tokens_done = 0
        # Tracing: current lifecycle phase and when it started.
        self.trace_phase: str | None = None
        self.trace_phase_start = 0.0
        #: Speculative-decoding session (RNG + base acceptance rate); None
        #: when speculation is off or this request's tier is gated out.
        self.spec_session = None

    @property
    def remaining_output(self) -> int:
        """Tokens still to generate."""
        return self.request.output_tokens - self.generated

    def cache_path(self) -> list[Segment]:
        """Radix path for this (possibly resumed) request.

        Ends with the output segment at its *current* generated length so a
        recompute-preempted request re-prefills its own partial output.
        """
        output = Segment(uid=self.request.output_segment.uid, tokens=self.generated)
        return [*self.request.context_path, output]

    def prefill_item(self) -> PrefillItem:
        """The (new, reused) token pair this request's prefill computes."""
        return PrefillItem(new=self.prefill_tokens, reused=self.reused_tokens)

    def context_len(self) -> int:
        """Current total context length (input + generated)."""
        return self._input_tokens + self.generated


class ServingSystem(ABC):
    """Common admission, session-ordering and KV bookkeeping."""

    name = "base"

    def __init__(self, sim: Simulator, cfg: ServingConfig) -> None:
        self.sim = sim
        self.cfg = cfg
        self.metrics = MetricsCollector(cfg.slo, name=f"{cfg.name_prefix}{self.name}")
        self._session_next_turn: dict[int, int] = {}
        self._deferred: dict[tuple[int, int], RequestState] = {}
        self._completion_listeners: list[Callable[[RequestState], None]] = []
        self.states: dict[int, RequestState] = {}
        #: Preemption-storm fault: when set, the next decode iteration
        #: recompute-preempts its whole batch (see DecodeBatchMixin).
        self._storm_pending = False
        self.storm_preemptions = 0
        #: DRAM/NVMe spill store behind this system's HBM caches.  None
        #: unless ``cfg.kv_tiers`` is set (attached lazily) or a fleet
        #: hands an existing store over via :meth:`attach_tiers` — e.g.
        #: after a restart, so surviving tiers outlive the dead system.
        self.tier_store: TieredKVStore | None = None
        #: Speculative-decoding runtime (sessions, draft cost models,
        #: acceptance accounting).  None unless ``cfg.spec_decode`` is set,
        #: keeping the plain-decode path byte-identical.
        if cfg.spec_decode is not None:
            from repro.spec.runtime import SpecRuntime

            self.spec_decode: "SpecRuntime | None" = SpecRuntime(cfg)
        else:
            self.spec_decode = None

    def make_waiting_queue(self):
        """Build this system's waiting queue per ``cfg.queue_policy``.

        ``"fifo"`` returns a plain :class:`collections.deque` — the exact
        structure every scheduler used before multi-tenancy, so the default
        path is byte-identical.  ``"wfq"`` returns a
        :class:`~repro.tenancy.wfq.WFQQueue` honouring ``cfg.tenancy``
        weights; it is deque-compatible for every operation the schedulers
        perform, so they need no changes.
        """
        if self.cfg.queue_policy == "wfq":
            from repro.tenancy.wfq import WFQQueue

            return WFQQueue(self.cfg.tenancy)
        return deque()

    def ttft_target_for(self, request: Request) -> float:
        """TTFT deadline of ``request``: tier SLO when tenancy is on.

        With ``cfg.tenancy is None`` this is exactly ``slo.ttft_target`` —
        the pre-tenancy deadline — so untagged runs are unaffected.
        """
        if self.cfg.tenancy is not None:
            return self.cfg.tenancy.ttft_target(request, self.cfg.slo)
        return self.cfg.slo.ttft_target(request.input_tokens)

    def qos_rank_for(self, request: Request) -> int:
        """QoS precedence of ``request``'s tier (0 when tenancy is off)."""
        if self.cfg.tenancy is not None:
            return self.cfg.tenancy.rank_of(request)
        return 0

    # ------------------------------------------------------------------ #
    # Workload intake
    # ------------------------------------------------------------------ #

    def submit(self, workload: Workload) -> None:
        """Schedule every request's arrival on the simulator."""
        for request in workload:
            self.sim.schedule_at(request.arrival_time, lambda r=request: self._arrive(r))

    def run(self, until: float | None = None) -> None:
        """Run the simulation (drains the event queue by default)."""
        self.sim.run(until=until)

    def inject(self, request: Request, arrival_time: float | None = None) -> None:
        """Deliver one request now (fleet routers dispatch through this).

        ``arrival_time`` back-dates the metrics record — a router
        re-dispatching a request it first delivered to a replica that later
        died passes the *original* arrival so TTFT honestly includes the
        failure and recovery time, not just the retry.
        """
        self._arrive(request, arrival_time)

    def force_preempt(self) -> int:
        """Fault hook: request a preemption storm (recompute-preempt all).

        The base implementation arms a flag that batching systems consume
        at their next decode iteration boundary — the only point where
        evicting the whole running batch is safe in every scheduler.
        Returns the number of requests preempted immediately (always 0
        here; consult :attr:`storm_preemptions` afterwards for the total).
        """
        self._storm_pending = True
        return 0

    def expect_turn(self, session_id: int, turn_index: int) -> None:
        """Mark ``turn_index`` as this session's next admissible turn here.

        A fleet router that enforces session ordering itself only delivers a
        turn after its predecessor finished — possibly on another replica —
        so this system must not defer it waiting for turns it never sees.
        """
        current = self._session_next_turn.setdefault(session_id, 0)
        if turn_index > current:
            self._session_next_turn[session_id] = turn_index

    def add_completion_listener(self, listener: Callable[[RequestState], None]) -> None:
        """Call ``listener(state)`` whenever a request finishes or drops."""
        self._completion_listeners.append(listener)

    def _arrive(self, request: Request, arrival_time: float | None = None) -> None:
        arrival = self.sim.now if arrival_time is None else arrival_time
        record = self.metrics.on_arrival(request, arrival)
        state = RequestState(request, record)
        if self.spec_decode is not None and self.spec_decode.wants(request):
            # Sessions are numbered in arrival order — deterministic for a
            # fixed workload, so runs replay byte-identically.
            state.spec_session = self.spec_decode.session()
        self.states[request.request_id] = state
        self.trace_lifecycle(state, "queued", instant="arrival")
        next_turn = self._session_next_turn.setdefault(request.session_id, 0)
        if request.turn_index == next_turn:
            self._ready(state)
        else:
            # A turn cannot start before its predecessor finished streaming.
            self._deferred[(request.session_id, request.turn_index)] = state

    def _complete_turn(self, state: RequestState) -> None:
        session = state.request.session_id
        next_turn = state.request.turn_index + 1
        if next_turn > self._session_next_turn.get(session, 0):
            self._session_next_turn[session] = next_turn
        follower = self._deferred.pop((session, next_turn), None)
        if follower is not None:
            self._ready(follower)
        for listener in self._completion_listeners:
            listener(state)

    @abstractmethod
    def on_request_ready(self, state: RequestState) -> None:
        """A request is admissible (its session predecessor finished)."""

    # ------------------------------------------------------------------ #
    # KV tiers (promotion on the admission path)
    # ------------------------------------------------------------------ #

    def attach_tiers(self, store: TieredKVStore) -> None:
        """Put ``store`` behind this system's caches (spill on eviction)."""
        self.tier_store = store
        for inst in iter_instances(self):
            inst.cache.spill = store.demote

    def _attach_default_tiers(self) -> None:
        store = TieredKVStore(
            self.cfg.kv_tiers,
            self.cfg.model.kv_bytes_per_token,
            sim=self.sim,
            name=f"{self.cfg.name_prefix}{self.name}",
        )
        self.attach_tiers(store)

    def _ready(self, state: RequestState) -> None:
        """Admission gate: promote any down-tier prefix before scheduling.

        With no tier store this is exactly ``on_request_ready`` — the
        untiered path stays byte-identical.  With one, a request whose
        context continues past the HBM-cached prefix into DRAM/NVMe pays
        the modelled fetch delay, is seeded back into HBM, and only then
        reaches the scheduler.
        """
        if self.tier_store is None:
            if self.cfg.kv_tiers is None:
                self.on_request_ready(state)
                return
            self._attach_default_tiers()
        store = self.tier_store
        inst = next(iter_instances(self), None)
        if store.is_empty() or inst is None:
            self.on_request_ready(state)
            return
        path = state.request.context_path
        depth = inst.cache.match_depth(path)
        plan = store.plan_fetch(path, depth)
        if plan is None:
            self.on_request_ready(state)
            return
        start = self.sim.now
        self.sim.schedule(
            plan.delay,
            lambda: self._finish_promotion(state, inst, path, depth, plan, start),
        )

    def _finish_promotion(
        self,
        state: RequestState,
        inst: Instance,
        path: list[Segment],
        depth: int,
        plan: TierFetchPlan,
        start: float,
    ) -> None:
        """The modelled fetch completed: seed restored segments into HBM.

        Entries are re-checked at completion time — an entry cascaded out
        (or a required HBM anchor evicted) while the fetch was in flight
        counts as wasted fetch work, never as conjured KV.
        """
        store = self.tier_store
        cache = inst.cache
        cache.touch(self.sim.now)
        taken = 0
        got_chain: list[tuple[tuple[int, ...], int]] = []
        for key, tokens, _spec in plan.chain:
            got = store.take(key)
            if got is None:
                store.stats.wasted_fetch_tokens += tokens
                break
            got_chain.append((key, got))
            taken += got
        seeded = 0
        if got_chain:
            seed_path = list(path[:depth]) + [
                Segment(uid=key[-1], tokens=got) for key, got in got_chain
            ]
            seeded = cache.seed(seed_path, require_cached=depth)
            if seeded:
                store.note_promoted(seeded)
            if taken > seeded:
                store.stats.wasted_fetch_tokens += taken - seeded
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                store.trace_track,
                "promote",
                CAT_KV_XFER,
                start,
                self.sim.now,
                {"tokens": seeded, "planned": plan.tokens},
            )
        self.on_request_ready(state)

    # ------------------------------------------------------------------ #
    # Tracing
    # ------------------------------------------------------------------ #

    def trace_lifecycle(
        self,
        state: RequestState,
        phase: str | None,
        instant: str | None = None,
        args: dict | None = None,
    ) -> None:
        """Move ``state`` to lifecycle ``phase``, recording the span it closes.

        Each request owns one trace row (``req/<id>``); the queued → prefill
        → decode progression appears as back-to-back spans, and transient
        occurrences (arrival, preemption, finish) as instant events.  No-op
        without a tracer on the simulator.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return
        now = self.sim.now
        track = f"req/{state.request.request_id}"
        if state.trace_phase != phase:
            if state.trace_phase is not None:
                tracer.complete(
                    track, state.trace_phase, CAT_LIFECYCLE, state.trace_phase_start, now
                )
            state.trace_phase = phase
            state.trace_phase_start = now
        if instant is not None:
            tracer.instant(track, instant, CAT_LIFECYCLE, now, args)

    # ------------------------------------------------------------------ #
    # KV-cache helpers
    # ------------------------------------------------------------------ #

    def plan_prefill(self, instance: Instance, state: RequestState) -> None:
        """Pin the cached prefix and compute what must be (re)computed."""
        instance.cache.touch(self.sim.now)
        path = state.cache_path()
        state.lease = instance.cache.acquire(path)
        total = sum(segment.tokens for segment in path)
        state.reused_tokens = state.lease.cached_tokens
        state.prefill_tokens = max(1, total - state.reused_tokens)
        self.trace_lifecycle(
            state,
            "prefill",
            instant="kv-reuse" if state.reused_tokens else None,
            args={"reused_tokens": state.reused_tokens} if state.reused_tokens else None,
        )

    def allocate_context(self, instance: Instance, state: RequestState) -> bool:
        """Reserve KV pages for the uncached context; False if it cannot fit."""
        if state.lease is None:
            raise ValueError("plan_prefill must run first")
        path = state.cache_path()
        missing = path[state.lease.depth :]
        if not instance.cache.can_fit_path(path):
            return False
        instance.cache.touch(self.sim.now)
        try:
            instance.cache.insert(state.lease, missing)
        except PoolExhaustedError:
            return False
        return True

    def abandon_plan(self, instance: Instance, state: RequestState) -> None:
        """Release a lease after a failed admission attempt."""
        if state.lease is not None:
            instance.cache.release(state.lease, keep_cached=True)
            state.lease = None
        self.trace_lifecycle(state, "queued")

    def extend_output(self, instance: Instance, state: RequestState, tokens: int) -> bool:
        """Grow the output segment by ``tokens``; False on pool exhaustion."""
        if state.lease is None:
            raise ValueError("request has no lease")
        instance.cache.touch(self.sim.now)
        try:
            instance.cache.extend(state.lease, tokens)
        except PoolExhaustedError:
            return False
        return True

    def release_request(
        self, instance: Instance, state: RequestState, keep_cached: bool = True
    ) -> None:
        """Unpin (and optionally drop) the request's KV."""
        if state.lease is not None:
            instance.cache.touch(self.sim.now)
            instance.cache.release(state.lease, keep_cached=keep_cached)
            state.lease = None

    # ------------------------------------------------------------------ #
    # Metric events
    # ------------------------------------------------------------------ #

    def emit_first_token(self, state: RequestState) -> None:
        """Record end of prefill (idempotent across recompute-preemption)."""
        if state.first_token_emitted:
            return
        state.first_token_emitted = True
        state.generated = 1
        self.metrics.on_prefill_done(state.request, self.sim.now, state.prefill_tokens)

    def emit_tokens(self, state: RequestState, count: int = 1) -> None:
        """Record decode tokens for ``state``."""
        state.generated += count
        self.metrics.on_tokens_record(state.record, self.sim.now, count)
        self.sim.counters.ledger_writes += 1

    def produce_prefill_token(self, state: RequestState) -> None:
        """Record the token produced by a prefill's LM head.

        For a fresh request this is the first token (TTFT); for a request
        re-prefilled after recompute-preemption it is an ordinary token.
        """
        if state.first_token_emitted:
            self.emit_tokens(state, 1)
        else:
            self.emit_first_token(state)
        self.trace_lifecycle(state, "decode")

    def can_ever_fit(self, instance: Instance, state: RequestState) -> bool:
        """Whether the request's context + output can fit in an empty pool."""
        needed = sum(s.tokens for s in state.request.full_path)
        return needed <= instance.cache.pool.capacity_tokens

    def admit_next(
        self,
        instance: Instance,
        queue,
        fit: Sequence[Instance] | None = None,
    ) -> RequestState | None:
        """FCFS admission: plan and allocate the head of ``queue`` on ``instance``.

        Heads that can never fit every instance in ``fit`` (default:
        ``instance`` alone) are dropped.  Returns the admitted head, popped
        from ``queue``; or None when the queue is empty or the pool is
        under pressure, in which case the plan is abandoned and the head
        stays queued for a retry after requests retire.
        """
        if fit is None:
            fit = (instance,)
        while queue:
            state = queue[0]
            if not all(self.can_ever_fit(inst, state) for inst in fit):
                queue.popleft()
                self.drop_request(instance, state)
                continue
            self.plan_prefill(instance, state)
            if not self.allocate_context(instance, state):
                self.abandon_plan(instance, state)
                return None
            queue.popleft()
            return state
        return None

    def drop_request(self, instance: Instance, state: RequestState) -> None:
        """Reject a request that can never be served (context too large)."""
        self.abandon_plan(instance, state)
        state.finished = True
        self.trace_lifecycle(state, None, instant="dropped")
        self._complete_turn(state)

    def finish_request(self, instance: Instance, state: RequestState) -> None:
        """Retire a request: release KV, unblock the session's next turn.

        The KV stays cached for later turns exactly when ``instance``
        shares prefixes across requests.
        """
        state.finished = True
        self.release_request(
            instance, state, keep_cached=instance.cache.enable_prefix_sharing
        )
        self.trace_lifecycle(state, None, instant="finished")
        self._complete_turn(state)
