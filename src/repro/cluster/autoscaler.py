"""SLO-driven fleet autoscaling against a replica budget.

The autoscaler samples fleet load on a fixed interval and converges the
routable replica count toward it: sustained per-replica backlog above
``scale_up_outstanding`` adds a replica (reactivating a draining one when
possible — its KV cache is still warm — else provisioning a new one, up to
``max_replicas``); backlog below ``scale_down_outstanding`` drains the
least-loaded replica down to ``min_replicas``.  A drained replica finishes
its in-flight requests but receives no new work.

Scaling actions and load samples land on the ``fleet/autoscaler`` trace
track so capacity changes line up with routing decisions and per-replica
GPU activity in an exported trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.gpu.specs import GPUSpec
from repro.sim import Simulator
from repro.trace.tracer import CAT_ROUTER

if TYPE_CHECKING:
    from repro.cluster.fleet import Fleet

#: Trace track carrying load samples and scale actions.
AUTOSCALER_TRACK = "fleet/autoscaler"


@dataclass
class AutoscalerConfig:
    """Tuning for the fleet autoscaler.

    Attributes:
        interval: Seconds between load samples.
        min_replicas: Never drain below this many routable replicas.
        max_replicas: Replica budget (existing + newly provisioned).
        scale_up_outstanding: Mean in-flight requests per routable replica
            (router queue included) above which a replica is added.
        scale_down_outstanding: Load below which one replica is drained.
        cooldown: Minimum seconds between two scaling actions.
        sku_pool: GPU SKUs (specs or registry names) the autoscaler may
            provision from.  Scale-ups pick the *cheapest* SKU that can
            still hold the model (positive KV pool after weights and
            reserve); scale-downs already retire the most expensive idle
            replica (see :meth:`repro.cluster.fleet.Fleet.drain_one`).
            ``None`` (the default) provisions the base config's SKU,
            byte-identically to the homogeneous autoscaler.
    """

    interval: float = 5.0
    min_replicas: int = 1
    max_replicas: int = 8
    scale_up_outstanding: float = 32.0
    scale_down_outstanding: float = 4.0
    cooldown: float = 10.0
    sku_pool: "Sequence[GPUSpec | str] | None" = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.scale_down_outstanding > self.scale_up_outstanding:
            raise ValueError("scale_down threshold must not exceed scale_up threshold")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class Autoscaler:
    """Periodic controller adding/draining replicas to track fleet load."""

    def __init__(self, sim: Simulator, fleet: "Fleet", config: AutoscalerConfig | None = None) -> None:
        self.sim = sim
        self.fleet = fleet
        self.config = config or AutoscalerConfig()
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        self._last_action = -float("inf")
        # Daemon: load sampling is housekeeping — it must never keep a
        # drained simulation alive (recovery work schedules its own
        # productive events).
        self.sim.schedule(self.config.interval, self._tick, daemon=True, scope=None)

    def _tick(self) -> None:
        fleet = self.fleet
        cfg = self.config
        now = self.sim.now
        routable = fleet.routable_replicas()
        load = fleet.scaling_load()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(
                AUTOSCALER_TRACK,
                "load",
                now,
                {"per_replica": load, "routable": float(len(routable))},
                cat=CAT_ROUTER,
            )
        # Replacing failed capacity bypasses the cooldown: a dead replica
        # with no scheduled restart never comes back on its own, and the
        # fleet should not wait out a scaling cooldown to recover.
        replacement = fleet.replace_failed(cfg.max_replicas)
        if replacement is not None:
            self.replacements += 1
            self._trace_action("replace-failed", replacement.name, load)
        if now - self._last_action >= cfg.cooldown:
            if load > cfg.scale_up_outstanding:
                spec = self._scale_up_spec()
                # Only pass the SKU when the pool picked one: callers (and
                # test stubs) without mixed-SKU support keep the old shape.
                replica = (
                    fleet.scale_up(cfg.max_replicas)
                    if spec is None
                    else fleet.scale_up(cfg.max_replicas, spec=spec)
                )
                if replica is not None:
                    self.scale_ups += 1
                    self._last_action = now
                    self._trace_action("scale-up", replica.name, load)
            elif load < cfg.scale_down_outstanding and len(routable) > cfg.min_replicas:
                victim = fleet.drain_one()
                if victim is not None:
                    self.scale_downs += 1
                    self._last_action = now
                    self._trace_action("drain", victim.name, load)
        # Daemon reschedule: run() ignores daemon events when deciding
        # whether the simulation is drained, so sampling can continue
        # unconditionally without ever holding termination hostage.
        self.sim.schedule(cfg.interval, self._tick, daemon=True, scope=None)

    def _scale_up_spec(self) -> GPUSpec | None:
        """Cheapest SKU from the pool that can still hold the model.

        Feasibility is a capacity check: the candidate server must keep a
        positive KV pool after the weight replica and activation reserve —
        a SKU that fits zero KV pages would thrash, not serve.  ``None``
        (no pool, or nothing feasible) provisions the base config's SKU.
        """
        pool = self.config.sku_pool
        if pool is None:
            return None
        from repro.cluster.fleet import resolve_sku

        base = self.fleet.base_cfg
        candidates = sorted(
            (resolve_sku(sku) for sku in pool),
            key=lambda s: (s.price_per_hour, s.name),
        )
        for spec in candidates:
            cfg = replace(base, spec=spec)
            if cfg.kv_pool_bytes(cfg.n_gpus) > 0:
                return spec
        return None

    def _trace_action(self, action: str, replica: str, load: float) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        tracer.instant(
            AUTOSCALER_TRACK,
            action,
            CAT_ROUTER,
            self.sim.now,
            {"replica": replica, "per_replica_load": load},
        )
