"""Delivers a :class:`~repro.faults.plan.FaultPlan` into a running fleet.

The injector is the runtime half of the chaos harness: :meth:`arm`
schedules one simulator event per fault spec and installs the injector as
the router's delivery network (so delay/drop windows apply to every
dispatch).  All randomness — victim selection when a spec names no target,
per-delivery drop decisions — comes from one ``random.Random(plan.seed)``,
so a (plan, seed, workload) triple replays identically.

Faults are *injected* here; *recovery* lives where it belongs — the router
fails over in-flight work, the health watchdog detects hangs, the fleet
restarts or replaces replicas.  The injector only breaks things and counts
what it broke.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.serving.base import iter_instances
from repro.sim import Simulator
from repro.trace.tracer import CAT_FAULT
from repro.workloads.request import Request

if TYPE_CHECKING:
    from repro.cluster.fleet import Fleet, Replica

#: Trace track carrying every injected fault.
FAULT_TRACK = "fleet/faults"


class FaultInjector:
    """Schedules a plan's faults against one fleet (see module docstring)."""

    def __init__(self, sim: Simulator, fleet: "Fleet", plan: FaultPlan) -> None:
        self.sim = sim
        self.fleet = fleet
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.injected = 0
        self.skipped = 0
        self.by_kind: dict[str, int] = {kind.value: 0 for kind in FaultKind}
        #: In-flight count observed on each killed replica at kill time —
        #: the integration tests' bound on how many completions a crash may
        #: legitimately cost.
        self.inflight_at_kill: list[int] = []
        #: Open (start, end, magnitude) windows; end=None means unbounded.
        self._delay_windows: list[tuple[float, float | None, float]] = []
        self._drop_windows: list[tuple[float, float | None, float]] = []
        self._armed = False

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def arm(self) -> None:
        """Schedule every spec and hook into the router's delivery path.

        Fault events are productive (they must fire even in an otherwise
        idle fleet) and scope-free (no replica's death cancels the plan).
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        self.fleet.router.network = self
        for spec in self.plan:
            self.sim.schedule_at(
                spec.at, lambda s=spec: self._fire(s), scope=None
            )

    # ------------------------------------------------------------------ #
    # Delivery network hook (router calls this for every dispatch)
    # ------------------------------------------------------------------ #

    def disposition(
        self, request: Request, replica: "Replica", now: float
    ) -> tuple[bool, float]:
        """(dropped, extra_delay) for one delivery, per the open windows."""
        extra = sum(
            magnitude
            for start, end, magnitude in self._delay_windows
            if start <= now and (end is None or now < end)
        )
        for start, end, probability in self._drop_windows:
            if start <= now and (end is None or now < end):
                if self._rng.random() < probability:
                    return True, extra
        return False, extra

    # ------------------------------------------------------------------ #
    # Fault delivery
    # ------------------------------------------------------------------ #

    def _fire(self, spec: FaultSpec) -> None:
        handler = {
            FaultKind.REPLICA_KILL: self._kill,
            FaultKind.DEVICE_DEGRADE: self._degrade,
            FaultKind.PARTITION_STALL: self._stall,
            FaultKind.NETWORK_DELAY: self._network_delay,
            FaultKind.NETWORK_DROP: self._network_drop,
            FaultKind.PREEMPTION_STORM: self._storm,
        }[spec.kind]
        delivered = handler(spec)
        if delivered:
            self.injected += 1
            self.by_kind[spec.kind.value] += 1
        else:
            self.skipped += 1
            self._trace("fault-skipped", {"kind": spec.kind.value})

    def _resolve(self, spec: FaultSpec) -> "Replica | None":
        """Pick the spec's victim: by name, else seeded-RNG over the living."""
        if spec.target is not None:
            for replica in self.fleet.replicas:
                if replica.name == spec.target and not replica.failed:
                    return replica
            return None
        alive = [r for r in self.fleet.replicas if not r.failed]
        if not alive:
            return None
        return self._rng.choice(sorted(alive, key=lambda r: r.index))

    def _kill(self, spec: FaultSpec) -> bool:
        replica = self._resolve(spec)
        if replica is None:
            return False
        inflight = len(replica.inflight)
        self.inflight_at_kill.append(inflight)
        self._trace(
            "replica-kill",
            {
                "replica": replica.name,
                "inflight": inflight,
                "restart_after": spec.restart_after,
            },
        )
        self.fleet.fail_replica(
            replica, reason="kill", restart_after=spec.restart_after
        )
        return True

    def _degrade(self, spec: FaultSpec) -> bool:
        replica = self._resolve(spec)
        if replica is None:
            return False
        devices = [inst.device for inst in iter_instances(replica.system)]
        # Scope the degradation (and its recovery event) to the replica's
        # current generation: if the replica is killed meanwhile, the
        # restore event dies with the degraded devices it would have fixed.
        with self.sim.scope(replica.scope):
            for device in devices:
                device.set_degradation(
                    bandwidth_factor=spec.magnitude, compute_factor=spec.magnitude
                )
            if spec.duration > 0:
                self.sim.schedule(
                    spec.duration,
                    lambda: [d.set_degradation(1.0, 1.0) for d in devices],
                )
        self._trace(
            "device-degrade",
            {
                "replica": replica.name,
                "magnitude": spec.magnitude,
                "duration": spec.duration,
            },
        )
        return True

    def _stall(self, spec: FaultSpec) -> bool:
        replica = self._resolve(spec)
        if replica is None:
            return False
        duration = spec.duration if spec.duration > 0 else None
        with self.sim.scope(replica.scope):
            for inst in iter_instances(replica.system):
                inst.device.stall(duration)
        self._trace(
            "partition-stall",
            {"replica": replica.name, "duration": spec.duration},
        )
        return True

    def _network_delay(self, spec: FaultSpec) -> bool:
        end = self.sim.now + spec.duration if spec.duration > 0 else None
        self._delay_windows.append((self.sim.now, end, spec.magnitude))
        self._trace(
            "network-delay", {"extra": spec.magnitude, "duration": spec.duration}
        )
        return True

    def _network_drop(self, spec: FaultSpec) -> bool:
        end = self.sim.now + spec.duration if spec.duration > 0 else None
        self._drop_windows.append((self.sim.now, end, spec.magnitude))
        self._trace(
            "network-drop", {"probability": spec.magnitude, "duration": spec.duration}
        )
        return True

    def _storm(self, spec: FaultSpec) -> bool:
        replica = self._resolve(spec)
        if replica is None:
            return False
        replica.system.force_preempt()
        self._trace("preemption-storm", {"replica": replica.name})
        return True

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> dict[str, object]:
        """Counters for the chaos report (stable key order for JSON)."""
        out: dict[str, object] = {
            "faults/injected": self.injected,
            "faults/skipped": self.skipped,
        }
        for kind in FaultKind:
            out[f"faults/{kind.value}"] = self.by_kind[kind.value]
        out["faults/inflight_at_kill"] = list(self.inflight_at_kill)
        return out

    def _trace(self, name: str, args: dict) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        tracer.instant(FAULT_TRACK, name, CAT_FAULT, self.sim.now, args)
