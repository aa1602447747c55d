"""Replica health checking and delivery retry policy for the fleet router.

Crash faults are delivered to the fleet explicitly (the injector calls
:meth:`repro.cluster.fleet.Fleet.fail_replica`), but *hangs* are not: a
wedged partition (hung kernel) simply goes silent.  The
:class:`HealthMonitor` is the watchdog that turns silence into an
actionable failure — it probes every replica on a fixed interval and, after
``misses_to_fail`` consecutive unresponsive probes, declares the replica
dead so the router can fail over its in-flight requests and the fleet can
schedule a restart.

:class:`RetryPolicy` is the router's capped exponential backoff for
re-sending deliveries the (faulty) network dropped, and the bound on how
many times one request may be re-dispatched before it is declared lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim import Simulator
from repro.trace.tracer import CAT_FAULT

if TYPE_CHECKING:
    from repro.cluster.fleet import Fleet, Replica

#: Trace track carrying health probes and failure declarations.
HEALTH_TRACK = "fleet/health"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for router-to-replica deliveries.

    Attributes:
        initial_backoff: Delay before the first retry (seconds).
        multiplier: Backoff growth per attempt.
        max_backoff: Ceiling on any single backoff delay.
        max_attempts: Total re-dispatches (drops + failovers) one request
            may consume before the router declares it lost.
    """

    initial_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.initial_backoff <= 0:
            raise ValueError("initial_backoff must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_backoff < self.initial_backoff:
            raise ValueError("max_backoff must be >= initial_backoff")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.max_backoff, self.initial_backoff * self.multiplier**attempt)


@dataclass
class HealthConfig:
    """Tuning for the fleet health watchdog.

    Attributes:
        interval: Seconds between probe rounds.
        misses_to_fail: Consecutive unresponsive probes before a replica is
            declared dead (so the detection timeout is roughly
            ``interval * misses_to_fail``).
        restart_after: Delay before a watchdog-failed replica is restarted
            with a fresh (cold-cache) serving system; None leaves it dead
            (an autoscaler may still provision a replacement).
    """

    interval: float = 0.25
    misses_to_fail: int = 3
    restart_after: float | None = 2.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.misses_to_fail < 1:
            raise ValueError("misses_to_fail must be >= 1")
        if self.restart_after is not None and self.restart_after < 0:
            raise ValueError("restart_after must be non-negative")


class HealthMonitor:
    """Periodic watchdog: detects hung replicas and triggers failover.

    Probe rounds are *daemon* events while the fleet is idle (they must not
    keep a drained simulation alive) but *productive* events while any work
    is outstanding — a hung replica holding in-flight requests schedules no
    events of its own, so the watchdog's tick is what keeps the simulation
    running until detection and recovery resolve the hang.
    """

    def __init__(self, sim: Simulator, fleet: "Fleet", config: HealthConfig | None = None) -> None:
        self.sim = sim
        self.fleet = fleet
        self.config = config or HealthConfig()
        self.probes = 0
        self.failures_detected = 0
        self._misses: dict[str, int] = {}
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        self.sim.schedule(
            self.config.interval,
            self._tick,
            daemon=not self._work_pending(),
            scope=None,
        )

    def _work_pending(self) -> bool:
        """Outstanding work the watchdog must stay alive to protect."""
        fleet = self.fleet
        if fleet.total_outstanding() > 0 or fleet.router.queue:
            return True
        return any(r.restart_at is not None for r in fleet.replicas)

    def responsive(self, replica: "Replica") -> bool:
        """Whether a probe of ``replica`` would come back in time.

        Delegates to :attr:`repro.cluster.fleet.Replica.responsive` — the
        same observable the router's route-time liveness check uses, so
        the watchdog and the routing policies can never disagree about
        what "answers a probe" means.
        """
        return replica.responsive

    def _tick(self) -> None:
        cfg = self.config
        for replica in self.fleet.replicas:
            if replica.failed:
                self._misses.pop(replica.name, None)
                continue
            self.probes += 1
            if self.responsive(replica):
                self._misses.pop(replica.name, None)
                continue
            misses = self._misses.get(replica.name, 0) + 1
            self._misses[replica.name] = misses
            self._trace("probe-miss", replica.name, misses)
            if misses >= cfg.misses_to_fail:
                self._misses.pop(replica.name, None)
                self.failures_detected += 1
                self._trace("declared-dead", replica.name, misses)
                self.fleet.fail_replica(
                    replica, reason="hung", restart_after=cfg.restart_after
                )
        self._schedule_tick()

    def _trace(self, name: str, replica: str, misses: int) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        tracer.instant(
            HEALTH_TRACK,
            name,
            CAT_FAULT,
            self.sim.now,
            {"replica": replica, "misses": misses},
        )
