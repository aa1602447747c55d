"""Event primitives for the discrete-event simulation engine.

The simulator is callback-based: an :class:`Event` wraps a callable scheduled
to fire at an absolute simulation time.  Events are totally ordered by
``(time, priority, sequence)`` so that simultaneous events fire in a
deterministic order (insertion order within the same priority class).
"""

from __future__ import annotations

from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for events that must observe the state *after* all normal events
#: at the same timestamp (e.g. schedulers reacting to completions).
PRIORITY_LATE = 10
#: Priority for events that must fire before normal events at a timestamp.
PRIORITY_EARLY = -10


class Event:
    """A scheduled callback.

    A plain ``__slots__`` class, not a dataclass: every simulated request
    creates dozens of events, so construction cost and per-instance memory
    are on the simulator's hot path.  Ordering is ``(time, priority, seq)``
    via a hand-written :meth:`__lt__` (the only comparison ``heapq`` uses)
    — identical ordering semantics to the previous ``dataclass(order=True)``
    without building a key tuple per comparison.

    Events are NOT pooled/recycled on purpose: a stale reference calling
    ``cancel()`` after its event fired must hit the original (inert) object,
    never a recycled one carrying someone else's callback.

    Attributes:
        time: Absolute simulation time (seconds) at which to fire.
        priority: Tie-break class; lower fires first at equal times.
        seq: Insertion counter of the owning simulator (each simulator
            numbers its own events from 0); preserves FIFO order for ties.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Cancelled events are skipped when popped.
        owner: The simulator holding this event in its queue; notified on
            the first ``cancel()`` so it can keep an O(1) count of dead
            queue entries (and compact the heap when they pile up).
        daemon: Housekeeping events (periodic health probes, autoscaler
            samples) that must never keep a simulation alive on their own:
            :meth:`Simulator.run` stops once only daemon events remain.
        scope: Failure-domain tag.  Events scheduled while a scope is
            active (see :meth:`Simulator.scope`) inherit it, as do events
            scheduled from inside their callbacks, so an entire causal
            cascade can be cancelled at once with
            :meth:`Simulator.cancel_scope` — this is how a replica kill
            silences every in-flight callback of the dead serving system.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "cancelled",
        "owner",
        "daemon",
        "scope",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any] | None = None,
        cancelled: bool = False,
        owner: Any = None,
        daemon: bool = False,
        scope: str | None = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.owner = owner
        self.daemon = daemon
        self.scope = scope

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, cancelled={self.cancelled!r}, "
            f"daemon={self.daemon!r}, scope={self.scope!r})"
        )

    def cancel(self) -> None:
        """Mark the event so it is skipped when it reaches the queue head."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled(self)

    def fire(self) -> None:
        """Invoke the callback unless cancelled."""
        if not self.cancelled and self.callback is not None:
            self.callback()
