"""The discrete-event simulator core.

Everything in the reproduction — GPU kernels, request arrivals, scheduler
decisions — runs on one :class:`Simulator`.  The simulator owns the virtual
clock and an event heap; components schedule callbacks at future times and
the main loop advances the clock from event to event.

Two refinements support fault injection (:mod:`repro.faults`):

* **Daemon events** — housekeeping callbacks (health probes, autoscaler
  samples) marked ``daemon=True`` never keep a run alive: :meth:`run`
  returns once only daemon events remain, so a periodic monitor cannot
  spin a drained fleet forever.
* **Event scopes** — events carry an optional failure-domain tag, inherited
  both lexically (:meth:`scope`) and causally (events scheduled from a
  scoped callback keep its scope).  :meth:`cancel_scope` then cancels an
  entire cascade at once, which is how a replica kill silences the dead
  system's in-flight device updates, host callbacks and completions.

Example:
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sim.events import PRIORITY_NORMAL, Event

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

#: Sentinel: "inherit the currently active scope" (the default).  Pass
#: ``scope=None`` explicitly to force an event into the global scope even
#: when scheduled from inside a scoped callback (e.g. router retry timers
#: that must survive the target replica's death).
INHERIT_SCOPE: Any = object()


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (e.g. scheduling in the past)."""


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Time is a float in seconds.  Events scheduled at the same instant fire in
    ``(priority, insertion order)`` — deterministic and reproducible.
    """

    #: Tolerance for "scheduling in the past" checks; protects against
    #: floating-point round-off when chaining zero-delay events.
    TIME_EPSILON = 1e-12

    #: Below this queue size, cancelled events are never compacted eagerly
    #: (the O(n) rebuild is not worth it for tiny heaps).
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property) because components read it on every hot-path callback;
        #: only the simulator's own event loop may assign it.
        self.now = start_time
        #: Heap of ``(time, priority, seq, event)`` tuples.  Storing the sort
        #: key as a tuple prefix keeps every heap comparison in C: ``seq`` is
        #: unique per event, so ties never reach the :class:`Event` element
        #: and Python-level ``__lt__`` is never invoked on the hot path.
        #: The ordering is exactly :class:`Event`'s own ``(time, priority,
        #: seq)`` order, so behaviour is byte-identical to heaping events.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._event_count = 0
        self._cancelled_count = 0
        self._daemon_count = 0
        self._max_queue = 0
        self._running = False
        self._current_scope: str | None = None
        #: Scope name -> live scoped events still in the queue.  Makes
        #: :meth:`cancel_scope` O(|scope|) instead of O(|heap|).  Invariant:
        #: an event appears in its scope's bucket iff it is in the heap and
        #: not cancelled — maintained on schedule (add), pop (discard) and
        #: cancel (discard, via :meth:`_note_cancelled`).
        self._scope_index: dict[str, set[Event]] = {}
        #: Optional tracing sink; components emit through ``sim.tracer``
        #: when it is attached and enabled (see :mod:`repro.trace`).
        self.tracer: Tracer | None = None
        # Live bounds of the current run() invocation, exposed so the
        # vectorized decode fast path (:mod:`repro.sim.fastpath`) can elide
        # whole event chains while honouring ``until``/``max_events``
        # byte-identically: an elided chain counts toward the fired-event
        # budget exactly as if each event had been popped and fired.
        self._run_until = math.inf
        self._run_cap = math.inf
        self._fired_in_run = 0

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Attach (or detach, with ``None``) a :class:`repro.trace.Tracer`."""
        self.tracer = tracer

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (daemons included)."""
        return len(self._heap) - self._cancelled_count

    @property
    def pending_productive(self) -> int:
        """Non-cancelled, non-daemon events still queued.

        This is the quantity :meth:`run` drains: when it reaches zero the
        simulation is over even if daemon housekeeping remains scheduled.
        """
        return self.pending_events - self._daemon_count

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._event_count

    @property
    def max_event_queue(self) -> int:
        """High-water mark of the event queue (cancelled entries included).

        Deterministic for a given run, so the perf harness folds it into
        the result fingerprint as a cheap structural invariant.
        """
        return self._max_queue

    @property
    def current_scope(self) -> str | None:
        """Scope new events inherit right now (None = global)."""
        return self._current_scope

    @contextmanager
    def scope(self, name: str | None) -> Iterator[None]:
        """Run a block with ``name`` as the active event scope.

        Events scheduled inside the block — and, transitively, from the
        callbacks of those events — carry the scope and can all be
        cancelled with :meth:`cancel_scope`.
        """
        previous = self._current_scope
        self._current_scope = name
        try:
            yield
        finally:
            self._current_scope = previous

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
        daemon: bool = False,
        scope: str | None | Any = INHERIT_SCOPE,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        """
        return self.schedule_at(self.now + delay, callback, priority, daemon, scope)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
        daemon: bool = False,
        scope: str | None | Any = INHERIT_SCOPE,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        now = self.now
        if time < now - self.TIME_EPSILON:
            raise SimulationError(
                f"cannot schedule at {time:.9f}; clock is at {now:.9f}"
            )
        if time <= now:
            time = now
        event_scope = self._current_scope if scope is INHERIT_SCOPE else scope
        # Positional construction (see Event.__init__ for the slot order):
        # this runs once per scheduled event.
        event = Event(time, priority, None, callback, False, self, daemon, event_scope)
        heap = self._heap
        heapq.heappush(heap, (time, priority, event.seq, event))
        if event_scope is not None:
            bucket = self._scope_index.get(event_scope)
            if bucket is None:
                bucket = self._scope_index[event_scope] = set()
            bucket.add(event)
        if daemon:
            self._daemon_count += 1
        if len(heap) > self._max_queue:
            self._max_queue = len(heap)
        return event

    def cancel_scope(self, name: str) -> int:
        """Cancel every pending event tagged with scope ``name``.

        Used by the fault layer to take a whole failure domain (one replica
        and everything it scheduled) out of the simulation atomically.
        Returns the number of events cancelled.
        """
        bucket = self._scope_index.pop(name, None)
        if not bucket:
            return 0
        cancelled = 0
        # Snapshot: each cancel() discards from the bucket (a no-op here,
        # the bucket is already popped) and may compact the heap.
        for event in list(bucket):
            if not event.cancelled:
                event.cancel()
                cancelled += 1
        return cancelled

    def peek_time(self) -> float | None:
        """Time of the next non-cancelled event, or None if the queue is empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns False if no events remain."""
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)[3]
        event.owner = None
        if event.scope is not None:
            bucket = self._scope_index.get(event.scope)
            if bucket is not None:
                bucket.discard(event)
        if event.daemon:
            self._daemon_count -= 1
        self.now = event.time
        self._event_count += 1
        previous_scope = self._current_scope
        self._current_scope = event.scope
        try:
            event.fire()
        finally:
            self._current_scope = previous_scope
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the productive queue drains, the clock passes
        ``until``, or ``max_events`` have fired.

        Daemon events do not count as pending work: once only daemons
        remain the run is over (they are left unfired in the queue).  When
        the run stops *because* the next event lies past ``until``, the
        clock is left exactly at ``until``; if the queue drained earlier
        the clock stays at the last event (no artificial idle time is
        appended), and if the loop stopped on ``max_events`` the clock
        stays at the last fired event — events scheduled before ``until``
        are still pending, and jumping ahead would make a later ``run()``
        or ``step()`` move the clock backwards.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        stopped_at_until = False
        # Hot loop: this is ``while: peek_time(); step()`` inlined, with
        # attribute lookups hoisted.  ``heap`` stays a valid alias of
        # ``self._heap`` because :meth:`_compact` rebuilds it in place.
        # The ``until``/``max_events`` guards become plain comparisons
        # against +inf sentinels (no event time or count ever reaches inf
        # without the original None check tripping identically).
        heap = self._heap
        heappop = heapq.heappop
        scope_index = self._scope_index
        until_cap = math.inf if until is None else until
        fired_cap = math.inf if max_events is None else max_events
        # The fired counter and caps live on the instance for the duration
        # of the run so the decode fast path can charge elided chain events
        # against the same budget the scalar loop would have (see
        # repro.sim.fastpath).  The counter is bumped at pop time, before
        # the callback, so in-callback code sees the current event counted.
        self._run_until = until_cap
        self._run_cap = fired_cap
        self._fired_in_run = 0
        try:
            while True:
                if self._fired_in_run >= fired_cap:
                    break
                while heap and heap[0][3].cancelled:
                    heappop(heap)[3].owner = None
                    self._cancelled_count -= 1
                if len(heap) - self._cancelled_count - self._daemon_count <= 0:
                    break
                head = heap[0]
                if head[0] > until_cap:
                    stopped_at_until = True
                    break
                event = head[3]
                heappop(heap)
                event.owner = None
                scope = event.scope
                if scope is not None:
                    bucket = scope_index.get(scope)
                    if bucket is not None:
                        bucket.discard(event)
                if event.daemon:
                    self._daemon_count -= 1
                self.now = event.time
                self._event_count += 1
                self._fired_in_run += 1
                previous_scope = self._current_scope
                self._current_scope = scope
                try:
                    if not event.cancelled and event.callback is not None:
                        event.callback()
                finally:
                    self._current_scope = previous_scope
        finally:
            self._running = False
            self._run_until = math.inf
            self._run_cap = math.inf
        if stopped_at_until and self.now < until:
            self.now = until

    def _fastpath_head_time(self) -> float:
        """Raw time of the queue head (cancelled entries included), or +inf.

        Used by the decode fast path as the conservative bound on how far a
        chain may be elided.  Cancelled entries are deliberately *not*
        skipped: doing so would pop them earlier than the scalar run loop
        does and change the queue-depth high-water mark.  A cancelled head
        simply forces a flush back to the scalar path, which drops it with
        exact fidelity.
        """
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)[3].owner = None
            self._cancelled_count -= 1

    def _note_cancelled(self, event: Event) -> None:
        """An event still in the queue was cancelled (called by Event).

        Keeps :attr:`pending_events` O(1) and compacts the heap once more
        than half of it is dead weight, bounding memory growth of workloads
        that cancel aggressively (e.g. the device's rolling update events).
        """
        self._cancelled_count += 1
        if event.daemon:
            self._daemon_count -= 1
        if event.scope is not None:
            bucket = self._scope_index.get(event.scope)
            if bucket is not None:
                bucket.discard(event)
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_count * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events.

        In place (``self._heap[:] = ...``): :meth:`run` holds a local alias
        of the heap list across callbacks, and a callback's ``cancel()`` can
        land here mid-loop.
        """
        live = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3].owner = None
            else:
                live.append(entry)
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled_count = 0
