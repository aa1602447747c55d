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
* **Stretch horizons** — :meth:`horizon` bounds how far the decode fast
  path (:mod:`repro.sim.fastpath`) may run one scope ahead as a single
  continuation event.  A fleet that declares its replicas isolated
  (:meth:`set_isolation`) lets a replica's stretch ignore other
  replicas' events; :meth:`schedule_at` then rejects any event that
  would reach a scope at or before its pending stretch end.
* **Stretch footprints** — a stretch holds one heap entry where the scalar
  path holds several and cancels some of them.  Its :class:`Footprint`
  lists the scalar path's heap operations, and the simulator adds their
  running effect wherever it reads the heap length (the high-water mark
  and the compaction test), so both stay exactly the scalar path's.

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
import itertools
import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.sim.events import PRIORITY_NORMAL, Event

_heappush = heapq.heappush

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

#: Sentinel: "inherit the currently active scope" (the default).  Pass
#: ``scope=None`` explicitly to force an event into the global scope even
#: when scheduled from inside a scoped callback (e.g. router retry timers
#: that must survive the target replica's death).
INHERIT_SCOPE: Any = object()


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (e.g. scheduling in the past)."""


#: Names of the :class:`WorkCounters` tallies, in report order.
COUNTER_NAMES = (
    "pushes",
    "cancels",
    "chains_elided",
    "stretches",
    "ledger_writes",
    "bail_head",
    "bail_busy",
    "bail_prefill",
    "bail_plan",
    "bail_pages",
    "bail_partition",
    "realloc_lone",
    "realloc_pair",
    "realloc_general",
    "corun_stretches",
    "corun_bail_state",
    "corun_bail_partition",
    "corun_bail_group",
    "corun_bail_horizon",
    "corun_bail_pages",
    "corun_bail_plan",
)


#: :class:`Footprint` operation kinds: an elided event is pushed, fires,
#: is cancelled, or (cancelled) is popped at its time.
V_PUSH, V_FIRE, V_CANCEL, V_POP = range(4)


class VirtualEntry:
    """One heap entry of the scalar path inside a stretch.

    ``shadow`` marks an entry that is really in the heap too (an event the
    stretch took over, left live with its callback removed); every other
    entry exists only in the plan.  ``dropped``: a compaction removed it
    (while cancelled) from the scalar heap.
    """

    __slots__ = ("time", "seq", "kind", "arg", "shadow", "dropped")

    def __init__(self, time: float, seq: int, kind: int, arg: Any, shadow: Any = None) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.arg = arg
        self.shadow = shadow
        self.dropped = False


class Footprint:
    """The scalar path's heap operations inside one pending stretch.

    ``ops`` are ``(time, kind, entry)`` in scalar order.  Applying them
    keeps ``len_delta``/``cancelled_delta``: the scalar heap's length and
    cancelled count minus the real heap's, for this stretch.  The real heap
    holds the stretch's continuation (``len_delta`` starts at -1) and its
    shadow entry; the scalar heap holds every entry the plan pushed and not
    yet popped.  ``len_max``/``len_min``/``cancelled_max`` bound the deltas
    over the remaining ops, so the simulator applies ops only when a bound
    says a test could come out differently.  ``pending`` and ``cancelled``
    are the plan's entries still queued in the scalar heap after the last
    op, live and cancelled.
    """

    __slots__ = (
        "ops", "pos", "len_delta", "cancelled_delta", "alive_cancelled",
        "len_max", "len_min", "cancelled_max", "dirty", "pending", "cancelled",
    )

    def __init__(
        self,
        ops: list[tuple[float, int, VirtualEntry]],
        pending: list[VirtualEntry],
        cancelled: list[VirtualEntry],
    ) -> None:
        self.ops = ops
        self.pos = 0
        self.len_delta = -1
        self.cancelled_delta = 0
        self.alive_cancelled: list[VirtualEntry] = []
        #: A compaction dropped entries: the final state must be replayed.
        self.dirty = False
        self.pending = pending
        self.cancelled = cancelled
        self.rebound()

    def rebound(self) -> None:
        """Bound the deltas: their extremes over the remaining ops."""
        length = hi = lo = self.len_delta
        cancelled = chi = self.cancelled_delta
        ops = self.ops
        for index in range(self.pos, len(ops)):
            kind, entry = ops[index][1], ops[index][2]
            if kind == V_PUSH:
                length += 1
                if length > hi:
                    hi = length
                continue
            if kind == V_FIRE:
                length -= 1
            elif kind == V_CANCEL:
                cancelled += 1
                if cancelled > chi:
                    chi = cancelled
                continue
            elif entry.dropped:
                if entry.shadow is not None:
                    length += 1
                    if length > hi:
                        hi = length
                continue
            else:
                cancelled -= 1
                if entry.shadow is not None:
                    continue
                length -= 1
            if length < lo:
                lo = length
        self.len_max = hi
        self.len_min = lo
        self.cancelled_max = chi

    def apply(self) -> int:
        """Apply the next op; returns its kind."""
        _, kind, entry = self.ops[self.pos]
        self.pos += 1
        if kind == V_PUSH:
            self.len_delta += 1
        elif kind == V_FIRE:
            self.len_delta -= 1
        elif kind == V_CANCEL:
            self.cancelled_delta += 1
            self.alive_cancelled.append(entry)
        elif entry.dropped:
            if entry.shadow is not None:
                # The real heap pops its live copy; the scalar one is gone.
                self.len_delta += 1
        else:
            self.cancelled_delta -= 1
            if entry.shadow is None:
                self.len_delta -= 1
            self.alive_cancelled.remove(entry)
        return kind

    def fast_forward(self) -> None:
        """Jump to the state after the last op (no compaction dropped any
        entry, so it is the plan's final state)."""
        self.pos = len(self.ops)
        cancelled = self.cancelled
        self.alive_cancelled = list(cancelled)
        self.cancelled_delta = len(cancelled)
        virtual = len(self.pending) + len(cancelled)
        for entry in self.pending:
            if entry.shadow is not None:
                virtual -= 1
        for entry in cancelled:
            if entry.shadow is not None:
                virtual -= 1
        # The continuation (-1) and the last completion, which the plan
        # pushed and the continuation fired (+1), cancel out.
        self.len_delta = virtual

    def drop_cancelled(self) -> None:
        """A compaction removed every cancelled entry from the scalar heap."""
        for entry in self.alive_cancelled:
            entry.dropped = True
            self.len_delta -= 1
            self.cancelled_delta -= 1
        self.alive_cancelled.clear()
        self.dirty = True


class WorkCounters:
    """Deterministic work counters of the event core and decode fast loop.

    Machine-independent tallies of *how* a run was computed, next to its
    event count: events scheduled on the heap (``pushes``) and queued
    events cancelled (``cancels``), decode chains elided
    (``chains_elided``), decode-only stretches applied (``stretches``),
    per-request token-ledger writes (``ledger_writes``: one per request
    per emission call, however many tokens it carries) and the fast
    loop's bails back to the scalar path by reason — the stretch horizon
    too near (``bail_head``), device or launch path busy (``bail_busy``),
    prefill admissible (``bail_prefill``), chain plan rejected
    (``bail_plan``), iterations that fell back to per-request emission
    because the KV page budget could not cover one more token per
    request (``bail_pages``), and MuxWise stretches ended by a change of
    decode partition (``bail_partition``).  Turning the fast path off
    moves them and nothing else, so they stay out of result
    fingerprints.
    """

    __slots__ = COUNTER_NAMES

    def __init__(self) -> None:
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """The counters by name, in report order."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    @staticmethod
    def total(counters: "Iterable[WorkCounters]") -> dict[str, int]:
        """Sum of several runs' counters, by name."""
        sums = dict.fromkeys(COUNTER_NAMES, 0)
        for each in counters:
            for name in COUNTER_NAMES:
                sums[name] += getattr(each, name)
        return sums


#: Open :func:`collect_counters` blocks; each gathers the counters of
#: every simulator built while it is open.
_counter_collectors: list[list[WorkCounters]] = []


@contextmanager
def collect_counters() -> Iterator[list[WorkCounters]]:
    """Gather the :class:`WorkCounters` of every simulator built inside.

    Lets a harness total the counters of a scenario without reaching into
    the systems or fleets the scenario builds.
    """
    built: list[WorkCounters] = []
    _counter_collectors.append(built)
    try:
        yield built
    finally:
        _counter_collectors.remove(built)


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
        #: Source of ``seq``: numbers this simulator's events from 0.
        self._sequence = itertools.count()
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
        #: Tracing's one switch: every component reads ``sim.tracer`` when
        #: it emits and records only while it is set (see :mod:`repro.trace`).
        self.tracer: Tracer | None = None
        # Live bounds of the current run() invocation, exposed so the
        # vectorized decode fast path (:mod:`repro.sim.fastpath`) can elide
        # whole event chains while honouring ``until``/``max_events``
        # byte-identically: an elided chain counts toward the fired-event
        # budget exactly as if each event had been popped and fired.
        self._run_until = math.inf
        self._run_cap = math.inf
        self._fired_in_run = 0
        #: Fast-loop work counters (see :class:`WorkCounters`).
        self.counters = WorkCounters()
        for collector in _counter_collectors:
            collector.append(self.counters)
        #: Fleet-provided test "may one scope's events reach another scope
        #: only through unscoped events right now?" (see :meth:`horizon`).
        self._isolation: Callable[[], bool] | None = None
        #: Unscoped heap entries, kept only while an isolation test is
        #: installed; fired and cancelled entries are dropped lazily.
        self._unscoped: list[tuple[float, int, int, Event]] | None = None
        #: Scope -> end time of its pending decode stretch.
        self._stretch_ends: dict[str | None, float] = {}
        #: Scope -> footprint of its pending stretch, when it has one, and
        #: the sums of their bounds (all 0 while there is none).
        self._footprints: dict[str | None, Footprint] = {}
        self._fp_len_max = 0
        self._fp_len_min = 0
        self._fp_cancelled_max = 0
        #: Footprint ops before this time (and at it, when inclusive) need
        #: no test: a bound or an earlier test covered them.
        self._fp_tested_until = -math.inf
        self._fp_inclusive = False

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Attach (or detach, with ``None``) a :class:`repro.trace.Tracer`.

        Takes effect for every layer at once, at any point of a run.
        """
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
        """Schedule ``callback`` at absolute simulation ``time`` (hot paths
        call this directly with ``sim.now + delay``)."""
        now = self.now
        if time <= now:
            if time < now - self.TIME_EPSILON:
                raise SimulationError(
                    f"cannot schedule at {time:.9f}; clock is at {now:.9f}"
                )
            time = now
        if scope is INHERIT_SCOPE:
            scope = self._current_scope
        ends = self._stretch_ends
        if ends:
            if scope is None:
                self._check_stretches(time)
            else:
                end = ends.get(scope)
                if end is not None and time <= end:
                    self._check_stretches(time, scope)
        seq = next(self._sequence)
        self.counters.pushes += 1
        # Positional construction (see Event.__init__ for the slot order):
        # this runs once per scheduled event.
        event = Event(time, priority, seq, callback, False, self, daemon, scope)
        heap = self._heap
        entry = (time, priority, seq, event)
        _heappush(heap, entry)
        if scope is not None:
            bucket = self._scope_index.get(scope)
            if bucket is None:
                bucket = self._scope_index[scope] = set()
            bucket.add(event)
        elif self._unscoped is not None:
            self._push_unscoped(entry)
        if daemon:
            self._daemon_count += 1
        if len(heap) + self._fp_len_max > self._max_queue:
            self._note_length()
        return event

    def _note_length(self) -> None:
        """The high-water test of a push, with pending stretches' footprints."""
        length = len(self._heap)
        if self._footprints:
            self._catch_up(self.now)
            length += self._fp_sum_len()
        if length > self._max_queue:
            self._max_queue = length

    # ------------------------------------------------------------------ #
    # Stretch horizons (the decode fast path; see repro.sim.fastpath)
    # ------------------------------------------------------------------ #

    def set_isolation(self, isolated: Callable[[], bool] | None) -> None:
        """Install the test that scopes are isolated right now (None: never).

        ``isolated()`` must return True only while no scoped event can
        reach another scope except through an unscoped event: a fleet
        returns True while its router holds no queued or held request.
        """
        self._isolation = isolated
        if isolated is None:
            self._unscoped = None
        elif self._unscoped is None:
            self._unscoped = [entry for entry in self._heap if entry[3].scope is None]
            heapq.heapify(self._unscoped)

    def _push_unscoped(self, entry: tuple[float, int, int, Event]) -> None:
        unscoped = self._unscoped
        # Unscoped events mostly fire in time order, so dropping the fired
        # and cancelled head here keeps the side heap near its live size
        # even when no horizon is asked for.
        while unscoped and (unscoped[0][3].owner is None or unscoped[0][3].cancelled):
            heapq.heappop(unscoped)
        _heappush(unscoped, entry)

    def horizon(self, scope: str | None, exclude: Event | None = None) -> float:
        """Earliest time an event can reach ``scope`` (+inf when none can).

        For ``scope=None``, or while scopes are not isolated, this is the
        raw queue head, cancelled entries included: a cancelled head bounds
        a stretch, and the run loop drops it with exact fidelity.  For an
        isolated scope it is the earlier of the earliest live unscoped
        event (arrivals, retries, faults, daemon ticks) and the earliest
        event of the scope itself.  ``exclude`` is an event of the scope
        that the caller's stretch takes over.
        """
        heap = self._heap
        head = heap[0][0] if heap else math.inf
        isolated = self._isolation
        if scope is None or isolated is None or not isolated():
            if exclude is not None and heap and heap[0][3] is exclude:
                head = min(entry[0] for entry in heap[1:3]) if len(heap) > 1 else math.inf
            return head
        unscoped = self._unscoped
        while unscoped and (unscoped[0][3].owner is None or unscoped[0][3].cancelled):
            heapq.heappop(unscoped)
        bound = unscoped[0][0] if unscoped else math.inf
        bucket = self._scope_index.get(scope)
        if bucket:
            for event in bucket:
                if event.time < bound and event is not exclude:
                    bound = event.time
        return bound

    def begin_stretch(
        self,
        end: float,
        callback: Callable[[], Any],
        footprint: Footprint | None = None,
    ) -> Event:
        """Schedule the continuation of the current scope's decode stretch.

        Until it fires at ``end``, scheduling an event into this scope —
        or an unscoped event — at or before ``end`` raises
        :class:`SimulationError`: such an event would have reached the
        scope inside the stretch.  (A tie at ``end`` would fire in the
        scalar path's order, not the continuation's, so it is rejected
        too.)  Without a ``footprint`` the stretch's scalar path holds
        exactly one queued event at every instant, as the continuation
        does.
        """
        scope = self._current_scope
        if scope in self._stretch_ends:
            raise SimulationError(f"scope {scope!r} already has a pending stretch")
        if footprint is not None:
            self._footprints[scope] = footprint
            self._rebound()
        event = self.schedule_at(end, callback)
        self._stretch_ends[scope] = end
        if footprint is not None:
            self._start_footprint(footprint)
        return event

    def _start_footprint(self, footprint: Footprint) -> None:
        """Apply a new footprint's ops at the current instant: the scalar
        path makes them here, before the rest of the current callback."""
        now = self.now
        ops = footprint.ops
        if not ops or ops[0][0] > now:
            return
        tested = self._fp_check()
        if not tested:
            self._catch_up(now)
        heap = self._heap
        while footprint.pos < len(ops) and ops[footprint.pos][0] <= now:
            kind = footprint.apply()
            if tested:
                continue
            if kind == V_PUSH:
                length = len(heap) + self._fp_sum_len()
                if length > self._max_queue:
                    self._max_queue = length
            elif kind == V_CANCEL:
                self._compaction_test()

    def end_stretch(self) -> Footprint | None:
        """The current scope's stretch continuation fired (called by it).

        Returns its footprint with every op applied; the caller turns the
        entries still queued in the scalar heap into real ones through
        :meth:`adopt_entry` and then calls :meth:`close_footprint`.
        """
        scope = self._current_scope
        del self._stretch_ends[scope]
        footprint = self._footprints.get(scope)
        if footprint is not None:
            now = self.now
            covered = self._fp_tested_until > now or (
                self._fp_tested_until == now and self._fp_inclusive
            )
            if covered and not footprint.dirty:
                footprint.fast_forward()
            else:
                self._catch_up(now, footprint)
        return footprint

    def adopt_entry(
        self,
        footprint: Footprint,
        entry: VirtualEntry,
        callback: Callable[[], Any] | None,
    ) -> Event | None:
        """Make a scalar-heap entry of a finished stretch real.

        A live entry (``callback`` given) is pushed at its time; a cancelled
        one is pushed cancelled, without a cancel count or compaction test
        (its cancel was tested when its op was applied).
        """
        footprint.len_delta -= 1
        if callback is not None:
            return self.schedule_at(entry.time, callback)
        footprint.cancelled_delta -= 1
        footprint.alive_cancelled.remove(entry)
        event = Event(entry.time, PRIORITY_NORMAL, next(self._sequence), None, True, self)
        _heappush(self._heap, (entry.time, PRIORITY_NORMAL, event.seq, event))
        self._cancelled_count += 1
        return None

    def settle_shadow(self, footprint: Footprint, entry: VirtualEntry) -> None:
        """Bring a finished stretch's shadow event to its scalar state.

        Called when the scalar path cancelled the shadow inside the stretch
        and its time lies after it: cancel it without a count or a test,
        or, if a compaction dropped it from the scalar heap, remove it.
        """
        event = entry.shadow
        bucket = self._scope_index.get(event.scope)
        if bucket is not None:
            bucket.discard(event)
        event.cancelled = True
        if entry.dropped:
            event.owner = None
            self._heap.remove((event.time, event.priority, event.seq, event))
            heapq.heapify(self._heap)
            footprint.len_delta += 1
        else:
            self._cancelled_count += 1
            footprint.cancelled_delta -= 1
            footprint.alive_cancelled.remove(entry)

    def close_footprint(self) -> None:
        """Forget the current scope's (fully adopted) stretch footprint."""
        footprint = self._footprints.pop(self._current_scope)
        if footprint.len_delta or footprint.cancelled_delta:
            raise SimulationError(
                f"stretch footprint of scope {self._current_scope!r} left "
                f"{footprint.len_delta} entries, {footprint.cancelled_delta} cancelled"
            )
        self._rebound()

    # ------------------------------------------------------------------ #
    # Footprints: the scalar heap's length while stretches are pending
    # ------------------------------------------------------------------ #

    def _rebound(self) -> None:
        prints = self._footprints.values()
        self._fp_len_max = sum(f.len_max for f in prints)
        self._fp_len_min = sum(f.len_min for f in prints)
        self._fp_cancelled_max = sum(f.cancelled_max for f in prints)

    def _fp_sum_len(self) -> int:
        return sum(f.len_delta for f in self._footprints.values())

    def _fp_check(self) -> bool:
        """Can no footprint op before the next real change set a new
        high-water mark or trigger a compaction?"""
        length = len(self._heap)
        upper = length + self._fp_len_max
        if upper > self._max_queue:
            return False
        return upper < self.COMPACT_MIN_SIZE or 2 * (
            self._cancelled_count + self._fp_cancelled_max
        ) <= length + self._fp_len_min

    def _catch_up(self, limit: float | None, last: Footprint | None = None) -> None:
        """Apply every footprint op before ``limit`` (None: before the next
        live real event) in time order, and all of ``last``'s; test those
        at or after ``_fp_tested_until``.

        A cancelled real entry at or before an op's time is popped first,
        as the scalar loop pops it before that op's event fires (at a tie
        it is the older entry: it was queued before the stretch began).
        """
        prints = list(self._footprints.values())
        heap = self._heap
        tested_from = self._fp_tested_until
        inclusive = self._fp_inclusive
        bound = math.inf if limit is None else limit
        while True:
            best = None
            best_time = bound
            for f in prints:
                if f.pos < len(f.ops):
                    time = f.ops[f.pos][0]
                    if time < best_time or (f is last and best is None and time <= bound):
                        best, best_time = f, time
            if best is None:
                break
            while heap and heap[0][3].cancelled and heap[0][0] <= best_time:
                heapq.heappop(heap)[3].owner = None
                self._cancelled_count -= 1
            if limit is None and heap and not heap[0][3].cancelled and heap[0][0] <= best_time:
                # A live real event comes first (it is the head now).
                break
            kind = best.apply()
            if best_time < tested_from or (best_time == tested_from and inclusive):
                continue
            if kind == V_PUSH:
                length = len(heap) + sum(f.len_delta for f in prints)
                if length > self._max_queue:
                    self._max_queue = length
            elif kind == V_CANCEL:
                self._compaction_test()
        if limit is not None and limit > self._fp_tested_until:
            self._fp_tested_until = limit
            self._fp_inclusive = False

    def _settle_footprints(self) -> None:
        """The run loop's step before the next real event while stretches
        are pending: apply the footprint ops a bound cannot clear, pop the
        cancelled head, and mark every op before the next event (and, under
        a bound, at its time too) as covered."""
        bounded = self._fp_check()
        if not bounded:
            self._catch_up(None)
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3].owner = None
            self._cancelled_count -= 1
        if heap:
            self._fp_tested_until = heap[0][0]
            self._fp_inclusive = bounded

    def _compaction_test(self) -> None:
        """:meth:`_note_cancelled`'s test on the scalar heap's length."""
        length = len(self._heap)
        cancelled = self._cancelled_count
        for f in self._footprints.values():
            length += f.len_delta
            cancelled += f.cancelled_delta
        if length >= self.COMPACT_MIN_SIZE and cancelled * 2 > length:
            self._compact()

    def _check_stretches(self, time: float, scope: str | None = None) -> None:
        """Raise if an event at ``time`` into ``scope`` (None: unscoped)
        would reach a scope inside its pending stretch."""
        for pending, end in self._stretch_ends.items():
            if time <= end and (scope is None or scope == pending):
                raise SimulationError(
                    f"event scheduled at {time:.9f} into scope {scope!r} from "
                    f"scope {self._current_scope!r} would reach scope "
                    f"{pending!r} inside its decode stretch ending at {end:.9f}"
                )

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
        event = self.peek_event()
        return None if event is None else event.time

    def peek_event(self) -> Event | None:
        """The next non-cancelled event (left queued), or None if empty."""
        self._drop_cancelled_head()
        return self._heap[0][3] if self._heap else None

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
        # The finally below restores this after every callback.
        outer_scope = self._current_scope
        try:
            while self._fired_in_run < fired_cap:
                if self._footprints:
                    self._settle_footprints()
                while heap and heap[0][3].cancelled:
                    heappop(heap)[3].owner = None
                    self._cancelled_count -= 1
                if len(heap) - self._cancelled_count - self._daemon_count <= 0:
                    break
                time, _, _, event = heap[0]
                if time > until_cap:
                    stopped_at_until = True
                    break
                heappop(heap)
                event.owner = None
                scope = event.scope
                if scope is not None:
                    bucket = scope_index.get(scope)
                    if bucket is not None:
                        bucket.discard(event)
                if event.daemon:
                    self._daemon_count -= 1
                self.now = time
                self._event_count += 1
                self._fired_in_run += 1
                self._current_scope = scope
                try:
                    callback = event.callback
                    if callback is not None and not event.cancelled:
                        callback()
                finally:
                    self._current_scope = outer_scope
        finally:
            self._running = False
            self._run_until = math.inf
            self._run_cap = math.inf
        if self._stretch_ends:
            # Only the event cap stops a run inside a stretch (a stretch
            # ends within ``until``).  Other scopes' events fired past the
            # point where the scalar run would have stopped, so the partial
            # state is not the scalar one.
            scope, end = next(iter(self._stretch_ends.items()))
            raise SimulationError(
                f"the {max_events}-event cap stopped the run with scope {scope!r} "
                f"inside a decode stretch ending at {end:.9f}: the state is not the "
                "scalar path's (rerun with REPRO_FASTPATH=0)"
            )
        if stopped_at_until and self.now < until:
            self.now = until

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
        self.counters.cancels += 1
        if event.daemon:
            self._daemon_count -= 1
        if event.scope is not None:
            bucket = self._scope_index.get(event.scope)
            if bucket is not None:
                bucket.discard(event)
        if self._footprints:
            if not self._fp_check():
                self._catch_up(self.now)
                self._compaction_test()
        elif (
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
        if self._footprints:
            # The scalar heap drops the stretches' cancelled entries too.
            for footprint in self._footprints.values():
                footprint.drop_cancelled()
                footprint.rebound()
            self._rebound()
