"""The host-side CPU thread that launches GPU work.

Kernel launches are *host* work: while the serving process is launching the
tens of kernels of a prefill phase, it cannot launch the next decode
iteration.  This serialization is the root cause of the first bubble type in
the paper's Figure 9 ("prefill launch time exceeds the execution time of a
decode iteration"), so the simulator models the host explicitly as a single
serial queue of timed launch operations.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim import Event, Simulator
from repro.trace.tracer import CAT_LAUNCH


class HostThread:
    """A single serial CPU thread issuing launches to the device.

    ``enqueue(duration, action)`` models a host operation that occupies the
    thread for ``duration`` seconds and then runs ``action`` (typically a
    stream submission, which is instantaneous once launched).
    """

    def __init__(self, sim: Simulator, name: str = "host") -> None:
        self.sim = sim
        self.name = name
        #: Trace row for this thread's launch-occupancy spans.
        self.trace_track = f"host/{name}"
        self._queue: deque[tuple[float, Callable[[], None], str]] = deque()
        self._busy = False
        self._busy_seconds = 0.0
        # The operation in flight: its action, trace label and start time,
        # and the event that finishes it.
        self._current: tuple[Callable[[], None], str, float] | None = None
        self._finish_event: Event | None = None

    @property
    def busy(self) -> bool:
        """True while a launch operation is in flight."""
        return self._busy

    @property
    def idle(self) -> bool:
        """True when no launch operation is in flight or queued."""
        return not self._busy and not self._queue

    @property
    def busy_seconds(self) -> float:
        """Cumulative host time spent launching."""
        return self._busy_seconds

    def enqueue(
        self, duration: float, action: Callable[[], None], label: str = "launch"
    ) -> None:
        """Queue a host operation of ``duration`` seconds ending in ``action``.

        ``label`` names the operation in recorded traces (e.g. the launch
        kind from :mod:`repro.gpu.launch`).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._queue.append((duration, action, label))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        duration, action, label = self._queue.popleft()
        self._busy = True
        self._busy_seconds += duration
        now = self.sim.now
        self._current = (action, label, now)
        self._finish_event = self.sim.schedule_at(now + duration, self._finish)

    def _finish(self) -> None:
        """The in-flight operation's host time elapsed: run its action."""
        self._busy = False
        action, label, started = self._current
        self._current = None
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(self.trace_track, label, CAT_LAUNCH, started, self.sim.now)
        action()
        self._pump()
