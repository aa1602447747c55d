"""CUDA-stream and green-context abstractions on the simulated device.

A :class:`Stream` is a serial queue of :class:`~repro.gpu.device.ExecTask`
items bound to an SM partition, like a CUDA stream on a *green context* (the
intra-process spatial-sharing primitive MuxWise builds on).  A task runs on
exactly the stream's ``sm_count`` SMs: the stream binds the task's
``sm_count`` and ``trace_track`` when the task reaches the head of the queue,
not when it is submitted, so a task queued behind :meth:`Stream.resize` runs
on the post-resize partition.  A resize re-binds the stream to a different SM
set at the cost of one stream synchronisation (microseconds), matching the
paper's description of GreenContext reconfiguration.

The task's own ``on_complete`` fires when it finishes, after the stream has
released itself and before the next queued op starts.  (MuxWise's query-based
synchronisation, §3.2.3, is modelled by the dispatcher in
:mod:`repro.core.server`.)
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.gpu.device import Device, ExecTask
from repro.trace.tracer import CAT_GREENCTX


class Stream:
    """A serial execution queue bound to an SM partition of a device."""

    def __init__(self, device: Device, sm_count: int, name: str = "stream") -> None:
        if not 0 < sm_count <= device.total_sms:
            raise ValueError(f"sm_count {sm_count} out of range for {device.name}")
        self.device = device
        self.name = name
        #: Trace row for this stream's kernels and resizes.
        self.trace_track = f"gpu/{device.name}/{name}"
        self._sm_count = sm_count
        #: Queued ops: a task, or the SM count of a resize.
        self._queue: deque[ExecTask | int] = deque()
        self._busy = False
        #: The running task and its own completion callback.
        self._task: ExecTask | None = None
        self._on_done: Callable[[float], None] | None = None
        #: SM count and start time of the in-flight resize (if any).
        self._resize_to = sm_count
        self._resize_start = 0.0
        # Busy-time accounting for the bubble-ratio metric (§4.4.2).
        self._busy_seconds = 0.0
        self._window_start = device.sim.now
        self._current_op_start: float | None = None

    @property
    def sm_count(self) -> int:
        """SMs currently bound to this stream (its green-context size)."""
        return self._sm_count

    @property
    def idle(self) -> bool:
        """True when no task or resize is running or queued."""
        return not self._busy and not self._queue

    def submit(self, task: ExecTask) -> None:
        """Enqueue ``task``; it runs after everything already queued."""
        self._queue.append(task)
        self._pump()

    def resize(self, sm_count: int) -> None:
        """Re-bind the stream to ``sm_count`` SMs (green-context resize).

        Takes effect after currently queued work drains, and costs one
        stream synchronisation (``spec.greenctx_reconfig_time``).
        """
        if not 0 < sm_count <= self.device.total_sms:
            raise ValueError(f"sm_count {sm_count} out of range for {self.device.name}")
        self._queue.append(sm_count)
        self._pump()

    # ------------------------------------------------------------------ #
    # Bubble accounting
    # ------------------------------------------------------------------ #

    def reset_accounting(self) -> None:
        """Restart the busy-time window used for the bubble ratio."""
        self._busy_seconds = 0.0
        self._window_start = self.device.sim.now
        if self._current_op_start is not None:
            self._current_op_start = self.device.sim.now

    def bubble_ratio(self) -> float:
        """Fraction of the window in which the stream ran no kernel."""
        now = self.device.sim.now
        span = now - self._window_start
        if span <= 0:
            return 0.0
        busy = self._busy_seconds
        if self._current_op_start is not None:
            busy += now - self._current_op_start
        return max(0.0, 1.0 - busy / span)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        op = self._queue.popleft()
        sim = self.device.sim
        now = sim.now
        self._busy = True
        # Kernels and resizes (a stream synchronisation while it re-binds)
        # both occupy the stream, so neither counts as bubble time.
        self._current_op_start = now
        if not isinstance(op, ExecTask):
            self._resize_to = op
            self._resize_start = now
            sim.schedule_at(now + self.device.spec.greenctx_reconfig_time, self._finish_resize)
            return
        self._task = op
        op.sm_count = self._sm_count
        op.trace_track = self.trace_track
        if not op.tag:
            op.tag = self.name
        self._on_done, op.on_complete = op.on_complete, self._op_done
        self.device.submit(op)

    def _finish_resize(self) -> None:
        old_sms, self._sm_count = self._sm_count, self._resize_to
        tracer = self.device.sim.tracer
        if tracer is not None:
            args = {"from_sms": old_sms, "to_sms": self._sm_count}
            now = self.device.sim.now
            tracer.complete(self.trace_track, "resize", CAT_GREENCTX, self._resize_start, now, args)
        self._op_done()

    def _op_done(self, _time: float = 0.0) -> None:
        """The running op (task or resize) finished: release the stream,
        run the task's own callback, then start the next op."""
        now = self.device.sim.now
        if self._current_op_start is not None:
            self._busy_seconds += now - self._current_op_start
            self._current_op_start = None
        self._busy = False
        on_done, self._on_done = self._on_done, None
        if on_done is not None:
            on_done(now)
        self._pump()
