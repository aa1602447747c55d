"""CUDA-stream and green-context abstractions on the simulated device.

A :class:`Stream` executes submitted work items serially, like a CUDA stream.
Binding a stream to an SM subset makes it a *green context* (the intra-process
spatial-sharing primitive MuxWise builds on): work items run on exactly
``sm_count`` SMs, and :meth:`Stream.resize` re-binds the stream to a different
SM set at the cost of one stream synchronisation (microseconds), matching the
paper's description of GreenContext reconfiguration.

Work completion is exposed through :class:`OpHandle`, which behaves like a
CUDA event: its ``done`` flag reads without blocking, and callbacks fire at
the completion time.  (MuxWise's query-based synchronisation, §3.2.3, is
modelled by the dispatcher in :mod:`repro.core.server`.)
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.gpu.device import Device, ExecTask
from repro.trace.tracer import CAT_GREENCTX


class Work:
    """A work item described in resource terms (resolved to an ExecTask)."""

    __slots__ = ("flops", "bytes", "fixed_time", "max_bandwidth", "tag")

    def __init__(
        self,
        flops: float,
        bytes: float,
        fixed_time: float = 0.0,
        max_bandwidth: float = math.inf,
        tag: str = "",
    ) -> None:
        self.flops = flops
        self.bytes = bytes
        self.fixed_time = fixed_time
        self.max_bandwidth = max_bandwidth
        self.tag = tag


class OpHandle:
    """Completion handle for one submitted work item (CUDA-event-like)."""

    def __init__(self, tag: str = "") -> None:
        self.tag = tag
        self.done = False
        self.start_time: float | None = None
        self.completion_time: float | None = None
        self._callbacks: list[Callable[[float], None]] = []

    def on_complete(self, callback: Callable[[float], None]) -> None:
        """Register a callback; fires immediately if already complete."""
        if self.done:
            callback(self.completion_time or 0.0)
        else:
            self._callbacks.append(callback)

    def _mark_done(self, time: float) -> None:
        self.done = True
        self.completion_time = time
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(time)


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
        self._queue: deque[tuple[str, object, OpHandle]] = deque()
        self._running: OpHandle | None = None
        #: SM count the in-flight resize (if any) re-binds to.
        self._resize_to = sm_count
        # Busy-time accounting for the bubble-ratio metric (§4.4.2).
        self._busy_seconds = 0.0
        self._window_start = device.sim.now
        self._current_op_start: float | None = None

    @property
    def sm_count(self) -> int:
        """SMs currently bound to this stream (its green-context size)."""
        return self._sm_count

    def submit(self, work: Work) -> OpHandle:
        """Enqueue a work item; runs after everything already queued."""
        handle = OpHandle(tag=work.tag)
        self._queue.append(("work", work, handle))
        self._pump()
        return handle

    def resize(self, sm_count: int) -> OpHandle:
        """Re-bind the stream to ``sm_count`` SMs (green-context resize).

        Takes effect after currently queued work drains, and costs one
        stream synchronisation (``spec.greenctx_reconfig_time``).
        """
        if not 0 < sm_count <= self.device.total_sms:
            raise ValueError(f"sm_count {sm_count} out of range for {self.device.name}")
        handle = OpHandle(tag="resize")
        self._queue.append(("resize", sm_count, handle))
        self._pump()
        return handle

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
        if self._running is not None or not self._queue:
            return
        kind, payload, handle = self._queue.popleft()
        sim = self.device.sim
        now = sim.now
        self._running = handle
        handle.start_time = now
        # Kernels and resizes (a stream synchronisation while it re-binds)
        # both occupy the stream, so neither counts as bubble time.
        self._current_op_start = now
        if kind == "resize":
            self._resize_to = payload
            sim.schedule_at(now + self.device.spec.greenctx_reconfig_time, self._finish_resize)
            return
        work: Work = payload  # type: ignore[assignment]
        task = ExecTask(
            work.flops, work.bytes, self._sm_count, work.fixed_time, work.max_bandwidth,
            work.tag or self.name, self.trace_track, self._op_done,
        )
        self.device.submit(task)

    def _finish_resize(self) -> None:
        handle = self._running
        old_sms, self._sm_count = self._sm_count, self._resize_to
        tracer = self.device.sim.tracer
        if tracer is not None:
            args = {"from_sms": old_sms, "to_sms": self._sm_count}
            now = self.device.sim.now
            tracer.complete(self.trace_track, "resize", CAT_GREENCTX, handle.start_time, now, args)
        self._op_done()

    def _op_done(self, _time: float = 0.0) -> None:
        """The running op (kernel or resize) finished: release the stream."""
        handle = self._running
        now = self.device.sim.now
        if self._current_op_start is not None:
            self._busy_seconds += now - self._current_op_start
            self._current_op_start = None
        self._running = None
        handle._mark_done(now)
        self._pump()
