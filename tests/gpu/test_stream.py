"""Unit tests for streams (green contexts), host thread and launch model."""

from dataclasses import replace

import pytest

from repro.gpu import A100, Device, ExecTask, HostThread, LaunchModel, Stream
from repro.gpu.launch import KERNELS_FIXED, KERNELS_PER_LAYER, GraphMemoryModel
from repro.sim import Simulator


def make_stream(sm_count: int = 54):
    sim = Simulator()
    device = Device(sim, A100)
    return sim, device, Stream(device, sm_count)


def timed_task(device: Device, sm_count: int, seconds: float, done: list | None = None) -> ExecTask:
    """A compute-only task of ``seconds`` on ``sm_count`` SMs; its completion
    time is appended to ``done``."""
    return ExecTask(
        flops=device.compute_rate(sm_count) * seconds,
        bytes=0.0,
        on_complete=None if done is None else done.append,
    )


class TestStream:
    def test_work_executes_on_partition(self):
        sim, device, stream = make_stream(54)
        done = []
        stream.submit(timed_task(device, 54, 0.1, done))
        sim.run()
        assert len(done) == 1
        assert done[0] == pytest.approx(0.1, rel=1e-6)

    def test_serial_execution_order(self):
        sim, device, stream = make_stream(54)
        first, second = [], []
        stream.submit(timed_task(device, 54, 0.1, first))
        stream.submit(timed_task(device, 54, 0.1, second))
        sim.run()
        assert first[0] == pytest.approx(0.1, rel=1e-6)
        assert second[0] == pytest.approx(0.2, rel=1e-6)

    def test_query_is_nonblocking(self):
        sim, device, stream = make_stream(54)
        done = []
        stream.submit(timed_task(device, 54, 0.1, done))
        assert done == []
        sim.run()
        assert len(done) == 1

    def test_callback_runs_after_release_before_next_op(self):
        """A task's callback sees the stream idle, and work it submits from
        there queues behind ops that were already waiting."""
        sim, device, stream = make_stream(54)
        order = []

        def first_done(_t):
            order.append(("first", stream._busy))
            stream.submit(timed_task(device, 54, 0.1, order))

        stream.submit(ExecTask(flops=device.compute_rate(54) * 0.1, bytes=0.0, on_complete=first_done))
        stream.submit(timed_task(device, 54, 0.1, order))
        sim.run()
        assert order[0] == ("first", False)
        assert order[1:] == [pytest.approx(0.2, rel=1e-6), pytest.approx(0.3, rel=1e-6)]

    def test_resize_changes_partition_after_queued_work(self):
        sim, device, stream = make_stream(54)
        stream.submit(timed_task(device, 54, 0.1))
        stream.resize(27)
        done = []
        stream.submit(timed_task(device, 27, 0.1, done))
        sim.run()
        assert stream.sm_count == 27
        assert done[0] == pytest.approx(0.1 + A100.greenctx_reconfig_time + 0.1, rel=1e-4)

    def test_task_binds_partition_when_it_starts(self):
        """A task submitted before a resize but queued behind it runs on the
        post-resize SM count: binding happens at start, not at submit."""
        sim, device, stream = make_stream(54)
        stream.submit(timed_task(device, 54, 0.1))
        stream.resize(27)
        task = timed_task(device, 27, 0.1)
        stream.submit(task)
        assert stream.sm_count == 54
        sim.run()
        assert task.sm_count == 27
        assert task.trace_track == stream.trace_track
        assert task.start_time == pytest.approx(0.1 + A100.greenctx_reconfig_time, rel=1e-6)

    def test_resize_validation(self):
        _, device, stream = make_stream()
        with pytest.raises(ValueError):
            stream.resize(0)
        with pytest.raises(ValueError):
            stream.resize(device.total_sms + 1)

    def test_bubble_ratio_counts_idle_time(self):
        sim, device, stream = make_stream(54)
        stream.submit(timed_task(device, 54, 0.5))
        sim.schedule(1.0, lambda: None)  # extend the window to t=1
        sim.run()
        assert stream.bubble_ratio() == pytest.approx(0.5, rel=0.02)

    def test_bubble_ratio_zero_when_always_busy(self):
        sim, device, stream = make_stream(54)
        stream.submit(timed_task(device, 54, 1.0))
        sim.run()
        assert stream.bubble_ratio() == pytest.approx(0.0, abs=1e-6)

    def test_resize_counts_as_busy_not_bubble(self):
        """A green-context resize occupies the stream (it is a stream sync);
        it used to be counted as bubble because the resize path never set
        the op-start marker, inflating the §4.4.2 ratio on re-partitions."""
        spec = replace(A100, greenctx_reconfig_time=0.05)
        sim = Simulator()
        device = Device(sim, spec)
        stream = Stream(device, 54)
        stream.submit(timed_task(device, 54, 0.1))
        stream.resize(27)
        sim.run()
        # Window is 0.15 s: 0.1 s of work + 0.05 s of resize, zero idle.
        assert sim.now == pytest.approx(0.15, rel=1e-6)
        assert stream.bubble_ratio() == pytest.approx(0.0, abs=1e-6)

    def test_idle_time_around_resize_still_counts_as_bubble(self):
        spec = replace(A100, greenctx_reconfig_time=0.05)
        sim = Simulator()
        device = Device(sim, spec)
        stream = Stream(device, 54)
        stream.submit(timed_task(device, 54, 0.1))
        sim.schedule(0.2, lambda: stream.resize(27))
        sim.run()
        # Busy 0.1 (work) + 0.05 (resize) out of a 0.25 s window.
        assert stream.bubble_ratio() == pytest.approx(0.1 / 0.25, rel=1e-4)


class TestHostThread:
    def test_serializes_operations(self):
        sim = Simulator()
        host = HostThread(sim)
        times = []
        host.enqueue(0.01, lambda: times.append(sim.now))
        host.enqueue(0.02, lambda: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(0.01)
        assert times[1] == pytest.approx(0.03)

    def test_busy_flag(self):
        sim = Simulator()
        host = HostThread(sim)
        host.enqueue(0.5, lambda: None)
        assert host.busy
        sim.run()
        assert not host.busy

    def test_busy_seconds_accumulate(self):
        sim = Simulator()
        host = HostThread(sim)
        host.enqueue(0.1, lambda: None)
        host.enqueue(0.2, lambda: None)
        sim.run()
        assert host.busy_seconds == pytest.approx(0.3)

    def test_negative_duration_rejected(self):
        host = HostThread(Simulator())
        with pytest.raises(ValueError):
            host.enqueue(-1.0, lambda: None)


class TestLaunchModel:
    def test_full_prefill_launch_is_tens_of_ms_for_70b(self):
        """The paper: launching a prefill phase takes tens of milliseconds."""
        launch = LaunchModel()
        assert 0.005 <= launch.full_prefill_launch(80) <= 0.05

    def test_layerwise_launch_is_about_10ms_for_70b(self):
        """The paper: piecewise graphs still incur ~10 ms for Llama-70B."""
        launch = LaunchModel()
        assert 0.008 <= launch.layerwise_prefill_launch(80) <= 0.012

    def test_decode_launch_under_half_millisecond(self):
        """The paper: launching a decode iteration takes < 0.5 ms."""
        assert LaunchModel().decode_launch() < 0.5e-3

    def test_kernel_count_scales_with_layers(self):
        launch = LaunchModel()
        assert launch.full_prefill_launch(80) == pytest.approx(
            (80 * KERNELS_PER_LAYER + KERNELS_FIXED) * launch.kernel_launch_time
        )

    def test_graph_memory_scales_with_configs(self):
        graphs = GraphMemoryModel()
        single = graphs.baseline_graphs_bytes(20)
        multi = graphs.decode_graphs_bytes(20, 6)
        assert multi == pytest.approx(6 * single)

    def test_greenctx_pool_is_4mb(self):
        """The paper: creating a group of green contexts requires only 4 MB."""
        assert GraphMemoryModel().greenctx_pool_bytes == 4 * 2**20
