"""Unit tests for the fluid-flow device: rooflines, contention, memory."""


import pytest

from repro.gpu import A100, H100, Device, ExecTask, OutOfMemoryError
from repro.models.costs import PhaseCost, phase_latency
from repro.sim import Simulator


def make_device(n_gpus: int = 1, spec=A100):
    sim = Simulator()
    return sim, Device(sim, spec, n_gpus=n_gpus)


def run_task(sim, device, **kwargs) -> float:
    done = {}
    task = ExecTask(on_complete=lambda t: done.setdefault("t", t), **kwargs)
    device.submit(task)
    sim.run()
    return done["t"]


class TestSoloExecution:
    def test_compute_bound_task_duration(self):
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms) * 0.5  # exactly 0.5 s
        elapsed = run_task(sim, device, flops=flops, bytes=1.0, sm_count=device.total_sms)
        assert elapsed == pytest.approx(0.5, rel=1e-6)

    def test_memory_bound_task_duration(self):
        sim, device = make_device()
        nbytes = device.effective_bandwidth * 0.25
        elapsed = run_task(sim, device, flops=1.0, bytes=nbytes, sm_count=device.total_sms)
        assert elapsed == pytest.approx(0.25, rel=1e-6)

    def test_roofline_takes_maximum(self):
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms) * 0.4
        nbytes = device.effective_bandwidth * 0.1
        elapsed = run_task(sim, device, flops=flops, bytes=nbytes, sm_count=device.total_sms)
        assert elapsed == pytest.approx(0.4, rel=1e-6)

    def test_fixed_time_appends(self):
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms) * 0.1
        elapsed = run_task(
            sim, device, flops=flops, bytes=0.0, sm_count=device.total_sms, fixed_time=0.05
        )
        assert elapsed == pytest.approx(0.15, rel=1e-6)

    def test_zero_work_task_completes_after_fixed_time(self):
        sim, device = make_device()
        elapsed = run_task(sim, device, flops=0.0, bytes=0.0, sm_count=10, fixed_time=0.01)
        assert elapsed == pytest.approx(0.01, rel=1e-6)

    def test_compute_scales_with_sm_count(self):
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms) * 0.1
        cost = PhaseCost(flops, flops, 0.0, 0.0)
        full = phase_latency(cost, device, device.total_sms)
        half = phase_latency(cost, device, device.total_sms // 2)
        assert half == pytest.approx(2 * full, rel=0.02)

    def test_max_bandwidth_caps_memory_rate(self):
        sim, device = make_device()
        nbytes = device.effective_bandwidth * 0.1
        elapsed = run_task(
            sim,
            device,
            flops=1.0,
            bytes=nbytes,
            sm_count=device.total_sms,
            max_bandwidth=device.effective_bandwidth / 2,
        )
        assert elapsed == pytest.approx(0.2, rel=1e-6)

    def test_tp_group_aggregates_resources(self):
        sim1, one = make_device(n_gpus=1)
        sim8, eight = make_device(n_gpus=8)
        assert eight.effective_bandwidth == pytest.approx(8 * one.effective_bandwidth)
        assert eight.compute_rate(10) == pytest.approx(8 * one.compute_rate(10))

    def test_invalid_sm_count_rejected(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.compute_rate(0)
        with pytest.raises(ValueError):
            device.compute_rate(device.total_sms + 1)


class TestContention:
    def test_memory_bound_corunner_slows_down(self):
        """A memory-bound task co-running with a busy partition slows by a
        bounded factor (the paper's Fig. 11 effect)."""
        sim, device = make_device(n_gpus=8)
        solo_sim, solo_device = make_device(n_gpus=8)
        nbytes = solo_device.effective_bandwidth * 0.05
        solo = run_task(solo_sim, solo_device, flops=1.0, bytes=nbytes, sm_count=48)

        done = {}
        # A compute-bound co-runner (prefill-like): modest bandwidth demand.
        big_flops = device.compute_rate(60) * 0.5
        big_bytes = device.effective_bandwidth * 0.05
        device.submit(ExecTask(flops=big_flops, bytes=big_bytes, sm_count=60))
        device.submit(
            ExecTask(
                flops=1.0,
                bytes=nbytes,
                sm_count=48,
                on_complete=lambda t: done.setdefault("t", t),
            )
        )
        sim.run()
        slowdown = done["t"] / solo
        assert 1.0 <= slowdown <= 1.45

    def test_compute_bound_task_absorbs_interference(self):
        """Compute-bound tasks barely slow down under co-running."""
        sim, device = make_device(n_gpus=8)
        flops = device.compute_rate(48) * 0.2
        solo = phase_latency(PhaseCost(flops, flops, 1e6, 0.0), device, 48)
        done = {}
        device.submit(ExecTask(flops=device.compute_rate(60) * 0.3, bytes=1e9, sm_count=60))
        device.submit(
            ExecTask(
                flops=flops, bytes=1e6, sm_count=48, on_complete=lambda t: done.setdefault("t", t)
            )
        )
        sim.run()
        assert done["t"] <= solo * 1.05

    def test_oversubscribed_sms_share_compute(self):
        """Two full-SM tasks (plain streams) each run at ~half speed."""
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms) * 0.1
        done = {}
        for name in ("a", "b"):
            device.submit(
                ExecTask(
                    flops=flops,
                    bytes=0.0,
                    sm_count=device.total_sms,
                    on_complete=lambda t, n=name: done.setdefault(n, t),
                )
            )
        sim.run()
        assert done["a"] == pytest.approx(0.2, rel=1e-6)
        assert done["b"] == pytest.approx(0.2, rel=1e-6)

    def test_bandwidth_shared_fairly_between_memory_bound_tasks(self):
        sim, device = make_device()
        nbytes = device.effective_bandwidth * 0.1
        done = {}
        for name in ("a", "b"):
            device.submit(
                ExecTask(
                    flops=1.0,
                    bytes=nbytes,
                    sm_count=20,
                    on_complete=lambda t, n=name: done.setdefault(n, t),
                )
            )
        sim.run()
        # Each gets ~half bandwidth (interference makes it slightly worse).
        assert done["a"] == pytest.approx(done["b"], rel=1e-6)
        assert 0.2 <= done["a"] <= 0.25

    def test_h100_contention_stronger_than_a100(self):
        assert H100.contention_kappa > A100.contention_kappa


class TestMemoryAccounting:
    def test_alloc_and_free(self):
        _, device = make_device()
        device.alloc_memory(10 * 2**30)
        assert device.mem_free == pytest.approx(device.mem_capacity - 10 * 2**30)
        device.free_memory(10 * 2**30)
        assert device.mem_free == pytest.approx(device.mem_capacity)

    def test_over_allocation_raises(self):
        _, device = make_device()
        with pytest.raises(OutOfMemoryError):
            device.alloc_memory(device.mem_capacity + 1)

    def test_negative_alloc_rejected(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.alloc_memory(-1)

    def test_free_never_goes_negative(self):
        _, device = make_device()
        device.alloc_memory(100)
        device.free_memory(1e12)
        assert device.mem_allocated == 0.0


class TestStall:
    def test_zero_work_task_does_not_complete_while_stalled(self):
        """A hung partition must not emit completions — not even for tasks
        with no compute or memory work (regression: ``submit`` used to
        finish them immediately, so a dead replica made visible progress)."""
        sim, device = make_device()
        done = []
        device.stall()
        device.submit(ExecTask(flops=0.0, bytes=0.0, sm_count=10, on_complete=done.append))
        sim.run()
        assert done == []  # stalled: no completion may surface
        sim.schedule(3.0, device.unstall)
        sim.run()
        assert done == [3.0]  # retires exactly when the stall clears

    def test_stall_freezes_and_resumes_in_flight_work(self):
        sim, device = make_device()
        done = []
        flops = device.compute_rate(device.total_sms) * 1.0
        device.submit(
            ExecTask(flops=flops, bytes=0.0, sm_count=device.total_sms, on_complete=done.append)
        )
        sim.schedule(0.5, lambda: device.stall(duration=2.0))
        sim.run()
        # 0.5 s of work, 2 s frozen, then the remaining 0.5 s.
        assert done and done[0] == pytest.approx(3.0, rel=1e-6)


class TestUtilization:
    def test_sm_utilization_tracks_busy_fraction(self):
        sim, device = make_device()
        flops = device.compute_rate(device.total_sms // 2) * 1.0
        run_task(sim, device, flops=flops, bytes=0.0, sm_count=device.total_sms // 2)
        sim.schedule(1.0, lambda: None)  # extend the window to t=2
        sim.run()
        util = device.sm_utilization()
        # Half the SMs for half the window.
        assert util == pytest.approx(0.25, rel=0.05)

    def test_reset_accounting(self):
        sim, device = make_device()
        run_task(sim, device, flops=device.compute_rate(50), bytes=0.0, sm_count=50)
        device.reset_accounting()
        assert device.sm_utilization() == 0.0

    def test_memory_tail_holds_no_sms(self):
        """A task whose compute finished long before its memory traffic
        streams the tail without occupying SMs (regression: the integral
        used to accrue sm_count * dt for the whole task lifetime)."""
        sim, device = make_device()
        half = device.total_sms // 2
        flops = device.compute_rate(half) * 0.2  # compute done at t=0.2
        nbytes = device.effective_bandwidth * 1.0  # memory done at t=1.0
        run_task(sim, device, flops=flops, bytes=nbytes, sm_count=half)
        util = device.sm_utilization()
        # Half the SMs for 0.2 s of a 1.0 s window = 10 %, not 50 %.
        assert util == pytest.approx(0.5 * 0.2, rel=0.05)

    def test_bandwidth_utilization_capped_under_mid_window_degradation(self):
        """Degrading bandwidth mid-window must not push utilisation above
        100 % (regression: the denominator used the *current* degraded
        rate for the whole elapsed window)."""
        sim, device = make_device()
        full_bw = device.effective_bandwidth
        nbytes = full_bw * 1.0  # 1 s of traffic at full rate
        done = {}
        device.submit(
            ExecTask(
                flops=1.0,
                bytes=nbytes,
                sm_count=device.total_sms,
                on_complete=lambda t: done.setdefault("t", t),
            )
        )
        sim.schedule(0.5, lambda: device.set_degradation(bandwidth_factor=0.25))
        sim.run()
        util = device.bandwidth_utilization()
        assert util <= 1.0 + 1e-9
        # Served 0.5 + 0.5 of capacity-integral (0.5*1.0 + 2.0*0.25) -> 100 %.
        assert util == pytest.approx(1.0, rel=1e-6)
        assert done["t"] == pytest.approx(2.5, rel=1e-6)

    def test_bandwidth_utilization_integrates_capacity_piecewise(self):
        """After recovery the denominator keeps the degraded interval's
        (smaller) capacity contribution instead of re-pricing the window."""
        sim, device = make_device()
        full_bw = device.effective_bandwidth
        device.set_degradation(bandwidth_factor=0.5)
        nbytes = full_bw * 0.5  # 1 s of traffic at the degraded rate
        done = {}
        device.submit(
            ExecTask(
                flops=1.0,
                bytes=nbytes,
                sm_count=device.total_sms,
                on_complete=lambda t: done.setdefault("t", t),
            )
        )
        sim.run()
        assert done["t"] == pytest.approx(1.0, rel=1e-6)
        assert device.bandwidth_utilization() == pytest.approx(1.0, rel=1e-6)


class TestSubUlpResidue:
    """Late in a run the clock's ulp outgrows a task's last few FLOPs.

    At t≈1e3 an ulp is ~1e-13 s.  A residue just above its completion floor
    whose remaining time is below half of that schedules the device update
    at ``now + horizon == now``; the update then advances by dt == 0 and
    re-fires at the same instant forever unless the residue is snapped.
    """

    def test_residue_completes_within_a_few_events(self):
        sim = Simulator(start_time=1327.0)
        device = Device(sim, A100)
        done = []
        task = ExecTask(
            flops=1.6e10, bytes=0.0, sm_count=device.total_sms, on_complete=done.append
        )
        device.submit(task)
        # Leave a residue just above the 1e-9 relative floor (16 FLOPs):
        # at ~1.3e14 FLOP/s it needs ~1.3e-13 s, under half an ulp of 1327.
        task.rem_flops = task._flops_floor * 1.002
        assert sim.now + task.rem_flops / device.compute_rate(device.total_sms) == sim.now
        device._reschedule()
        sim.run(max_events=10)
        assert done == [1327.0]
        assert sim.pending_productive == 0

    def test_tiny_task_late_in_run_completes(self):
        sim = Simulator(start_time=1000.0)
        device = Device(sim, A100)
        done = []
        device.submit(
            ExecTask(flops=4.0, bytes=0.0, sm_count=device.total_sms, on_complete=done.append)
        )
        sim.run(max_events=10)
        assert done == [1000.0]
