"""Unit tests for the multiplex engine: partitions, launches, bubbles."""

import pytest

from repro.core.engine import MultiplexEngine
from repro.gpu.device import ExecTask
from repro.serving.base import build_instance
from repro.sim import Simulator


@pytest.fixture
def setup(cfg_70b):
    sim = Simulator()
    instance = build_instance(sim, cfg_70b, cfg_70b.n_gpus, "engine-test")
    engine = MultiplexEngine(sim, instance, cfg_70b, decode_sms=48)
    return sim, instance, engine


def timed_task(instance, sm_count, seconds, done=None, key=""):
    """A compute-only task of ``seconds`` on ``sm_count`` SMs; records its
    completion time as ``done[key]``."""
    return ExecTask(
        flops=instance.device.compute_rate(sm_count) * seconds,
        bytes=0.0,
        on_complete=None if done is None else lambda t: done.setdefault(key, t),
    )


class TestPartitioning:
    def test_initial_partition_covers_gpu(self, setup):
        _, instance, engine = setup
        assert engine.decode_sms + engine.prefill_sms == instance.device.total_sms

    def test_set_partition_resizes_both_streams(self, setup):
        sim, instance, engine = setup
        engine.set_partition(64)
        sim.run()
        assert engine.decode_sms == 64
        assert engine.prefill_sms == instance.device.total_sms - 64
        assert engine.reconfigurations == 2

    def test_same_partition_is_noop(self, setup):
        sim, _, engine = setup
        engine.set_partition(48)
        assert engine.reconfigurations == 0

    def test_prefill_all_expands_over_whole_gpu(self, setup):
        sim, instance, engine = setup
        engine.set_partition(48, prefill_all=True)
        sim.run()
        assert engine.prefill_sms == instance.device.total_sms

    def test_invalid_partition_rejected(self, setup):
        _, instance, engine = setup
        with pytest.raises(ValueError):
            engine.set_partition(0)
        with pytest.raises(ValueError):
            engine.set_partition(instance.device.total_sms)


class TestLaunching:
    def test_decode_launch_pays_graph_launch_time(self, setup, cfg_70b):
        sim, instance, engine = setup
        done = {}
        engine.launch_decode(timed_task(instance, 48, 0.01, done, "t"))
        sim.run()
        assert done["t"] == pytest.approx(cfg_70b.launch.decode_launch() + 0.01, rel=1e-3)

    def test_layerwise_prefill_launch_is_cheap(self, setup, cfg_70b):
        sim, instance, engine = setup
        done = {}
        sms = engine.prefill_sms
        engine.launch_prefill_group(timed_task(instance, sms, 0.01, done, "t"), layer_count=8)
        sim.run()
        expected = cfg_70b.launch.prefill_layers_launch(8) + 0.01
        assert done["t"] == pytest.approx(expected, rel=1e-3)

    def test_non_layerwise_launch_blocks_host(self, cfg_70b):
        """Full-phase launches occupy the host, delaying decode launches —
        the first bubble type of Fig. 9."""
        sim = Simulator()
        instance = build_instance(sim, cfg_70b, cfg_70b.n_gpus, "nb")
        engine = MultiplexEngine(sim, instance, cfg_70b, decode_sms=48, layerwise=False)
        done = {}
        engine.launch_prefill_group(
            timed_task(instance, 60, 0.05), layer_count=80, whole_phase_layers=80
        )
        engine.launch_decode(timed_task(instance, 48, 0.001, done, "t"))
        sim.run()
        full_launch = cfg_70b.launch.full_prefill_launch(80)
        # Decode completion is pushed behind the long prefill launch.
        assert done["t"] >= full_launch

    def test_concurrent_streams_overlap_execution(self, setup):
        sim, instance, engine = setup
        done = {}
        engine.launch_decode(timed_task(instance, 48, 0.1, done, "d"))
        engine.launch_prefill_group(timed_task(instance, engine.prefill_sms, 0.1, done, "p"), 10)
        sim.run()
        # Both finish around 0.1 s (+launches), i.e. they ran concurrently.
        assert done["d"] < 0.12
        assert done["p"] < 0.12


class TestBubbleAccounting:
    def test_bubble_ratio_reflects_idle_streams(self, setup):
        sim, instance, engine = setup
        engine.launch_decode(timed_task(instance, 48, 0.1))
        sim.run(until=0.4)
        # Decode stream busy 0.1/0.4; prefill stream fully idle.
        assert 0.5 < engine.bubble_ratio() <= 1.0

    def test_reset_bubble_accounting(self, setup):
        sim, instance, engine = setup
        engine.launch_decode(timed_task(instance, 48, 0.1))
        sim.run(until=0.2)
        engine.reset_bubble_accounting()
        assert engine.bubble_ratio() == 0.0
