"""Bubble-less multiplex engine (§3.2).

Owns the two green contexts (decode stream, prefill stream) of one serving
instance, the shared host launch thread, and the launch-overhead modelling:

* Decode iterations launch as a single captured CUDA graph (~0.5 ms host).
* Prefill launches **layer-wise** as piecewise per-layer graphs (~0.125 ms
  per layer), so groups of prefill layers can be sized to match a decode
  iteration and re-partitioned/preempted at group boundaries.
* With layer-wise execution disabled (ablation, Fig. 19), a prefill launches
  as one kernel-by-kernel phase whose long host occupancy delays subsequent
  decode launches — the first bubble type of Fig. 9.

The engine also exposes stream bubble ratios (Fig. 19's evaluation metric).
"""

from __future__ import annotations

from functools import partial

from repro.gpu.device import ExecTask
from repro.gpu.launch import DECODE_LAUNCH_LABEL, prefill_launch_label
from repro.gpu.stream import Stream
from repro.serving.base import Instance
from repro.serving.config import ServingConfig
from repro.sim import Simulator


class MultiplexEngine:
    """Two-green-context execution engine with host launch modelling."""

    def __init__(
        self,
        sim: Simulator,
        instance: Instance,
        cfg: ServingConfig,
        decode_sms: int,
        layerwise: bool = True,
    ) -> None:
        self.sim = sim
        self.instance = instance
        self.cfg = cfg
        self.layerwise = layerwise
        device = instance.device
        if not 0 < decode_sms < device.total_sms:
            raise ValueError("decode_sms must leave SMs for prefill")
        self.decode_stream = Stream(device, decode_sms, name="decode-gc")
        self.prefill_stream = Stream(device, device.total_sms - decode_sms, name="prefill-gc")
        self._decode_sms = decode_sms
        self._prefill_sms = device.total_sms - decode_sms
        self.reconfigurations = 0

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #

    @property
    def decode_sms(self) -> int:
        """SMs currently reserved for the decode green context."""
        return self._decode_sms

    @property
    def prefill_sms(self) -> int:
        """SMs currently assigned to the prefill green context."""
        return self._prefill_sms

    def set_partition(self, decode_sms: int, prefill_all: bool = False) -> None:
        """Re-bind the green contexts; a stream sync each (microseconds).

        With ``prefill_all`` the prefill context expands over the whole GPU —
        used when the decode batch drained mid-prefill (bubble type 2).
        """
        total = self.instance.device.total_sms
        if not 0 < decode_sms < total:
            raise ValueError("decode_sms must leave SMs for prefill")
        prefill_sms = total if prefill_all else total - decode_sms
        if decode_sms != self._decode_sms:
            self.decode_stream.resize(decode_sms)
            self._decode_sms = decode_sms
            self.reconfigurations += 1
        if prefill_sms != self._prefill_sms:
            self.prefill_stream.resize(prefill_sms)
            self._prefill_sms = prefill_sms
            self.reconfigurations += 1

    # ------------------------------------------------------------------ #
    # Launching
    # ------------------------------------------------------------------ #

    def launch_decode(self, task: ExecTask) -> None:
        """Launch one decode iteration (captured graph) via the host; the
        task reaches the decode stream when its launch time elapsed."""
        self.instance.host.enqueue(
            self.cfg.launch.decode_launch(),
            partial(self.decode_stream.submit, task),
            label=DECODE_LAUNCH_LABEL,
        )

    def launch_prefill_group(
        self,
        task: ExecTask,
        layer_count: int,
        whole_phase_layers: int | None = None,
    ) -> None:
        """Launch a group of prefill layers on the prefill green context.

        Layer-wise mode pays a per-layer piecewise-graph launch; otherwise
        the host is occupied for a full kernel-by-kernel phase launch
        (``whole_phase_layers``), starving decode launches meanwhile.
        """
        if self.layerwise:
            launch_time = self.cfg.launch.prefill_layers_launch(layer_count)
        else:
            layers = whole_phase_layers if whole_phase_layers is not None else layer_count
            launch_time = self.cfg.launch.full_prefill_launch(layers)
        self.instance.host.enqueue(
            launch_time,
            partial(self.prefill_stream.submit, task),
            label=prefill_launch_label(self.layerwise),
        )

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def reset_bubble_accounting(self) -> None:
        """Restart the busy-time windows of both streams."""
        self.decode_stream.reset_accounting()
        self.prefill_stream.reset_accounting()

    def bubble_ratio(self) -> float:
        """Average bubble ratio of the two active streams (§4.4.2)."""
        return (self.decode_stream.bubble_ratio() + self.prefill_stream.bubble_ratio()) / 2.0
