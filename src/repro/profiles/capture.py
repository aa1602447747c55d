"""Fit a latency profile from a simulated run (self-calibration source).

``capture_profile`` runs a workload through any system factory with each
instance's cost model swapped for a :class:`RecordingCostModel` — a
subclass that returns byte-identical roofline costs while logging, per
phase execution, the token key and the *solo full-phase* latency on the
instance's device (all SMs, no contention).  The captured run is therefore
exactly the roofline run; observation adds nothing to the simulation.

``fit_profile`` reduces the logged samples to the JSON schema: per phase,
power-of-two token buckets each holding an 11-point latency quantile grid.
Replaying the fitted profile through :class:`ProfiledCostModel` should
reproduce the source run's summary metrics within the tolerance quantified
by the scenarios study (``python -m repro study scenarios``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import DRAIN_HORIZON, RunResult, run_system
from repro.gpu.device import Device
from repro.models.costs import CostModel, PhaseCost, PrefillItem, phase_latency
from repro.sim import fastpath
from repro.profiles.schema import (
    QUANTILE_POINTS,
    LatencyProfile,
    PhaseProfile,
    TokenBucket,
)
from repro.serving.base import iter_instances
from repro.serving.config import ServingConfig
from repro.workloads.request import Workload

#: phase name -> list of (token key, solo full-phase latency seconds).
SampleSink = dict[str, list[tuple[int, float]]]


class RecordingCostModel(CostModel):
    """A :class:`CostModel` that logs full-phase solo latencies.

    Every override delegates to ``super()`` and returns its result
    unchanged, so a run under recording is byte-identical to the plain
    roofline run.  Token keys match the profile schema (see
    ``repro.profiles.schema``); latencies are full-phase equivalents
    (layer cost scaled to all layers plus the LM head) on the whole
    device, mirroring what :class:`ProfiledCostModel` replays.
    """

    def __init__(self, base: CostModel, device: Device, sink: SampleSink) -> None:
        super().__init__(base.model, n_gpus=base.n_gpus, nvlink_bandwidth=base.nvlink_bandwidth)
        self._device = device
        self._sink = sink
        self._capture = True

    def _record(self, phase: str, tokens: int, full_cost: PhaseCost) -> None:
        latency = phase_latency(full_cost, self._device, self._device.total_sms)
        self._sink.setdefault(phase, []).append((tokens, latency))

    def prefill_layer(self, batch: list[PrefillItem]) -> PhaseCost:
        layer = super().prefill_layer(batch)
        if self._capture and any(item.new for item in batch):
            full = layer.scaled(self.model.num_layers) + super().prefill_head(len(batch))
            self._record("prefill", sum(item.total for item in batch), full)
        return layer

    def decode_layer_totals(self, batch_size: int, total_ctx: int) -> PhaseCost:
        layer = super().decode_layer_totals(batch_size, total_ctx)
        if self._capture and batch_size:
            full = layer.scaled(self.model.num_layers) + super().decode_head(batch_size)
            self._record("decode", total_ctx + batch_size, full)
        return layer

    def verify_iter(self, context_lens: list[int], spec_tokens: int) -> PhaseCost:
        # Verification routes through prefill_layer internally; silence the
        # prefill recorder so one verify step logs one "verify" sample, not
        # a spurious "prefill" one.
        self._capture = False
        try:
            cost = super().verify_iter(context_lens, spec_tokens)
        finally:
            self._capture = True
        if context_lens:
            tokens = sum(context_lens) + len(context_lens) * spec_tokens
            self._record("verify", tokens, cost)
        return cost


def _bucket_edge(tokens: int) -> int:
    """Smallest power of two >= tokens."""
    return 1 << (tokens - 1).bit_length() if tokens > 1 else 1


def _quantiles(latencies: list[float]) -> tuple[float, ...]:
    ordered = sorted(latencies)
    n = len(ordered)
    grid = []
    for j in range(QUANTILE_POINTS):
        position = (j / (QUANTILE_POINTS - 1)) * (n - 1)
        low = int(position)
        frac = position - low
        if low + 1 < n:
            grid.append(ordered[low] * (1.0 - frac) + ordered[low + 1] * frac)
        else:
            grid.append(ordered[-1])
    return tuple(grid)


def fit_profile(
    samples: SampleSink,
    name: str,
    model: str = "",
    gpu: str = "",
    meta: dict | None = None,
) -> LatencyProfile:
    """Reduce recorded samples to a :class:`LatencyProfile`."""
    if not samples or not any(samples.values()):
        raise ValueError("no samples to fit a profile from")
    phases: dict[str, PhaseProfile] = {}
    for phase in sorted(samples):
        rows = samples[phase]
        if not rows:
            continue
        grouped: dict[int, list[tuple[int, float]]] = {}
        for tokens, latency in rows:
            grouped.setdefault(_bucket_edge(tokens), []).append((tokens, latency))
        buckets = tuple(
            TokenBucket(
                max_tokens=edge,
                mean_tokens=sum(t for t, _ in members) / len(members),
                quantiles=_quantiles([latency for _, latency in members]),
                count=len(members),
            )
            for edge, members in sorted(grouped.items())
        )
        phases[phase] = PhaseProfile(phase=phase, buckets=buckets)
    return LatencyProfile(name=name, model=model, gpu=gpu, phases=phases, meta=meta or {})


@dataclass
class CaptureResult:
    """A fitted profile plus the (roofline) run it was fitted from."""

    profile: LatencyProfile
    result: RunResult
    sample_counts: dict[str, int] = field(default_factory=dict)

    @property
    def summary(self):
        return self.result.summary


def capture_profile(
    factory,
    cfg: ServingConfig,
    workload: Workload,
    name: str = "captured",
    drain_horizon: float = DRAIN_HORIZON,
) -> CaptureResult:
    """Run ``workload`` under recording cost models and fit a profile.

    The run itself is byte-identical to ``run_system(factory, cfg,
    workload)`` — recording only observes.  The fitted profile's ``meta``
    records the source workload for provenance.

    Capture forces the scalar decode path for its run: the decode fast
    loop prices candidate chains it sometimes rejects (the scalar body
    then re-prices the same step), so a capture under elision would log
    duplicate samples and fit a slightly different profile than the
    scalar reference.  Results are unaffected either way (the fast path
    is byte-identical); pinning the scalar path makes the *sample
    stream* — and therefore the fitted profile — mode-independent.
    """
    sink: SampleSink = {}

    def recording_factory(sim, build_cfg):
        system = factory(sim, build_cfg)
        for inst in iter_instances(system):
            inst.cost_model = RecordingCostModel(inst.cost_model, inst.device, sink)
        return system

    with fastpath.disabled():
        result = run_system(recording_factory, cfg, workload, drain_horizon=drain_horizon)
    counts = {phase: len(rows) for phase, rows in sorted(sink.items())}
    profile = fit_profile(
        sink,
        name=name,
        model=cfg.model.name,
        gpu=cfg.spec.name,
        meta={"workload": workload.name, "requests": len(workload), "samples": counts},
    )
    return CaptureResult(profile=profile, result=result, sample_counts=counts)
