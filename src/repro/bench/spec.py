"""Speculative-decoding study: acceptance × draft-length sweep, mux vs disagg.

Plain decode is memory-bound, which is why decode SMs are cheap for MuxWise
to reclaim for prefill.  Speculation changes that balance: each decode step
becomes a draft chain plus a batched verification pass priced like a
micro-prefill, so decode acquires compute-boundedness in proportion to the
acceptance rate.  The study quantifies two consequences:

* **Goodput gap shift.**  :class:`~repro.core.server.MuxWiseServer` (one
  multiplexed node) against :class:`~repro.baselines.sglang_pd.SGLangPDServer`
  (static disaggregation with a dedicated decode instance) across an
  acceptance-rate × draft-length grid, anchored by a spec-off baseline of
  each.  As acceptance rises, verification monetises the decode instance's
  idle compute, so disaggregation gains more than multiplexing — the
  mux-minus-disagg gap shrinks (and can invert).
* **SM-split re-optimization.**  MuxWise's dispatcher sizes the decode
  partition per step; with speculation the partition is chosen from the
  draft+verify cost against an expected-tokens-scaled TBT budget
  (:meth:`~repro.core.server.MuxWiseServer._choose_spec_partition`).  The
  time-weighted mean decode-SM share per grid point shows how many SMs
  verification pulls back from prefill.

Deterministic: same (rates, draft_lens, scale, seed) → identical
:meth:`SpecStudy.as_dict` payload — the spec_decoding perf fingerprint and
the CI study-smoke double-run diff rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import SGLangPDServer
from repro.bench.runner import RunResult, simulate
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.spec import ConstantAcceptance, SpecConfig
from repro.workloads import sharegpt_workload

#: Draft-token acceptance rates swept by default.
DEFAULT_RATES: tuple[float, ...] = (0.5, 0.7, 0.9)
#: Draft lengths (k) swept by default.
DEFAULT_DRAFT_LENS: tuple[int, ...] = (2, 4)
#: Requests in the sweep workload at scale 1.0.
SWEEP_REQUESTS = 80
#: Arrival rate (req/s) of the sweep workload.
SWEEP_RATE = 4.0


@dataclass(frozen=True)
class SpecPoint:
    """Mux vs disagg at one (acceptance rate, draft length) grid point."""

    rate: float
    draft_len: int
    expected_tokens: float
    mux_accepted_per_step: float
    disagg_accepted_per_step: float
    mux_useful_throughput: float
    disagg_useful_throughput: float
    mux_tbt_p99: float
    disagg_tbt_p99: float
    mux_decode_sms: float

    @property
    def gap(self) -> float:
        """Mux advantage in useful tokens/sec (positive → mux wins)."""
        return self.mux_useful_throughput - self.disagg_useful_throughput

    def as_dict(self) -> dict[str, float]:
        return {
            "rate": self.rate,
            "draft_len": self.draft_len,
            "expected_tokens": self.expected_tokens,
            "mux_accepted_per_step": self.mux_accepted_per_step,
            "disagg_accepted_per_step": self.disagg_accepted_per_step,
            "mux_useful_throughput": self.mux_useful_throughput,
            "disagg_useful_throughput": self.disagg_useful_throughput,
            "mux_tbt_p99": self.mux_tbt_p99,
            "disagg_tbt_p99": self.disagg_tbt_p99,
            "mux_decode_sms": self.mux_decode_sms,
            "gap": self.gap,
        }


@dataclass
class SpecStudy:
    """Acceptance × draft-length sweep anchored by a spec-off baseline."""

    baseline: dict[str, float]
    points: list[SpecPoint]
    extras: dict[str, float] = field(default_factory=dict)

    def points_for(self, draft_len: int) -> list[SpecPoint]:
        """Grid points of one draft length, in ascending acceptance order."""
        return sorted(
            (p for p in self.points if p.draft_len == draft_len),
            key=lambda p: p.rate,
        )

    @property
    def accepted_monotone(self) -> bool:
        """Observed accepted-tokens/step rises with the acceptance rate."""
        for draft_len in sorted({p.draft_len for p in self.points}):
            row = self.points_for(draft_len)
            for lo, hi in zip(row, row[1:]):
                if hi.mux_accepted_per_step <= lo.mux_accepted_per_step:
                    return False
                if hi.disagg_accepted_per_step <= lo.disagg_accepted_per_step:
                    return False
        return True

    @property
    def gap_shift(self) -> bool:
        """The mux-minus-disagg gap shrinks as decode turns compute-bound.

        Compares each draft length's highest-acceptance point against the
        spec-off baseline gap: verification monetises the disaggregated
        decode instance's idle compute, so disaggregation must close on
        (or overtake) multiplexing.
        """
        base_gap = (
            self.baseline["mux_useful_throughput"]
            - self.baseline["disagg_useful_throughput"]
        )
        rows = [self.points_for(k) for k in sorted({p.draft_len for p in self.points})]
        return all(row[-1].gap < base_gap for row in rows if row)

    def as_dict(self) -> dict[str, object]:
        return {
            "baseline": dict(sorted(self.baseline.items())),
            "points": [p.as_dict() for p in self.points],
            "accepted_monotone": self.accepted_monotone,
            "gap_shift": self.gap_shift,
            "extras": dict(sorted(self.extras.items())),
        }


def _config(spec_decode: SpecConfig | None) -> ServingConfig:
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=2, spec_decode=spec_decode)


def _workload(scale: float, seed: int):
    return sharegpt_workload(max(6, int(SWEEP_REQUESTS * scale)), rate=SWEEP_RATE, seed=seed)


def _run(
    factory: Callable, cfg: ServingConfig, scale: float, seed: int
) -> tuple[RunResult, object]:
    """One run, also handing back the concrete server for its counters.

    The workload is regenerated per run from the same seed (request ids are
    process-global counters, so reuse across simulators would be unsound)
    — arrival/token shapes are identical, the comparison apples-to-apples.
    """
    server, stats = simulate(lambda sim: factory(sim, cfg), _workload(scale, seed))
    return RunResult.of(server, stats), server


def _mean_decode_sms(server: MuxWiseServer) -> float:
    """Time-weighted mean decode-partition size over the run."""
    log = server.partition_log
    if not log:
        return float(server.engine.decode_sms)
    total = 0.0
    weight = 0.0
    for (start, decode_sms, _), (end, _, _) in zip(
        log, [*log[1:], (server.sim.now, 0, 0)]
    ):
        span = max(0.0, end - start)
        total += decode_sms * span
        weight += span
    if weight <= 0.0:
        return float(log[-1][1])
    return total / weight


def run_spec_study(
    rates: tuple[float, ...] | None = None,
    draft_lens: tuple[int, ...] | None = None,
    scale: float = 1.0,
    seed: int = 0,
) -> SpecStudy:
    """Run the full sweep and fold it into one deterministic report."""
    rates = tuple(sorted(rates)) if rates else DEFAULT_RATES
    draft_lens = tuple(sorted(draft_lens)) if draft_lens else DEFAULT_DRAFT_LENS

    plain_cfg = _config(None)
    mux_base, mux_server = _run(MuxWiseServer, plain_cfg, scale, seed)
    disagg_base, _ = _run(SGLangPDServer, plain_cfg, scale, seed)
    stats = mux_base.stats + disagg_base.stats
    baseline = {
        "mux_useful_throughput": mux_base.summary.useful_throughput,
        "disagg_useful_throughput": disagg_base.summary.useful_throughput,
        "mux_tbt_p99": mux_base.summary.tbt_p99,
        "disagg_tbt_p99": disagg_base.summary.tbt_p99,
        "mux_decode_sms": _mean_decode_sms(mux_server),
    }

    points: list[SpecPoint] = []
    for draft_len in draft_lens:
        for rate in rates:
            spec = SpecConfig(
                draft_len=draft_len, acceptance=ConstantAcceptance(rate), seed=seed
            )
            cfg = _config(spec)
            mux, mux_srv = _run(MuxWiseServer, cfg, scale, seed)
            disagg, disagg_srv = _run(SGLangPDServer, cfg, scale, seed)
            stats += mux.stats + disagg.stats
            points.append(
                SpecPoint(
                    rate=rate,
                    draft_len=draft_len,
                    expected_tokens=spec.expected_tokens_per_step(),
                    mux_accepted_per_step=mux_srv.spec_decode.accepted_per_step(),
                    disagg_accepted_per_step=disagg_srv.spec_decode.accepted_per_step(),
                    mux_useful_throughput=mux.summary.useful_throughput,
                    disagg_useful_throughput=disagg.summary.useful_throughput,
                    mux_tbt_p99=mux.summary.tbt_p99,
                    disagg_tbt_p99=disagg.summary.tbt_p99,
                    mux_decode_sms=_mean_decode_sms(mux_srv),
                )
            )
    return SpecStudy(baseline=baseline, points=points, extras=stats.as_extras())
