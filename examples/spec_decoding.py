#!/usr/bin/env python
"""Speculative decoding: acceptance sweep, tier gating, SM re-split.

Three demonstrations of the ``repro.spec`` execution mode:

1. The acceptance × draft-length sweep (`python -m repro study spec` under the
   hood): plain decode is memory-bound and MuxWise leads static
   disaggregation, but verification — priced as a micro-prefill — spends
   the disaggregated decode instance's idle compute, so the goodput gap
   shifts toward (and past) disaggregation as acceptance rises.
2. Tier-gated speculation: interactive chat traffic speculates while a
   batch tenant in the same process decodes plainly.
3. The dispatcher's SM re-split: how many decode SMs MuxWise holds back
   from prefill once the decode step carries a draft+verify cost.

Usage:
    python examples/spec_decoding.py [scale]   # default: 0.25
"""

import sys

from repro.bench.spec import run_spec_study
from repro.core import MuxWiseServer
from repro.gpu import A100
from repro.models import LLAMA_8B
from repro.serving import ServingConfig
from repro.sim import Simulator
from repro.spec import ConstantAcceptance, SpecConfig
from repro.tenancy import TIER_BATCH, TIER_INTERACTIVE, TenancyConfig, Tenant
from repro.workloads import combine_workloads, sharegpt_workload, tag_workload


def sweep(scale: float) -> None:
    print(f"=== acceptance x draft-length sweep (scale {scale}) ===")
    study = run_spec_study(scale=scale, seed=0)
    base = study.baseline
    base_gap = base["mux_useful_throughput"] - base["disagg_useful_throughput"]
    print(
        f"spec off: mux {base['mux_useful_throughput']:7.1f} tok/s, "
        f"disagg {base['disagg_useful_throughput']:7.1f} tok/s, "
        f"gap {base_gap:+7.1f}"
    )
    for point in study.points:
        print(
            f"k={point.draft_len} a={point.rate:.2f}: "
            f"E[tok]={point.expected_tokens:.2f} "
            f"observed={point.mux_accepted_per_step:.2f}  "
            f"mux {point.mux_useful_throughput:7.1f}  "
            f"disagg {point.disagg_useful_throughput:7.1f}  "
            f"gap {point.gap:+7.1f}  "
            f"decode SMs {point.mux_decode_sms:.1f}"
        )
    print(f"accepted/step monotone in rate: {study.accepted_monotone}")
    print(f"gap shifts toward disaggregation: {study.gap_shift}")


def tier_gating(scale: float) -> None:
    print("\n=== tier-gated speculation (chat speculates, batch does not) ===")
    tenancy = TenancyConfig(
        tenants={
            "chat": Tenant("chat", tier=TIER_INTERACTIVE),
            "jobs": Tenant("jobs", tier=TIER_BATCH),
        }
    )
    spec = SpecConfig(
        draft_len=4,
        acceptance=ConstantAcceptance(0.8),
        tiers=(TIER_INTERACTIVE,),
    )
    cfg = ServingConfig(
        model=LLAMA_8B, spec=A100, n_gpus=2, tenancy=tenancy, spec_decode=spec
    )
    n = max(10, int(40 * scale))
    sim = Simulator()
    server = MuxWiseServer(sim, cfg)
    chat = tag_workload(sharegpt_workload(n, rate=4.0, seed=1), "chat")
    jobs = tag_workload(sharegpt_workload(n, rate=4.0, seed=2), "jobs")
    server.submit(combine_workloads([chat, jobs]))
    sim.run(until=3600.0)

    speculating = {"chat": 0, "jobs": 0}
    for state in server.states.values():
        if state.spec_session is not None:
            speculating[state.request.tenant] += 1
    counters = server.spec_decode.counters()
    print(f"chat requests speculating: {speculating['chat']}/{n}")
    print(f"jobs requests speculating: {speculating['jobs']}/{n}")
    print(
        f"spec steps {counters['spec_steps']}, "
        f"accepted/step {counters['spec_accepted_per_step']:.2f} "
        f"(analytic {spec.expected_tokens_per_step():.2f})"
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    sweep(scale)
    tier_gating(scale)
    print(
        "\nthe sweep's last column is the re-split: with spec off the"
        "\ndispatcher parks decode on the smallest partition and gives the"
        "\nrest to prefill; the draft+verify cost forces it to budget the"
        "\nstep against an expected-tokens-scaled TBT and hold SMs back."
    )


if __name__ == "__main__":
    main()
