"""The serving systems by name, and the paper's tuned baseline line-up.

:data:`SYSTEMS` is the one name-to-class table: the CLI's ``--system``
choices and the figure studies' system line-ups both come from it.  The
chunked family takes a token budget; :func:`tuned_token_budget` is
SARATHI-Serve's offline tuning of it against the TBT SLO.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines import (
    ChunkedPrefillServer,
    LoongServeServer,
    NanoFlowServer,
    SGLangPDServer,
    TemporalMuxServer,
    WindServeServer,
)
from repro.core import HybridPDServer, MuxWiseServer
from repro.gpu import Device
from repro.models import CostModel, PrefillItem, phase_latency
from repro.serving.config import ServingConfig
from repro.sim import Simulator

if TYPE_CHECKING:
    from repro.bench.runner import SystemFactory

#: Every serving system, by CLI name.
SYSTEMS = {
    "muxwise": MuxWiseServer,
    "chunked": ChunkedPrefillServer,
    "nanoflow": NanoFlowServer,
    "sglang-pd": SGLangPDServer,
    "loongserve": LoongServeServer,
    "windserve": WindServeServer,
    "temporal": TemporalMuxServer,
    "hybrid-pd": HybridPDServer,
}

#: The five systems of the paper's evaluation (§4.1), by CLI name.
PAPER_SYSTEMS = ("muxwise", "chunked", "nanoflow", "sglang-pd", "loongserve")

#: Candidate SARATHI token budgets (offline tuning grid).
BUDGET_GRID = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)

#: Mean reused context each workload's prefill chunks re-attend to, used
#: when tuning the chunked-prefill token budget per workload (Table 1).
WORKLOAD_CHUNK_REUSE = {
    "ShareGPT": 0,
    "LooGLE": 15000,
    "OpenThoughts": 243,
    # Multi-turn traces: tune against tail reuse (Table 1 maxima reach
    # 120K; the tail is what breaks the P99 TBT, per Fig. 6b).
    "Conversation": 20000,
    "Tool&Agent": 20000,
}


def make_factory(name: str, token_budget: int) -> SystemFactory:
    """System factory by CLI name; the chunked family gets ``token_budget``."""
    try:
        cls = SYSTEMS[name.lower()]
    except KeyError:
        raise SystemExit(f"unknown system {name!r}; choose from {sorted(SYSTEMS)}")
    if cls in (ChunkedPrefillServer, NanoFlowServer):
        return lambda sim, cfg: cls(sim, cfg, token_budget=token_budget)
    return lambda sim, cfg: cls(sim, cfg)


def tuned_token_budget(cfg: ServingConfig, chunk_reused: int = 1024) -> int:
    """SARATHI-Serve's offline budget tuning: the largest token budget whose
    fused (chunk + decode) iteration stays within the TBT SLO, next to a
    decode batch of 32 requests with 1K context each.

    ``chunk_reused`` is the reused/previously-chunked context the prefill
    chunk must re-attend to — the workload-specific knob the paper tunes
    "offline under specific TBT targets for each model" (multi-turn traces
    force much smaller budgets than single-turn ones, per Fig. 6b).
    """
    cost_model = CostModel(cfg.model, cfg.n_gpus, cfg.spec.nvlink_bandwidth)
    device = Device(Simulator(), cfg.spec, cfg.n_gpus)
    decode_cost = cost_model.decode_iter([1024] * 32)
    best = BUDGET_GRID[0]
    for budget in BUDGET_GRID:
        chunk = max(1, budget - 32)
        fused = decode_cost + cost_model.prefill_layers(
            [PrefillItem(new=chunk, reused=chunk_reused)], cfg.model.num_layers
        )
        latency = phase_latency(fused, device, device.total_sms)
        latency += cfg.launch.full_prefill_launch(cfg.model.num_layers)
        if latency <= cfg.slo.tbt:
            best = budget
    return best


def paper_systems(cfg: ServingConfig, workload: str) -> dict[str, SystemFactory]:
    """The paper's five systems by display name, the chunked family's budget
    tuned for ``workload`` (a :data:`WORKLOAD_CHUNK_REUSE` key).

    LoongServe is left out where it cannot run: on one GPU and for MoE
    models.
    """
    budget = tuned_token_budget(cfg, chunk_reused=WORKLOAD_CHUNK_REUSE[workload])
    names = PAPER_SYSTEMS
    if cfg.n_gpus < 2 or cfg.model.is_moe:
        names = tuple(name for name in names if name != "loongserve")
    return {SYSTEMS[name].name: make_factory(name, budget) for name in names}
