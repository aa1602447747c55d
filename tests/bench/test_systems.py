"""The system table and the paper's tuned baseline line-up."""

from repro.bench.systems import BUDGET_GRID, paper_systems, tuned_token_budget
from repro.gpu import A100, H100, H200
from repro.models import LLAMA_8B, LLAMA_70B, QWEN3_235B
from repro.serving import ServingConfig


def test_paper_systems_by_display_name():
    cfg = ServingConfig(model=LLAMA_70B, spec=A100, n_gpus=8)
    systems = paper_systems(cfg, "Tool&Agent")
    assert list(systems) == ["MuxWise", "Chunked", "NanoFlow", "SGLang-PD", "LoongServe"]


def test_loongserve_left_out_on_one_gpu_and_for_moe():
    single = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
    moe = ServingConfig(model=QWEN3_235B, spec=H200, n_gpus=8)
    for cfg in (single, moe):
        systems = paper_systems(cfg, "ShareGPT")
        assert list(systems) == ["MuxWise", "Chunked", "NanoFlow", "SGLang-PD"]


def test_tuned_budget_shrinks_with_reused_context():
    """Multi-turn reuse forces a smaller SLO-compliant budget (Fig. 6b)."""
    cfg = ServingConfig(model=LLAMA_70B, spec=H100, n_gpus=8)
    short, long = tuned_token_budget(cfg, chunk_reused=0), tuned_token_budget(cfg, 20000)
    assert short in BUDGET_GRID
    assert long == 768  # the budget Fig. 16 runs chunked-prefill with
    assert long < short
