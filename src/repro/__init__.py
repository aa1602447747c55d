"""MuxWise reproduction: high-goodput LLM serving with PD multiplexing.

A full reimplementation of the ASPLOS'26 paper "Towards High-Goodput LLM
Serving with Prefill-decode Multiplexing" on a discrete-event GPU
simulator.  Public entry points:

* :class:`repro.core.MuxWiseServer` -- the paper's system.
* :mod:`repro.baselines` -- chunked-prefill, NanoFlow, LoongServe, SGLang-PD.
* :mod:`repro.workloads` -- the five evaluation traces of Table 1.
* :mod:`repro.bench` -- runners and goodput sweeps reproducing the figures.

Quickstart::

    from repro import (A100, LLAMA_70B, MuxWiseServer, ServingConfig,
                       Simulator, toolagent_workload)

    sim = Simulator()
    cfg = ServingConfig(model=LLAMA_70B, spec=A100, n_gpus=8)
    server = MuxWiseServer(sim, cfg)
    server.submit(toolagent_workload(100, request_rate=1.0))
    server.run()
    print(server.metrics.summarize())

Every name in ``__all__`` is resolved on first access (PEP 562): ``import
repro`` loads no subpackage, and ``from repro import MuxWiseServer`` loads
only what that class needs.  numpy is loaded later still, when the first
MuxWise estimator is built, so a chunked-prefill run never imports it.
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module to the public names it provides.
    A name is imported on first access and then cached in the package's
    namespace, so later lookups are plain attribute reads.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return __getattr__, __dir__


#: The public names, by defining module.
_EXPORTS = {
    "repro.baselines": (
        "ChunkedPrefillServer",
        "LoongServeServer",
        "NanoFlowServer",
        "SGLangPDServer",
    ),
    "repro.bench": ("GoodputResult", "RunResult", "goodput_sweep", "run_system"),
    "repro.core": (
        "ContentionGuard",
        "ContentionTolerantEstimator",
        "MultiplexEngine",
        "MuxWiseServer",
        "SoloRunPredictor",
        "calibrated_estimator",
    ),
    "repro.gpu": ("A100", "H100", "H200", "Device", "GPUSpec", "decode_partition_options"),
    "repro.kvcache": ("KVCachePool", "RadixCache", "Segment", "new_segment"),
    "repro.models": (
        "CODELLAMA_34B",
        "LLAMA_8B",
        "LLAMA_70B",
        "QWEN3_235B",
        "CostModel",
        "ModelConfig",
        "PrefillItem",
        "phase_latency",
    ),
    "repro.serving": ("SLO", "ServingConfig", "Summary", "default_slo"),
    "repro.sim": ("Simulator",),
    "repro.tenancy": ("TenancyConfig", "Tenant", "TenantClass"),
    "repro.workloads": (
        "Request",
        "Workload",
        "combine_workloads",
        "conversation_workload",
        "loogle_workload",
        "mixed_workload",
        "openthoughts_workload",
        "realworld_trace",
        "sharegpt_workload",
        "tag_workload",
        "toolagent_workload",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [*sorted(name for names in _EXPORTS.values() for name in names), "__version__"]

