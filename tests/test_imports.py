"""Import hygiene: a cold start loads only the layers a run uses.

Every case runs in a fresh interpreter (the ``fresh_python`` fixture),
since anything this test process imported earlier would mask what a
cold import loads.
"""

#: What ``perfbench`` imports at module level, in every worker.
PERFBENCH_IMPORTS = (
    "repro.baselines",
    "repro.cluster",
    "repro.core",
    "repro.serving.base",
    "repro.serving.config",
    "repro.serving.metrics",
    "repro.sim",
    "repro.workloads",
    "repro.gpu.specs",
    "repro.models.config",
)

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("repro"))))
"""


def test_import_repro_loads_no_submodule(fresh_python):
    assert fresh_python("import repro" + LOADED) == ["repro"]


def test_perfbench_imports_leave_numpy_and_bench_unloaded(fresh_python):
    loaded = fresh_python("\n".join(f"import {m}" for m in PERFBENCH_IMPORTS) + LOADED)
    assert set(PERFBENCH_IMPORTS) <= set(loaded)
    assert "numpy" not in loaded
    assert not [m for m in loaded if m == "repro.bench" or m.startswith("repro.bench.")]


SERVER = """
import repro.core  # imported by every perfbench worker, chunked or not
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.sim import Simulator
from {module} import {cls}

{cls}(Simulator(), ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1))
"""


def test_chunked_server_does_not_load_numpy(fresh_python):
    code = SERVER.format(module="repro.baselines", cls="ChunkedPrefillServer")
    assert "numpy" not in fresh_python(code + LOADED)


def test_muxwise_server_loads_numpy(fresh_python):
    code = SERVER.format(module="repro.core", cls="MuxWiseServer")
    assert "numpy" in fresh_python(code + LOADED)


def test_lazy_exports_are_the_defining_objects(fresh_python):
    mismatched = fresh_python("""
import importlib, json
import repro, repro.bench

bad = []
for package in (repro, repro.bench):
    for module, names in package._EXPORTS.items():
        for name in names:
            if getattr(package, name) is not getattr(importlib.import_module(module), name):
                bad.append(f"{package.__name__}.{name}")
print(json.dumps(bad))
""")
    assert mismatched == []


def test_dir_and_star_import_cover_all(fresh_python):
    result = fresh_python("""
import json, repro

listed = set(dir(repro))
namespace = {}
exec("from repro import *", namespace)
print(json.dumps({
    "missing_from_dir": sorted(set(repro.__all__) - listed),
    "unbound": sorted(n for n in repro.__all__ if namespace.get(n) is not getattr(repro, n)),
}))
""")
    assert result == {"missing_from_dir": [], "unbound": []}


def test_unknown_name_raises_attribute_error(fresh_python):
    result = fresh_python("""
import json, repro, repro.bench

raised = []
for package in (repro, repro.bench):
    try:
        package.no_such_name
    except AttributeError as exc:
        raised.append("no_such_name" in str(exc))
print(json.dumps(raised))
""")
    assert result == [True, True]


def test_importing_every_module_draws_no_global_id(fresh_python):
    """Module import draws no process-global id, so lazy load order never shifts ids."""
    drawn = fresh_python("""
import importlib, json, pkgutil
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.kvcache import radix
from repro.workloads import request

print(json.dumps({
    "repro.kvcache.radix._segment_uids": next(radix._segment_uids),
    "repro.workloads.request._request_ids": next(request._request_ids),
}))
""")
    assert drawn == dict.fromkeys(drawn, 0)
