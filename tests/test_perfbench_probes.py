"""The benchmark's per-layer probes name entry points that exist.

``perfbench/layers.py`` wraps each ``(owner, name, key)`` of its
``TARGETS`` through ``vars(owner)[name]``, so renaming or deleting one of
those functions or methods in ``src/`` makes the benchmark's traced runs
die with a ``KeyError``.  This pins every name.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    layers = importlib.import_module("layers")
    monkeypatch.delitem(sys.modules, "layers")
    assert layers.TARGETS
    missing = [
        (getattr(owner, "__name__", owner), name, key)
        for owner, name, key in layers.TARGETS
        if name not in vars(owner)
    ]
    assert not missing, f"probe targets missing from src: {missing}"
