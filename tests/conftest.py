"""Shared fixtures: small deployments and cached estimators for speed.

Also registers the ``ci-deep`` Hypothesis profile: ten times the default
example budget, for suites that leave ``max_examples`` to the profile.
Select it with ``pytest --hypothesis-profile=ci-deep``.

``--shard K/N`` runs only the K-th of N shards of the collected tests
(1-based), split by ``zlib.crc32`` of each node id: the split is stable
across runs and machines, and the N shards together run every test once.
Two shards in two processes use both vCPUs of a small machine:

    PYTHONPATH=src python -m pytest -q --shard 1/2 &
    PYTHONPATH=src python -m pytest -q --shard 2/2
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import settings

from repro.gpu import A100
from repro.models import LLAMA_8B, LLAMA_70B
from repro.serving import ServingConfig
from repro.sim import Simulator

settings.register_profile("ci-deep", max_examples=10 * settings.default.max_examples)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--shard",
        default=None,
        metavar="K/N",
        help="run only the K-th of N shards (1-based), split by crc32 of each node id",
    )


def _parse_shard(value: str) -> tuple[int, int]:
    """``"K/N"`` -> ``(K, N)``, with 1 <= K <= N."""
    try:
        index, count = (int(part) for part in value.split("/"))
    except ValueError:
        raise pytest.UsageError(f"--shard expects K/N, got {value!r}") from None
    if not 1 <= index <= count:
        raise pytest.UsageError(f"--shard {value}: K must be in 1..N")
    return index, count


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    value = config.getoption("--shard")
    if value is None:
        return
    index, count = _parse_shard(value)
    keep: list[pytest.Item] = []
    drop: list[pytest.Item] = []
    for item in items:
        shard = zlib.crc32(item.nodeid.encode("utf-8")) % count + 1
        (keep if shard == index else drop).append(item)
    items[:] = keep
    if drop:
        config.hook.pytest_deselected(items=drop)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cfg_70b() -> ServingConfig:
    """The paper's main testbed: Llama-70B on 8xA100."""
    return ServingConfig(model=LLAMA_70B, spec=A100, n_gpus=8)


@pytest.fixture
def cfg_8b() -> ServingConfig:
    """Llama-8B on 8xA100."""
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=8)


@pytest.fixture
def cfg_8b_single() -> ServingConfig:
    """Llama-8B on one A100 (§4.3.1)."""
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Run a code snippet in a new interpreter; return its last stdout line as JSON.

    Import-time behaviour (what a cold ``import`` loads, which counters it
    draws) is only observable in a process nothing else has imported into.
    """

    def run(code: str):
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run
