"""Shared fixtures: small deployments and cached estimators for speed.

Also registers the ``ci-deep`` Hypothesis profile: ten times the default
example budget, for suites that leave ``max_examples`` to the profile.
Select it with ``pytest --hypothesis-profile=ci-deep``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from repro.gpu import A100
from repro.models import LLAMA_8B, LLAMA_70B
from repro.serving import ServingConfig
from repro.sim import Simulator

settings.register_profile("ci-deep", max_examples=10 * settings.default.max_examples)


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
