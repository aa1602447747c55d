"""Shared fixtures: small deployments and cached estimators for speed.

Also registers the ``ci-deep`` Hypothesis profile: ten times the default
example budget, for suites that leave ``max_examples`` to the profile.
Select it with ``pytest --hypothesis-profile=ci-deep``.
"""

from __future__ import annotations

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
