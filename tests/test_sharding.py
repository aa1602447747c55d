"""``--shard K/N`` (tests/conftest.py): the shards partition the suite.

Each shard runs in its own process, so a test missed by every shard, or
run by two, would go unnoticed in CI; collect a directory whole and in
shards and compare the node ids.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _collect(*args: str) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "-m", "pytest", "--collect-only", "-q",
        "-o", "addopts=", "-p", "no:cacheprovider", *args,
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, env=env, timeout=300
    )


def _node_ids(*args: str) -> list[str]:
    proc = _collect("tests/sim", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_shards_partition_the_collected_tests():
    whole = _node_ids()
    shards = [_node_ids("--shard", f"{k}/3") for k in (1, 2, 3)]
    assert all(shards), "a shard collected nothing"
    merged = [node for shard in shards for node in shard]
    assert sorted(merged) == sorted(whole)
    assert len(set(merged)) == len(merged)


@pytest.mark.parametrize("value", ["0/2", "3/2", "1", "a/b"])
def test_bad_shard_is_a_usage_error(value):
    proc = _collect("tests/sim/test_simulator.py", "--shard", value)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "--shard" in proc.stderr
