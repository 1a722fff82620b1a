"""The benchmark's inputs and counts depend on the seed and nothing else.

    python3 -m pytest bench/tests -q

Each traced pass runs in a fresh interpreter, as in a real run, at one
second of work, so the module takes some ten seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402
from bench.trace import LAYERS, RULES  # noqa: E402

COUNTS = (
    *(f"{layer}.calls" for layer in LAYERS),
    *(f"cardinals.rule.{rule}" for rule in RULES),
    "streams.bits_out",
    "streams.prefix_computes",
    *(f"cli.exit.{code}" for code in (0, 2, 3, 4)),
)


def _inputs(name, seed):
    return json.dumps([[op.cls, list(op.args)] for op in workloads.build(name, seed, 1).ops])


def _traced_pass(name, seed):
    cmd = [sys.executable, "-m", "bench.worker", "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", "1", "--src", str(ROOT / "src")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert workloads.build(name, 7, 1).digest() == workloads.build(name, 7, 1).digest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    assert workloads.build(name, 7, 1).digest() != workloads.build(name, 8, 1).digest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_a_seed(name):
    first, second = _traced_pass(name, 5), _traced_pass(name, 5)
    assert first["digest"] == second["digest"]
    assert first["correct"] and second["correct"], (first["problems"], first["failed_by_class"])
    assert first["attempted"] == first["planned"]  # the whole list ran, so counts are comparable
    for key in COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"]
    for layer in workloads.build(name, 5, 1).layers:
        assert first["layers"][f"{layer}.calls"] > 0, layer
