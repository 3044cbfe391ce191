"""The benchmark's tracer and probe swap package attributes by name.

perfbench/tracing.py replaces ``owner.__dict__[attr]`` with a timing
wrapper, so renaming or deleting any hooked function breaks a traced
benchmark run. These tests fail first instead.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_every_layer_call_target_exists(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.LAYER_CALLS
               if attr not in owner.__dict__]
    assert missing == []


def test_probe_hook_targets_exist(tracing):
    training = tracing.training
    for owner, attr in ((training, "total_loss"), (training.Adam, "update"),
                        (training, "save_checkpoint")):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
