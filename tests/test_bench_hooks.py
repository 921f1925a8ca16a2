"""The benchmark's probes rebind library names by attribute (see
``perfbench/tracing.py``). Every name they rebind must stay bound where they
look for it, or every traced benchmark rep fails; this pins that contract."""
import importlib.util
from pathlib import Path

import pytest

from dreamrand import controller

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKS = [(owner, attr) for owner, attr, _, _ in _load_tracing().SPAN_HOOKS] + [(controller, "rollout_batch")]


@pytest.mark.parametrize("owner,attr", HOOKS, ids=[f"{owner.__name__}.{attr}" for owner, attr in HOOKS])
def test_hooked_name_is_bound(owner, attr):
    assert attr in owner.__dict__
