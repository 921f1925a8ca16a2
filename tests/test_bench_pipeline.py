"""One rep of the benchmark's pipeline (``perfbench/pipeline.py``) per
workload, shrunk the way the benchmark's own self-tests shrink them. A rep
checks every save/load round trip and the finiteness of every output, so a
library change that would make the benchmark report incorrect outputs fails
here, in tier-1."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path, mp):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _load_pipeline():
    # pipeline.py imports its sibling tracing.py as the top-level "tracing".
    with pytest.MonkeyPatch.context() as mp:
        _load("tracing", PERFBENCH / "tracing.py", mp)
        return _load("perfbench_pipeline", PERFBENCH / "pipeline.py", mp)


pipeline = _load_pipeline()


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
def test_tiny_traced_rep_passes_every_check(monkeypatch, tmp_path, name):
    small = dataclasses.replace(
        pipeline.WORKLOADS[name], n_train=6, n_test=4, epochs=1, generations=1, real_episodes=2,
        env_kwargs={"max_ep_len": 80},
    )
    monkeypatch.setitem(pipeline.WORKLOADS, name, small)
    rep = pipeline.run_rep(pipeline.prepare(name, 3), str(tmp_path), trace=True)
    assert rep.error is None, rep.error
    assert rep.checks and rep.ok, (rep.checks, rep.failed)
