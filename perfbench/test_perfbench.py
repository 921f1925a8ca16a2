"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m pytest -q perfbench
"""
import bootstrap  # noqa: F401  (pins BLAS and selects the checkout's src/ before numpy loads)

import dataclasses
import json

import numpy as np
import pytest

import pipeline
import run
from dreamrand import controller, envs, training, world_model

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload so one rep takes well under a second."""
    for name, wl in pipeline.WORKLOADS.items():
        small = dataclasses.replace(
            wl, n_train=6, n_test=4, epochs=1, generations=1, real_episodes=2, env_kwargs={"max_ep_len": 80}
        )
        monkeypatch.setitem(pipeline.WORKLOADS, name, small)
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def result_of(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def rep(tmp_path, name="dodge-step", seed=5, trace=False):
    return pipeline.run_rep(pipeline.prepare(name, seed), str(tmp_path), trace=trace)


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(pipeline.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    baseline = json.loads((bootstrap.ROOT / "perfbench" / "baseline.json").read_text())
    assert list(baseline["end_to_end"]) == list(pipeline.WORKLOADS)
    assert all({k: v["unit"] for k, v in m.items()} == run.END_TO_END for m in baseline["end_to_end"].values())
    assert all(list(m) == list(run.PER_LAYER) for m in baseline["per_layer"].values())
    assert not set(baseline["baseline_seeds"]) & set(baseline["heldout_seeds"])


@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    code, result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert (bootstrap.ROOT / ".perfbench" / f"spans-{workload}.jsonl").is_file()


def test_missing_span_reports_zero(capsys):
    # track-train's dream runs the Off policy and draws no dream masks.
    _, result = result_of(capsys, "--workload", "track-train", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["metrics"]["lstm.sample_mask_set.dream.calls"]["value"] == 0
    assert result["metrics"]["lstm.sample_mask_set.dream.us_per_call"]["value"] == 0


def test_rollout_children_and_self_time_add_up(tmp_path):
    probe = rep(tmp_path, trace=True).probe
    spans = probe.spans
    rollouts = [i for i, s in enumerate(spans) if s[0] == "dream.rollout_batch"]
    assert rollouts
    summary = probe.summarize()["dream.rollout_batch"]
    children = sum(s[3] - s[2] for s in spans if s[1] in rollouts)
    assert summary["self_s"] + children == pytest.approx(summary["total_s"], rel=1e-9)
    assert {s[0] for s in spans if s[1] in rollouts} == {
        "lstm.sample_mask_set.dream",
        "world_model.sample_transition_raw",
        "world_model.heads_raw.dream",
    }


def test_same_seed_same_digest(tmp_path):
    first, again, traced, other = (
        rep(tmp_path), rep(tmp_path), rep(tmp_path, trace=True), rep(tmp_path, seed=6)
    )
    assert first.ok and first.digest == again.digest == traced.digest
    assert other.digest != first.digest
    assert first.work == again.work


def _flip_payload_byte(save):
    def faulty(obj, path):
        save(obj, path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[data.index(b"\n") + 11] ^= 0x01  # inside the first binary block
        with open(path, "wb") as fh:
            fh.write(data)

    return faulty


def _nan_returns(fn):
    def faulty(*args, **kwargs):
        out = fn(*args, **kwargs)
        out["returns"][0] = np.nan
        return out

    return faulty


def _nan_real(fn):
    def faulty(*args, **kwargs):
        res = fn(*args, **kwargs)
        res.returns[0] = np.nan
        return res

    return faulty


def _nan_test_loss(fn):
    def faulty(*args, **kwargs):
        params, report = fn(*args, **kwargs)
        report.test_loss[-1] = np.nan
        return params, report

    return faulty


def _nan_eval_loss(fn):
    def faulty(*args, **kwargs):
        res = fn(*args, **kwargs)
        res.per_sequence[0, 0] = np.nan
        return res

    return faulty


FAULTS = {
    "dataset_roundtrip": (envs, "save_dataset", _flip_payload_byte),
    "model_roundtrip": (world_model, "save_model", _flip_payload_byte),
    "controller_roundtrip": (controller, "save_controller", _flip_payload_byte),
    "loss_report_finite": (training, "train_dynamics", _nan_test_loss),
    "eval_loss_finite": (training, "evaluate_loss", _nan_eval_loss),
    "fitness_finite": (controller, "rollout_batch", _nan_returns),
    "real_returns_finite": (controller, "evaluate_real", _nan_real),
}


@pytest.mark.parametrize("check", list(FAULTS))
def test_check_fires_on_planted_fault(monkeypatch, tmp_path, check):
    owner, attr, fault = FAULTS[check]
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    result = rep(tmp_path)
    assert result.checks[check] is False
    assert not result.ok
    assert [name for name, ok in result.checks.items() if not ok] == [check]


@pytest.mark.parametrize("check", ["fitness_finite", "real_returns_finite"])
def test_non_finite_results_count_as_failed_attempts(monkeypatch, tmp_path, check):
    owner, attr, fault = FAULTS[check]
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    result = rep(tmp_path)
    assert result.failed >= 1 and result.attempted > result.failed


def test_exception_fails_its_stage_and_later_ones(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(controller, "cma_optimize", broken)
    result = rep(tmp_path)
    wl = pipeline.WORKLOADS["dodge-step"]
    assert "planted" in result.error
    assert result.failed == (wl.generations + 1) * pipeline.N_POP * pipeline.N_TRIALS + wl.real_episodes


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(world_model, "save_model", _flip_payload_byte(world_model.save_model))
    code, result = result_of(capsys, "--workload", "dodge-step", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert code != 0 and result["correct"] is False


def test_unstable_digest_exits_nonzero(monkeypatch, capsys):
    calls = iter(range(1000))
    real = controller.evaluate_real

    def drifting(*args, **kwargs):
        res = real(*args, **kwargs)
        res.returns[0] += next(calls)
        return res

    monkeypatch.setattr(controller, "evaluate_real", drifting)
    code, result = result_of(capsys, "--workload", "track-mc", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert code != 0 and result["correct"] is False
