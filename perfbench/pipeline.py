"""Workloads and one closed-loop rep of the paper's pipeline.

A rep calls the library's public functions in order, each stage starting
when the previous one ends:

    collect_trajectories -> train_dynamics -> evaluate_loss
    -> save/load of the dataset and the model -> cma_optimize
    -> save/load of the controller -> evaluate_real

It then checks the outputs and hashes the results. Every input comes from
the workload and the seed, so one seed gives the same work and the same
result digest on every rep and every run.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from dreamrand import controller, envs, training, world_model
from dreamrand.dream import DreamConfig
from dreamrand.numerics import rng_stream

from tracing import Probe, rebound

HIDDEN = 32
N_POP = 16
N_TRIALS = 4  # 16 members x 4 trials = 64 dream lanes
DREAM_MAX_EP_LEN = 300
SEQ_LEN = 32
BATCH = 16

STAGES = ("collect", "train", "eval_loss", "io", "cma", "real_eval")


@dataclass(frozen=True)
class Workload:
    env: str
    n_train: int
    n_test: int
    expert_mix: float
    epochs: int
    lr: float
    eval_p: float  # evaluate_loss draws a fresh mask per (window, step) at this rate
    eval_masks: int
    policy: str
    p_infer: float
    mc_samples: int
    generations: int
    real_episodes: int
    env_kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    # The paper's method: Step-policy mask randomisation in the dream, where
    # rollout_batch draws a MaskSet per lane-step. lr 1e-2 moves the done
    # head off its initial 0.5, so dream episodes last tens of steps rather
    # than a few.
    "dodge-step": Workload(
        env="dodge", n_train=40, n_test=16, expert_mix=0.7, epochs=10, lr=1e-2,
        eval_p=0.1, eval_masks=3, policy="step", p_infer=0.1, mc_samples=0,
        generations=10, real_episodes=128, env_kwargs={"max_ep_len": 300},
    ),
    # Training-bound: long TrackWorld trajectories and 8 epochs. The dream
    # runs the Off policy and draws no masks, so a change to the dream's mask
    # draw should not move this workload.
    "track-train": Workload(
        env="track", n_train=64, n_test=8, expert_mix=0.9, epochs=8, lr=1e-3,
        eval_p=0.1, eval_masks=3, policy="off", p_infer=0.0, mc_samples=0,
        generations=30, real_episodes=12, env_kwargs={"max_ep_len": 300},
    ),
    # MC-dropout with K=4 masks per lane-step and a KxL cell batch, plus
    # evaluate_loss with one mask per (window, step): the mask-draw and cell
    # layers used in batches, not one Step mask at a time.
    "track-mc": Workload(
        env="track", n_train=24, n_test=16, expert_mix=0.9, epochs=6, lr=1e-2,
        eval_p=0.1, eval_masks=2, policy="step", p_infer=0.1, mc_samples=4,
        generations=5, real_episodes=12, env_kwargs={"max_ep_len": 300},
    ),
}


@dataclass
class Setup:
    """Everything a rep needs that exists before the first stage starts."""

    workload: Workload
    seed: int
    env: object
    train_cfg: training.TrainConfig
    cma_cfg: controller.CmaConfig


def prepare(name: str, seed: int) -> Setup:
    wl = WORKLOADS[name]
    env = envs.make_env(wl.env, **wl.env_kwargs)
    train_cfg = training.TrainConfig(
        hidden_size=HIDDEN, seq_len=SEQ_LEN, batch_size=BATCH, epochs=wl.epochs, lr=wl.lr, seed=seed
    )
    # One leaderboard evaluation, at the final generation.
    cma_cfg = controller.CmaConfig(
        n_pop=N_POP, n_trials=N_TRIALS, generations=wl.generations, eval_cadence=wl.generations, seed=seed
    )
    return Setup(wl, seed, env, train_cfg, cma_cfg)


@dataclass
class Rep:
    seconds: dict = field(default_factory=dict)  # stage -> wall seconds
    work: dict = field(default_factory=dict)  # stage -> units of work done
    checks: dict = field(default_factory=dict)  # check name -> passed
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    terminal_coverage: float = float("nan")
    storage_bytes: int = 0
    probe: Probe | None = None
    error: str | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def ok(self) -> bool:
        return self.error is None and self.failed == 0 and all(self.checks.values())


def _bytes_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _datasets_equal(a, b) -> bool:
    if len(a.trajectories) != len(b.trajectories):
        return False
    for ta, tb in zip(a.trajectories, b.trajectories):
        if not all(_bytes_equal(getattr(ta, f), getattr(tb, f)) for f in ("z", "a", "r", "d")):
            return False
    return (
        _bytes_equal(a.train_idx, b.train_idx)
        and _bytes_equal(a.test_idx, b.test_idx)
        and (a.env_name, a.env_params, a.meta) == (b.env_name, b.env_params, b.meta)
    )


def _models_equal(a, b) -> bool:
    items_a, items_b = a.param_items(), b.param_items()
    return (
        [k for k, _ in items_a] == [k for k, _ in items_b]
        and all(_bytes_equal(x, y) for (_, x), (_, y) in zip(items_a, items_b))
        and (a.n, a.k, a.action_dim, a.meta) == (b.n, b.k, b.action_dim, b.meta)
    )


def _controllers_equal(a, b) -> bool:
    return _bytes_equal(a.w, b.w) and _bytes_equal(a.b, b.b) and a.features == b.features


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


@contextlib.contextmanager
def _stage(rep: Rep, name: str):
    """Time one stage (wall clock, accumulated) and trace it as a span."""
    with rep.probe.span(f"stage.{name}"):
        start = time.perf_counter()
        try:
            yield
        finally:
            rep.seconds[name] = rep.seconds.get(name, 0.0) + time.perf_counter() - start


def run_rep(setup: Setup, workdir: str, trace: bool = False) -> Rep:
    """Run the pipeline once and check it.

    Attempts are train batches, dream episodes and real episodes. A
    non-finite result fails its attempt. An exception stops the rep, and
    every attempt of the stage that raised and of the stages after it
    counts as failed.
    """
    rep = Rep(probe=Probe(trace))
    wl = setup.workload
    pending = {"train": 1, "dream": (wl.generations + 1) * N_POP * N_TRIALS, "real": wl.real_episodes}
    try:
        with rebound(rep.probe.library_hooks()):
            _pipeline(setup, workdir, rep, pending)
    except Exception:  # noqa: BLE001 - a failed rep is reported, not raised
        rep.error = traceback.format_exc()
        for n in pending.values():
            rep.attempted += n
            rep.failed += n
    return rep


def _settle(rep: Rep, pending: dict, kind: str, attempted: int, failed: int) -> None:
    del pending[kind]
    rep.attempted += attempted
    rep.failed += failed


def _pipeline(setup: Setup, workdir: str, rep: Rep, pending: dict) -> None:
    wl, seed, env, probe = setup.workload, setup.seed, setup.env, rep.probe
    env_cls = type(env)

    with _stage(rep, "collect"), rebound([probe.env_step_hook(env_cls, "collect", count=False)]):
        policy = envs.expert_policy(env)
        train_ds = envs.collect_trajectories(env, policy, wl.n_train, wl.expert_mix, rng_stream(seed, "perfbench", "train"))
        test_ds = envs.collect_trajectories(env, policy, wl.n_test, wl.expert_mix, rng_stream(seed, "perfbench", "test"))
        ds = envs.Dataset.from_splits(train_ds, test_ds)
    rep.work["collect"] = sum(t.steps for t in ds.trajectories)

    # The windows train_dynamics will cut; today every window step has loss weight 1.
    train_trajs = ds.train_trajectories()
    xb, _, _, db = training.make_windows(train_trajs, SEQ_LEN)
    pending["train"] = wl.epochs * math.ceil(xb.shape[0] / BATCH)
    rep.terminal_coverage = float(db.sum()) / sum(int(t.d.sum()) for t in train_trajs)
    with _stage(rep, "train"):
        params, report = training.train_dynamics(ds, setup.train_cfg)
    rep.work["train"] = xb.shape[0] * xb.shape[1] * wl.epochs
    rep.checks["loss_report_finite"] = _finite(report.train_loss, report.test_loss, report.lz, report.lr, report.ld)
    _settle(rep, pending, "train", pending["train"], 0)

    with _stage(rep, "eval_loss"):
        ev = training.evaluate_loss(params, ds, wl.eval_p, n_mask_samples=wl.eval_masks, seed=seed)
    rep.work["eval_loss"] = ev.per_sequence.size * SEQ_LEN
    rep.checks["eval_loss_finite"] = _finite(ev.mean, ev.std_err, ev.per_sequence)

    ds_path, model_path, ctrl_path = (os.path.join(workdir, f) for f in ("dataset.bin", "model.bin", "controller.bin"))
    # The io stage times exactly the save/load round trips; the comparisons follow it.
    with _stage(rep, "io"):
        envs.save_dataset(ds, ds_path)
        ds_loaded = envs.load_dataset(ds_path)
        world_model.save_model(params, model_path)
        params_loaded = world_model.load_model(model_path)
    rep.checks["dataset_roundtrip"] = _datasets_equal(ds, ds_loaded)
    rep.checks["model_roundtrip"] = _models_equal(params, params_loaded)

    dream_cfg = DreamConfig(
        [params_loaded], p_infer=wl.p_infer, policy=wl.policy, mc_samples=wl.mc_samples, max_ep_len=DREAM_MAX_EP_LEN
    )
    with _stage(rep, "cma"):
        res = controller.cma_optimize(dream_cfg, setup.cma_cfg, starts=ds_loaded.starts())
    rep.work["cma"] = probe.dream.lane_steps
    fitness = [(g["best_fitness"], g["mean_fitness"]) for g in res.gen_stats]
    board = [(e.dream_mean, e.dream_std) for e in res.leader_board.entries]
    rep.checks["fitness_finite"] = _finite(fitness, board) and all(g["non_finite_members"] == 0 for g in res.gen_stats)
    _settle(rep, pending, "dream", probe.dream.lanes, probe.dream.non_finite)

    with _stage(rep, "io"):
        controller.save_controller(res.best_controller, ctrl_path)
        ctrl_loaded = controller.load_controller(ctrl_path)
    rep.checks["controller_roundtrip"] = _controllers_equal(res.best_controller, ctrl_loaded)
    rep.storage_bytes = sum(os.path.getsize(p) for p in (ds_path, model_path, ctrl_path))

    with _stage(rep, "real_eval"), rebound([probe.env_step_hook(env_cls, "real", count=True)]):
        real = controller.evaluate_real(ctrl_loaded, env, params_loaded, wl.real_episodes, seed)
    rep.work["real_eval"] = probe.real_env_steps
    rep.checks["real_returns_finite"] = _finite(real.mean, real.std, real.returns)
    _settle(rep, pending, "real", len(real.returns), int(np.count_nonzero(~np.isfinite(real.returns))))

    digest = hashlib.sha256()
    for _, arr in params.param_items():
        digest.update(arr.tobytes())
    digest.update(res.best_controller.to_flat().tobytes())
    digest.update(real.returns.tobytes())
    rep.digest = digest.hexdigest()
