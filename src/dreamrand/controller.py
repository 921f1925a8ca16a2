"""Linear controller, CMA-ES search over its parameters inside dream
environments, the periodic dream leader board, and the final mask-free
real-environment evaluation.

``linear_policy`` is the one implementation of the controller, a batched
policy over lanes: the dream rollouts and ``evaluate_real`` act through it,
both running their episodes in lockstep on ``dream.run_lanes``.

The evolution strategy is the standard (mu/mu_w, lambda) CMA-ES with rank-mu
update and the canonical weight and learning-rate formulas. Fitness is used
only through ranks, so any strictly monotone transform of the returns leaves
the search trajectory unchanged.
"""
from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import storage
from .dream import DreamConfig, rollout_batch, run_lanes
from .lstm import lstm_step
from .numerics import rng_stream

__all__ = [
    "FeatureSpec",
    "ControllerParams",
    "linear_policy",
    "CmaConfig",
    "CmaEs",
    "LeaderBoard",
    "LeaderBoardEntry",
    "CmaResult",
    "cma_optimize",
    "RealEvalResult",
    "evaluate_real",
    "save_controller",
    "load_controller",
]

CONTROLLER_VERSION = 1


class FeatureSpec(str, Enum):
    ZH = "zh"
    ZHC = "zhc"

    def feature_dim(self, n: int, d: int) -> int:
        return n + d if self is FeatureSpec.ZH else n + 2 * d


@dataclass
class ControllerParams:
    """Single-layer policy: action = tanh(W @ features + b)."""

    w: np.ndarray
    b: np.ndarray
    features: FeatureSpec = FeatureSpec.ZH

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.features = FeatureSpec(self.features)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("controller weight/bias shapes disagree")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise ValueError("non-finite controller parameters")

    @property
    def action_dim(self) -> int:
        return self.w.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w.shape[1]

    @classmethod
    def from_flat(cls, vec, action_dim, feature_dim, features=FeatureSpec.ZH) -> "ControllerParams":
        vec = np.asarray(vec, dtype=np.float64)
        expected = action_dim * (feature_dim + 1)
        if vec.shape != (expected,):
            raise ValueError(f"flat controller vector must have length {expected}")
        w = vec[: action_dim * feature_dim].reshape(action_dim, feature_dim)
        b = vec[action_dim * feature_dim :]
        return cls(w.copy(), b.copy(), features)

    def to_flat(self) -> np.ndarray:
        return np.concatenate([self.w.ravel(), self.b])

    def copy(self) -> "ControllerParams":
        return ControllerParams(self.w.copy(), self.b.copy(), self.features)


def linear_policy(W, B, features: FeatureSpec = FeatureSpec.ZH):
    """The linear controller as a batched policy.

    W (L, action_dim, feature_dim) and B (L, action_dim) hold one controller
    per lane. The returned ``policy(lanes, Z, H, C)`` gives the actions
    tanh(W[lane] @ f + B[lane]) of the lanes indexed by ``lanes``, one row
    each, where f is [z, h], or [z, h, c] under FeatureSpec.ZHC.
    """
    W = np.asarray(W, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if W.ndim != 3 or B.shape != W.shape[:2]:
        raise ValueError(f"controller weights {W.shape} and biases {B.shape} disagree")
    zhc = FeatureSpec(features) is FeatureSpec.ZHC

    def policy(lanes, Z, H, C):
        feats = np.concatenate((Z, H, C) if zhc else (Z, H), axis=1)
        return np.tanh(np.einsum("laf,lf->la", W[lanes], feats) + B[lanes])

    return policy


@dataclass
class CmaConfig:
    n_pop: int = 16
    n_trials: int = 4
    generations: int = 200
    eval_cadence: int = 25
    sigma0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_pop < 4:
            raise ValueError("population size must be at least 4")
        if self.n_trials < 1 or self.generations < 1 or self.eval_cadence < 1:
            raise ValueError("n_trials, generations, and eval_cadence must be positive")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")


class CmaEs:
    """Minimal (mu/mu_w, lambda) CMA-ES with rank-one and rank-mu covariance
    updates and cumulative step-size adaptation."""

    def __init__(self, x0, sigma0, popsize, rng):
        x0 = np.asarray(x0, dtype=np.float64)
        n = len(x0)
        self.n = n
        self.lam = int(popsize)
        if self.lam < 4:
            raise ValueError("population size must be at least 4")
        self.rng = rng
        self.mean = x0.copy()
        self.sigma = float(sigma0)

        mu = self.lam // 2
        raw = np.log((self.lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        self.weights = raw / raw.sum()
        self.mu = mu
        self.mueff = float(self.weights.sum() ** 2 / np.sum(self.weights**2))

        self.cc = (4.0 + self.mueff / n) / (n + 4.0 + 2.0 * self.mueff / n)
        self.cs = (self.mueff + 2.0) / (n + self.mueff + 5.0)
        self.c1 = 2.0 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1.0 - self.c1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((n + 2.0) ** 2 + self.mueff),
        )
        self.damps = 1.0 + 2.0 * max(0.0, np.sqrt((self.mueff - 1.0) / (n + 1.0)) - 1.0) + self.cs
        self.chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

        self.pc = np.zeros(n)
        self.ps = np.zeros(n)
        self.cov = np.eye(n)
        self.generation = 0
        self._eig_basis = np.eye(n)
        self._eig_sqrt = np.ones(n)

    def _decompose(self):
        self.cov = (self.cov + self.cov.T) / 2.0
        vals, vecs = np.linalg.eigh(self.cov)
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise RuntimeError("covariance lost positive definiteness")
        self._eig_sqrt = np.sqrt(vals)
        self._eig_basis = vecs

    def ask(self) -> np.ndarray:
        """Sample a population of candidate solutions, shape (lam, n)."""
        self._decompose()
        z = self.rng.standard_normal((self.lam, self.n))
        y = (z * self._eig_sqrt) @ self._eig_basis.T
        return self.mean + self.sigma * y

    def tell(self, solutions, costs) -> None:
        """Rank-based distribution update (costs are minimized)."""
        solutions = np.asarray(solutions, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if solutions.shape != (self.lam, self.n) or costs.shape != (self.lam,):
            raise ValueError("solutions/costs do not match the population shape")
        order = np.argsort(costs, kind="stable")
        selected = solutions[order[: self.mu]]

        old_mean = self.mean
        self.mean = self.weights @ selected
        y_mean = (self.mean - old_mean) / self.sigma

        inv_sqrt = self._eig_basis @ np.diag(1.0 / self._eig_sqrt) @ self._eig_basis.T
        csn = np.sqrt(self.cs * (2.0 - self.cs) * self.mueff)
        self.ps = (1.0 - self.cs) * self.ps + csn * (inv_sqrt @ y_mean)
        self.generation += 1
        ps_norm = float(np.linalg.norm(self.ps))
        denom = np.sqrt(1.0 - (1.0 - self.cs) ** (2.0 * self.generation))
        hsig = ps_norm / denom / self.chi_n < 1.4 + 2.0 / (self.n + 1.0)

        ccn = np.sqrt(self.cc * (2.0 - self.cc) * self.mueff)
        self.pc = (1.0 - self.cc) * self.pc + hsig * ccn * y_mean

        c1a = self.c1 * (1.0 - (1.0 - hsig**2) * self.cc * (2.0 - self.cc))
        ys = (selected - old_mean) / self.sigma
        rank_mu = (ys * self.weights[:, None]).T @ ys
        self.cov = (
            (1.0 - c1a - self.cmu) * self.cov
            + self.c1 * np.outer(self.pc, self.pc)
            + self.cmu * rank_mu
        )
        self.sigma *= float(np.exp((self.cs / self.damps) * (ps_norm / self.chi_n - 1.0)))


@dataclass
class LeaderBoardEntry:
    generation: int
    controller: ControllerParams
    dream_mean: float
    dream_std: float


@dataclass
class LeaderBoard:
    entries: list = field(default_factory=list)

    def append(self, entry: LeaderBoardEntry) -> None:
        self.entries.append(entry)

    def best(self) -> LeaderBoardEntry:
        if not self.entries:
            raise ValueError("leader board is empty")
        return max(self.entries, key=lambda e: (e.dream_mean, -e.generation))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "dream_mean", "dream_std"])
            for e in self.entries:
                writer.writerow([e.generation, repr(e.dream_mean), repr(e.dream_std)])


@dataclass
class CmaResult:
    leader_board: LeaderBoard
    best_controller: ControllerParams
    gen_stats: list  # one dict per generation: fitness summary + instrumentation


def _stack_controllers(flats, action_dim, feature_dim, n_trials):
    """Repeat each member's parameters across its trials: lane = (member, trial)."""
    flats = np.asarray(flats, dtype=np.float64)
    cut = action_dim * feature_dim
    W = np.repeat(flats[:, :cut].reshape(-1, action_dim, feature_dim), n_trials, axis=0)
    B = np.repeat(flats[:, cut:], n_trials, axis=0)
    return W, B


def cma_optimize(
    dream_cfg: DreamConfig,
    cma_cfg: CmaConfig,
    starts: np.ndarray,
    features: FeatureSpec = FeatureSpec.ZH,
) -> CmaResult:
    """Train the controller inside dream environments with CMA-ES; every
    dream episode starts from the (m, n) pool ``starts``.

    Every member of each generation is scored by its mean return over
    n_trials dream episodes; each (generation, member, trial) episode runs on
    its own derived random stream, so fitness is independent of evaluation
    order. Every eval_cadence generations (and at the final generation) the
    generation's best member is re-evaluated over n_pop * n_trials episodes
    and logged to the dream leader board; the board's maximum is returned.
    """
    model = dream_cfg.model
    n, d = model.n, model.hidden_dim
    feature_dim = features.feature_dim(n, d)
    action_dim = model.action_dim
    dim = action_dim * (feature_dim + 1)

    es = CmaEs(np.zeros(dim), cma_cfg.sigma0, cma_cfg.n_pop, rng_stream(cma_cfg.seed, "cma-ask"))
    board = LeaderBoard()
    gen_stats = []
    n_trials = cma_cfg.n_trials

    for gen in range(1, cma_cfg.generations + 1):
        xs = es.ask()
        W, B = _stack_controllers(xs, action_dim, feature_dim, n_trials)
        lane_rngs = [
            rng_stream(cma_cfg.seed, "dream", gen, member, trial)
            for member in range(cma_cfg.n_pop)
            for trial in range(n_trials)
        ]
        out = rollout_batch(dream_cfg, linear_policy(W, B, features), lane_rngs, starts)
        per_member = out["returns"].reshape(cma_cfg.n_pop, n_trials)
        fitness = per_member.mean(axis=1)
        bad = ~np.isfinite(fitness)
        costs = np.where(bad, np.inf, -fitness)
        es.tell(xs, costs)

        stats = {
            "generation": gen,
            "best_fitness": float(np.max(fitness[~bad])) if (~bad).any() else float("nan"),
            "mean_fitness": float(np.mean(fitness[~bad])) if (~bad).any() else float("nan"),
            "non_finite_members": int(bad.sum()),
            "masks_sampled": out["masks_sampled"],
            "episodes": int(cma_cfg.n_pop * n_trials),
            "env_steps": int(out["steps"].sum()),
            "sigma": es.sigma,
        }
        gen_stats.append(stats)

        if gen % cma_cfg.eval_cadence == 0 or gen == cma_cfg.generations:
            best = xs[int(np.argmax(np.where(bad, -np.inf, fitness)))]
            n_eval = cma_cfg.n_pop * n_trials
            WB, BB = _stack_controllers(best[None], action_dim, feature_dim, n_eval)
            eval_rngs = [rng_stream(cma_cfg.seed, "leaderboard", gen, j) for j in range(n_eval)]
            eval_out = rollout_batch(dream_cfg, linear_policy(WB, BB, features), eval_rngs, starts)
            board.append(
                LeaderBoardEntry(
                    gen,
                    ControllerParams.from_flat(best, action_dim, feature_dim, features),
                    float(eval_out["returns"].mean()),
                    float(eval_out["returns"].std()),
                )
            )

    return CmaResult(board, board.best().controller.copy(), gen_stats)


@dataclass
class RealEvalResult:
    mean: float
    std: float
    returns: np.ndarray


def evaluate_real(ctrl: ControllerParams, env, model_params, n_episodes: int, seed: int) -> RealEvalResult:
    """Roll the controller in the real environment. The world model runs
    mask-free and is used only to produce h (and c) as controller features;
    no parameters are updated.

    The episodes run in lockstep on ``run_lanes``; episode ``ep`` steps a deep
    copy of ``env`` with its own generator ``rng_stream(seed, "real", ep)``,
    for at most ``env.max_ep_len`` steps.
    Each iteration makes one ``lstm_step`` call over the active episodes,
    then steps their envs in episode order. A cell over A rows rounds unlike
    a one-row cell (by up to 2.5e-16), so actions match an episode run alone
    only to that rounding.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    if ctrl.feature_dim != ctrl.features.feature_dim(model_params.n, model_params.hidden_dim):
        raise ValueError("controller features do not match the world model dimensions")
    if env.state_dim != model_params.n or env.action_dim != model_params.action_dim:
        raise ValueError("environment dimensions do not match the world model")
    W, B = _stack_controllers(ctrl.to_flat()[None], ctrl.action_dim, ctrl.feature_dim, n_episodes)
    rngs = [rng_stream(seed, "real", ep) for ep in range(n_episodes)]
    envs = [copy.deepcopy(env) for _ in range(n_episodes)]
    Z = np.stack([env_ep.reset(rng) for env_ep, rng in zip(envs, rngs)])

    def transition(lanes, X, H, C):
        h, c = lstm_step(model_params.lstm, X, H, C)
        out = [envs[j].step(x[model_params.n :], rngs[j]) for j, x in zip(lanes.tolist(), X)]
        z_next, r, ended = (np.array(col) for col in zip(*out))
        return h, c, z_next, r, ended

    returns, _, _ = run_lanes(model_params, linear_policy(W, B, ctrl.features), transition, Z, env.max_ep_len)
    return RealEvalResult(float(returns.mean()), float(returns.std()), returns)


def save_controller(ctrl: ControllerParams, path) -> None:
    header = {"features": ctrl.features.value, "action_dim": ctrl.action_dim, "feature_dim": ctrl.feature_dim}
    storage.write_container(path, "controller", CONTROLLER_VERSION, header, {"w": ctrl.w, "b": ctrl.b})


def load_controller(path) -> ControllerParams:
    header, arrays = storage.read_container(path, "controller", CONTROLLER_VERSION)
    try:
        ctrl = ControllerParams(arrays["w"], arrays["b"], FeatureSpec(header["features"]))
        if (header["action_dim"], header["feature_dim"]) != (ctrl.action_dim, ctrl.feature_dim):
            raise ValueError(f"header says {header['action_dim']} x {header['feature_dim']}, w is {ctrl.w.shape}")
        return ctrl
    except (KeyError, ValueError) as exc:
        raise storage.CorruptFileError(f"invalid controller checkpoint: {exc}") from exc
