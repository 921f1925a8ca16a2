"""Analytic ground-truth environments, trajectory collection, and the
versioned on-disk dataset format.

Both environments expose their low-dimensional state directly (identity
encoder), carry small Gaussian process noise so learned dynamics stay
genuinely stochastic, and end every episode with exactly one terminal step.

Each environment's class is its one declaration: the dataclass fields are the
simulator's parameters with their defaults, and the class holds its ``name``,
dynamics and ``expert``, which ``params()``, ``make_env`` and ``expert_policy`` read.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import storage

__all__ = [
    "EpisodeDoneError",
    "DodgeWorld",
    "TrackWorld",
    "Trajectory",
    "Dataset",
    "make_env",
    "expert_policy",
    "random_policy",
    "collect_trajectories",
    "save_dataset",
    "load_dataset",
    "DATASET_VERSION",
]

DATASET_VERSION = 2


class EpisodeDoneError(RuntimeError):
    """Raised when a finished episode is stepped without a reset."""


class _Env:
    """Base of the environment dataclasses, whose fields are the simulator's
    parameters in constructor order."""

    def __post_init__(self):
        # Each value takes its default's type, so numpy scalars save as JSON.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                value = [type(d)(v) for d, v in zip(f.default, value, strict=True)]
            setattr(self, f.name, type(f.default)(value))
        self._done = True

    def params(self) -> dict:
        """The parameters by name, tuples as lists so a JSON round trip compares equal."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v for f in fields(self)}


@dataclass(eq=False)
class DodgeWorld(_Env):
    """Dodge falling hazards on the segment [-1, 1].

    State: [agent_x, (hazard_dx, hazard_y) per hazard] where hazard_dx is the
    hazard's horizontal offset from the agent. Action: scalar in [-1, 1]
    moving the agent. Reward +1 every surviving step; a hazard reaching the
    ground within the collision radius, or the step cap, ends the episode.
    """

    name = "dodge"
    action_dim = 1

    n_hazards: int = 2
    noise_std: float = 0.01
    max_ep_len: int = 2100
    agent_speed: float = 0.12
    collision_radius: float = 0.3
    fall_speed_range: tuple = (0.025, 0.05)

    @property
    def state_dim(self) -> int:
        return 1 + 2 * self.n_hazards

    def _observe(self):
        parts = [np.array([self._x])]
        for i in range(self.n_hazards):
            parts.append(np.array([self._hx[i] - self._x, self._hy[i]]))
        return np.concatenate(parts)

    def reset(self, rng) -> np.ndarray:
        self._x = 0.0
        h = self.n_hazards
        self._hx = rng.uniform(-1.0, 1.0, size=h)
        self._hy = rng.uniform(0.4, 1.0, size=h)
        self._vy = rng.uniform(*self.fall_speed_range, size=h)
        self._t = 0
        self._done = False
        return self._observe()

    def step(self, action, rng):
        if self._done:
            raise EpisodeDoneError("episode is done; call reset")
        a = float(np.clip(np.asarray(action, dtype=np.float64).reshape(-1)[0], -1.0, 1.0))
        self._x = float(np.clip(self._x + self.agent_speed * a + self.noise_std * rng.standard_normal(), -1.0, 1.0))
        if self.n_hazards:
            self._hx = np.clip(self._hx + self.noise_std * rng.standard_normal(self.n_hazards), -1.0, 1.0)
        collided = False
        for i in range(self.n_hazards):
            self._hy[i] -= self._vy[i]
            if self._hy[i] <= 0.0:
                if abs(self._x - self._hx[i]) < self.collision_radius:
                    collided = True
                else:
                    self._hx[i] = rng.uniform(-1.0, 1.0)
                    self._hy[i] = rng.uniform(0.9, 1.2)
                    self._vy[i] = rng.uniform(*self.fall_speed_range)
        self._t += 1
        self._done = collided or self._t >= self.max_ep_len
        return self._observe(), 1.0, self._done

    def expert(self, z, rng):
        """Step away from the lowest hazard when it is near, else drift back to the centre."""
        x = z[0]
        if self.n_hazards == 0:
            return np.array([np.clip(-x, -1.0, 1.0)])
        dx = z[1::2]
        hy = z[2::2]
        i = int(np.argmin(hy))
        if abs(dx[i]) > 2.0 * self.collision_radius:
            return np.array([np.clip(-2.0 * x, -1.0, 1.0)])  # drift back to center
        away = -np.sign(dx[i]) if dx[i] != 0.0 else (1.0 if x <= 0 else -1.0)
        if abs(x + away * self.agent_speed) > 0.98:  # wall ahead: cut across instead
            away = -away
        return np.array([away])


@dataclass(eq=False)
class TrackWorld(_Env):
    """Progress along a tiled track with per-episode random curvature.

    State: [progress s, speed v, heading error e, curvature at s, curvature
    ahead]. Action: [steer, throttle] in [-1, 1]^2. Progress only accrues
    while |e| < 1; curvature pushes e and must be steered against. Each
    newly crossed tile pays 100/n_tiles - 0.1, every other step -0.1; the
    episode ends when all tiles are crossed or at the step cap.
    """

    name = "track"
    action_dim = 2
    state_dim = 5

    n_tiles: int = 20
    noise_std: float = 0.01
    max_ep_len: int = 1000
    accel: float = 0.04
    drag: float = 0.05
    v_max: float = 0.8
    steer_gain: float = 0.3
    curve_gain: float = 0.5
    progress_scale: float = 0.005
    lookahead: float = 0.05
    curve_amp: float = 1.0
    n_curve_modes: int = 3

    def _curvature(self, s):
        if self.curve_amp == 0.0:
            return 0.0
        val = np.sum(self._amps * np.sin(2.0 * np.pi * self._freqs * s + self._phases))
        return float(self.curve_amp * val / np.sum(self._amps))

    def _observe(self):
        return np.array(
            [self._s, self._v, self._e, self._curvature(self._s), self._curvature(self._s + self.lookahead)]
        )

    def reset(self, rng) -> np.ndarray:
        modes = self.n_curve_modes
        self._amps = rng.uniform(0.5, 1.5, size=modes)
        self._freqs = np.arange(1, modes + 1, dtype=np.float64)
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
        self._s = 0.0
        self._v = 0.0
        self._e = 0.0
        self._tiles = 0
        self._t = 0
        self._done = False
        return self._observe()

    def step(self, action, rng):
        if self._done:
            raise EpisodeDoneError("episode is done; call reset")
        a = np.clip(np.asarray(action, dtype=np.float64).reshape(-1)[:2], -1.0, 1.0)
        steer, throttle = float(a[0]), float(a[1])
        kappa = self._curvature(self._s)
        self._v = float(
            np.clip(
                self._v + self.accel * throttle - self.drag * self._v + self.noise_std * rng.standard_normal(),
                0.0,
                self.v_max,
            )
        )
        self._e = float(
            np.clip(
                self._e
                + self.curve_gain * self._v * kappa
                - self.steer_gain * steer
                + self.noise_std * rng.standard_normal(),
                -2.0,
                2.0,
            )
        )
        self._s += self.progress_scale * self._v * max(0.0, 1.0 - abs(self._e))
        # epsilon guard so exact boundary hits in noise-free runs count
        crossed = min(int(np.floor(self._s * self.n_tiles + 1e-9)), self.n_tiles)
        new_tiles = max(0, crossed - self._tiles)
        self._tiles = max(self._tiles, crossed)
        reward = (100.0 / self.n_tiles) * new_tiles - 0.1
        self._t += 1
        self._done = self._tiles >= self.n_tiles or self._t >= self.max_ep_len
        return self._observe(), float(reward), self._done

    def expert(self, z, rng):
        """Steer against the curvature and the heading error, at a speed the sharpest curve ahead allows."""
        k_e = 0.6
        _, v, e, k_now, k_ahead = z
        steer = np.clip((self.curve_gain * v * k_now + k_e * e) / self.steer_gain, -1.0, 1.0)
        sharp = max(abs(k_now), abs(k_ahead))
        v_safe = np.clip(0.9 * self.steer_gain / (self.curve_gain * (sharp + 0.1)), 0.15, self.v_max)
        throttle = np.clip(8.0 * (v_safe - v), -1.0, 1.0)
        return np.array([steer, throttle])


def make_env(name: str, **overrides):
    for cls in (DodgeWorld, TrackWorld):
        if cls.name == name:
            return cls(**overrides)
    raise ValueError(f"unknown environment {name!r}")


def random_policy(action_dim: int):
    def policy(z, rng):
        return rng.uniform(-1.0, 1.0, size=action_dim)

    return policy


def expert_policy(env):
    return env.expert


@dataclass
class Trajectory:
    """One episode: z[t] is the state the action a[t] was taken from, and
    z[T] (one extra row) is the state observed after the final action."""

    z: np.ndarray
    a: np.ndarray
    r: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=bool)
        steps = len(self.a)
        if steps < 1:
            raise ValueError("trajectory must contain at least one step")
        if self.z.shape[0] != steps + 1 or self.r.shape != (steps,) or self.d.shape != (steps,):
            raise ValueError("inconsistent trajectory lengths")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.r))):
            raise ValueError("non-finite trajectory data")
        if not self.d[-1] or self.d[:-1].any():
            raise ValueError("d must be True exactly at the final step")

    @property
    def steps(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return self.z.shape[1]


@dataclass
class Dataset:
    trajectories: list
    train_idx: np.ndarray
    test_idx: np.ndarray
    env_name: str
    env_params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("train_idx", "test_idx"):
            given = np.asarray(getattr(self, name))
            setattr(self, name, given.astype(np.int64))
            if not np.array_equal(getattr(self, name), given):
                raise ValueError(f"{name} holds non-integral values")
        both = np.concatenate([self.train_idx, self.test_idx])
        if both.size and (both.min() < 0 or both.max() >= len(self.trajectories)):
            raise ValueError("split index out of range")
        if np.unique(both).size != both.size:
            raise ValueError("a split index repeats: the splits hold a duplicate or overlap")

    @property
    def n(self) -> int:
        return self.trajectories[0].n

    @property
    def action_dim(self) -> int:
        return self.trajectories[0].a.shape[1]

    def train_trajectories(self):
        return [self.trajectories[i] for i in self.train_idx]

    def test_trajectories(self):
        return [self.trajectories[i] for i in self.test_idx]

    def starts(self) -> np.ndarray:
        """Initial states of the training trajectories (dream start pool)."""
        return np.stack([t.z[0] for t in self.train_trajectories()])

    @classmethod
    def from_splits(cls, train_ds: "Dataset", test_ds: "Dataset") -> "Dataset":
        """Merge two single-split datasets into one train/test dataset."""
        if train_ds.env_name != test_ds.env_name:
            raise ValueError("cannot merge datasets from different environments")
        trajs = list(train_ds.trajectories) + list(test_ds.trajectories)
        n_train = len(train_ds.trajectories)
        return cls(
            trajs,
            np.arange(n_train),
            np.arange(n_train, len(trajs)),
            train_ds.env_name,
            dict(train_ds.env_params),
            {"train_meta": dict(train_ds.meta), "test_meta": dict(test_ds.meta)},
        )


def collect_trajectories(env, policy, count, mix_expert_prob, rng, meta=None) -> Dataset:
    """Roll ``count`` episodes; at each step the given policy acts with
    probability mix_expert_prob, otherwise the action is uniform random.

    Per-trajectory randomness comes from derived child streams, so results do
    not depend on collection order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= mix_expert_prob <= 1.0:
        raise ValueError("mix_expert_prob must be in [0, 1]")
    trajectories = []
    child_rngs = rng.spawn(count)
    for ep_rng in child_rngs:
        z = env.reset(ep_rng)
        zs, actions, rewards, dones = [z], [], [], []
        done = False
        while not done:
            if mix_expert_prob > 0.0 and ep_rng.random() < mix_expert_prob:
                a = np.asarray(policy(z, ep_rng), dtype=np.float64)
            else:
                a = ep_rng.uniform(-1.0, 1.0, size=env.action_dim)
            z, r, done = env.step(a, ep_rng)
            zs.append(z)
            actions.append(a)
            rewards.append(r)
            dones.append(done)
        trajectories.append(Trajectory(np.stack(zs), np.stack(actions), np.array(rewards), np.array(dones)))
    return Dataset(
        trajectories,
        np.arange(count),
        np.array([], dtype=np.int64),
        env.name,
        env.params(),
        dict(meta or {}, mix_expert_prob=mix_expert_prob, count=count),
    )


def save_dataset(ds: Dataset, path) -> None:
    """One storage container: every trajectory's z, a, r and d blocks
    concatenated along time, each trajectory's step count, and the splits."""
    trajs = ds.trajectories
    n, a_dim = (ds.n, ds.action_dim) if trajs else (0, 0)
    arrays = {
        "z": np.concatenate([np.empty((0, n))] + [t.z for t in trajs]),
        "a": np.concatenate([np.empty((0, a_dim))] + [t.a for t in trajs]),
        "r": np.concatenate([np.empty(0)] + [t.r for t in trajs]),
        "d": np.concatenate([np.empty(0, dtype=bool)] + [t.d for t in trajs]),
        "steps": np.array([t.steps for t in trajs], dtype=np.int64),
        "train_idx": ds.train_idx,
        "test_idx": ds.test_idx,
    }
    header = {"env": ds.env_name, "env_params": ds.env_params, "meta": ds.meta}
    storage.write_container(path, "dataset", DATASET_VERSION, header, arrays)


def load_dataset(path) -> Dataset:
    header, arrays = storage.read_container(path, "dataset", DATASET_VERSION)
    try:
        z, a, r, d, steps = (arrays[name] for name in ("z", "a", "r", "d", "steps"))
        if steps.dtype.kind != "i" or steps.ndim != 1 or (steps < 1).any():
            raise storage.CorruptFileError("step counts must be a vector of positive integers")
        total = int(steps.sum())
        if len(z) != total + len(steps) or not len(a) == len(r) == len(d) == total:
            raise storage.CorruptFileError("step counts disagree with the block lengths")
        ends, z_ends = np.cumsum(steps)[:-1], np.cumsum(steps + 1)[:-1]
        blocks = zip(np.split(z, z_ends), np.split(a, ends), np.split(r, ends), np.split(d, ends))
        trajectories = [Trajectory(*parts) for parts in blocks] if len(steps) else []
        return Dataset(
            trajectories,
            arrays["train_idx"],
            arrays["test_idx"],
            header.get("env", "unknown"),
            dict(header.get("env_params", {})),
            dict(header.get("meta", {})),
        )
    except (KeyError, ValueError) as exc:
        raise storage.CorruptFileError(f"invalid dataset: {exc}") from exc
