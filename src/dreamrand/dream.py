"""Dream environments: episodic simulators whose transition function is the
trained dynamics model under a configurable mask-randomization policy.

Masks are the ``(sx, sh)`` arrays of ``dreamrand.lstm``, or None for the
unmasked model. Policies: Off steps unmasked throughout; Episode draws one
mask set per episode; Step draws a fresh mask set every step, so every step
runs a different masked model. At p_infer = 0 no policy draws or counts a
mask: every step runs unmasked. Baseline variants are selected through the
config: MC-dropout (average mixture parameters, reward, termination, and
hidden state over several independently masked passes, then sample once),
Noisy (unmasked stepping plus Gaussian perturbation of the latent), and
explicit ensembles (the active member is resampled per step or per episode,
hidden state carried across members unchanged).

``rollout_batch`` runs one episode per lane in lockstep; ``DreamEnv`` is its
one-lane view. Both make their draws through ``_reset_draws`` and
``_step_draws`` and step through ``_dream_step``.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lstm import lstm_step, mask_uniform_count, masks_from_uniforms
from .lstm import sample_mask_set  # noqa: F401  (unused here; perfbench probes rebind this name)
from .numerics import sigmoid
from .world_model import WorldModelParams, heads_raw
from .world_model import sample_transition_raw  # noqa: F401  (unused here; perfbench probes rebind this name)

__all__ = [
    "RandomizationPolicy",
    "ZInit",
    "DreamConfig",
    "DreamEnvState",
    "DreamEnv",
    "mask_hash",
    "write_trace",
    "rollout_batch",
]


class RandomizationPolicy(str, Enum):
    OFF = "off"
    EPISODE = "episode"
    STEP = "step"


class ZInit(str, Enum):
    STANDARD_NORMAL = "standard_normal"
    DATASET_STARTS = "dataset_starts"


class DreamDoneError(RuntimeError):
    """Raised when a finished dream episode is stepped without a reset."""


@dataclass
class DreamConfig:
    """Dream-environment behavior. ``ensemble`` holds the dynamics model(s);
    size 1 means a single model. The MC-dropout, noise, and ensemble variants
    are mutually exclusive so each baseline is tested in isolation."""

    ensemble: list
    p_infer: float = 0.1
    policy: RandomizationPolicy = RandomizationPolicy.STEP
    mc_samples: int = 0
    z_init: ZInit = ZInit.DATASET_STARTS
    max_ep_len: int = 1000
    noise_sigma: float = 0.0
    rescale: str = "infer"  # inverted-dropout rescaling convention at inference

    def __post_init__(self):
        self.policy = RandomizationPolicy(self.policy)
        self.z_init = ZInit(self.z_init)
        if not self.ensemble:
            raise ValueError("ensemble must contain at least one model")
        first = self.ensemble[0]
        for m in self.ensemble[1:]:
            if (m.n, m.k, m.hidden_dim, m.action_dim) != (first.n, first.k, first.hidden_dim, first.action_dim):
                raise ValueError("ensemble members must share dimensions")
        if not 0.0 <= self.p_infer < 1.0:
            raise ValueError("p_infer must be in [0, 1)")
        if self.mc_samples < 0 or self.noise_sigma < 0:
            raise ValueError("mc_samples and noise_sigma must be non-negative")
        if self.max_ep_len < 1:
            raise ValueError("max_ep_len must be positive")
        variants = (self.mc_samples > 0) + (self.noise_sigma > 0.0) + (len(self.ensemble) > 1)
        if variants > 1:
            raise ValueError("mc_samples, noise_sigma, and ensembles are mutually exclusive")
        if self.noise_sigma > 0.0 and (self.p_infer != 0.0 or self.policy != RandomizationPolicy.OFF):
            raise ValueError("the noisy variant steps with the all-ones mask (p_infer=0, policy=off)")
        if len(self.ensemble) > 1:
            if self.p_infer != 0.0:
                raise ValueError("explicit ensembles run without dropout (p_infer=0)")
            if self.policy == RandomizationPolicy.OFF:
                raise ValueError("ensembles need a member-resampling cadence (episode or step)")
        if self.rescale not in ("infer", "train", "none"):
            raise ValueError("rescale must be one of 'infer', 'train', 'none'")

    @property
    def model(self) -> WorldModelParams:
        return self.ensemble[0]

    def scale_rate(self) -> float | None:
        """Rate used for inverted-dropout rescaling of inference masks."""
        if self.rescale == "infer":
            return None  # rescale by p_infer itself
        if self.rescale == "train":
            return float(self.model.meta.get("p_train", 0.0))
        return 0.0


@dataclass
class DreamEnvState:
    h: np.ndarray
    c: np.ndarray
    z_hat: np.ndarray
    mask: tuple | None  # (sx, sh) of the last step's masks, or None when unmasked
    model_idx: int
    t: int
    done: bool
    truncated: bool


def mask_hash(sx, sh) -> str:
    """Short hash of the kept/dropped pattern of a mask block."""
    return hashlib.sha1(np.packbits(sx != 0).tobytes() + np.packbits(sh != 0).tobytes()).hexdigest()[:12]


def write_trace(records, path) -> None:
    """Line-delimited JSON rollout trace (one record per step)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _mask_plan(cfg: DreamConfig):
    """How each lane draws masks: (uniforms per mask set, mask sets drawn at
    reset, mask sets drawn per step, the ``masks_from_uniforms`` arguments
    that follow the uniforms).

    No masks are drawn at p_infer = 0; MC dropout draws mc_samples sets per
    lane-step, under any policy.
    """
    model = cfg.model
    args = (cfg.p_infer, model.input_dim, model.hidden_dim, model.action_input_dims, cfg.scale_rate())
    per_set = mask_uniform_count(*args[:3])
    if not per_set:
        return 0, 0, 0, args
    if cfg.mc_samples:
        return per_set, 0, cfg.mc_samples, args
    return per_set, int(cfg.policy == RandomizationPolicy.EPISODE), int(cfg.policy == RandomizationPolicy.STEP), args


def _reset_draws(cfg: DreamConfig, rngs, starts, m_u):
    """Each lane's reset draws, lane by lane, from its own generator: the
    initial latent (``standard_normal(n)``, or ``integers(m)`` picking one of
    the m ``starts``), then ``random(m_u)`` for an Episode mask when m_u > 0,
    then ``integers(members)`` for an ensemble.

    Returns the latents (L, n), the mask uniforms (L, m_u) and the members
    (L,).
    """
    Z = np.empty((len(rngs), cfg.model.n))
    U0 = np.empty((len(rngs), m_u))
    member = np.zeros(len(rngs), dtype=np.int64)
    for lane, rng in enumerate(rngs):
        if cfg.z_init == ZInit.STANDARD_NORMAL:
            rng.standard_normal(out=Z[lane])
        else:
            Z[lane] = starts[int(rng.integers(len(starts)))]
        if m_u:
            rng.random(out=U0[lane])
        if len(cfg.ensemble) > 1:
            member[lane] = rng.integers(len(cfg.ensemble))
    return Z, U0, member


def _step_draws(cfg: DreamConfig, rngs, member, m_u):
    """Each active lane's draws for one step, lane by lane; this is the
    dream's draw contract.

    Each lane consumes only its own generator, in this order: the ensemble
    member ``integers(members)`` (step cadence only, written into
    ``member``); one ``random(m_u + n)`` call holding the step's m_u mask
    uniforms (none, one mask set's or mc_samples sets' worth) followed by
    the n component uniforms; ``standard_normal(n)``; the done uniform
    ``random()``; and for the noisy variant ``standard_normal(n)``. This is
    the order of the per-lane loop in ``tests/reference_rollout.py``, so
    draws, returns, steps, truncation and mask counts match it bit for bit.

    Returns (U (A, m_u + n), eps (A, n), done uniforms (A,), noise (A, n) or
    None).
    """
    A, n = len(rngs), cfg.model.n
    member_per_step = len(cfg.ensemble) > 1 and cfg.policy == RandomizationPolicy.STEP
    U = np.empty((A, m_u + n))
    E = np.empty((A, n))
    D = np.empty(A)
    N = np.empty((A, n)) if cfg.noise_sigma > 0.0 else None
    for j, rng in enumerate(rngs):
        if member_per_step:
            member[j] = rng.integers(len(cfg.ensemble))
        rng.random(out=U[j])
        rng.standard_normal(out=E[j])
        D[j] = rng.random()
        if N is not None:
            rng.standard_normal(out=N[j])
    return U, E, D, N


def _dream_step(cfg: DreamConfig, X, H, C, member, sx, sh, u_comp, E, D, N):
    """One dream step for A lanes as array math.

    X (A, r) holds each lane's [z, action], H and C its state; sx/sh hold
    one mask set per lane, K per lane for MC dropout (K*A rows, lane-major),
    or None. Runs the masked cell and the heads (the K passes averaged; an
    ensemble's rows grouped by member), then the transition from the lanes'
    draws: component choice from u_comp (A, n), the Gaussian draw from E,
    the noise N, and the done test of D against d_hat.

    Returns (h, c, z_next, r_hat, d_hat, ended).
    """
    A = len(X)
    model = cfg.model
    K = 1 if sx is None else len(sx) // A
    if K > 1:
        X, H, C = (np.repeat(a, K, axis=0) for a in (X, H, C))
    if len(cfg.ensemble) == 1:
        h, c = lstm_step(model.lstm, X, H, C, sx, sh)
        _, pi, mu, sigma, r_hat, u = heads_raw(model, h)
    else:  # explicit ensembles run unmasked (p_infer = 0)
        h, c = np.empty(H.shape), np.empty(C.shape)
        pi, mu, sigma = (np.empty((A, model.n, model.k)) for _ in range(3))
        r_hat, u = np.empty(A), np.empty(A)
        for m, params in enumerate(cfg.ensemble):
            rows = np.flatnonzero(member == m)
            if len(rows):
                h[rows], c[rows] = lstm_step(params.lstm, X[rows], H[rows], C[rows])
                _, pi[rows], mu[rows], sigma[rows], r_hat[rows], u[rows] = heads_raw(params, h[rows])
    d_hat = sigmoid(u)
    if K > 1:
        h, c, pi, mu, sigma, r_hat, d_hat = (
            a.reshape((A, K) + a.shape[1:]).mean(axis=1) for a in (h, c, pi, mu, sigma, r_hat, d_hat)
        )

    comp = np.minimum((u_comp[:, :, None] >= np.cumsum(pi, axis=2)).sum(axis=2), model.k - 1)
    pick = (np.arange(A)[:, None], np.arange(model.n), comp)
    z_next = mu[pick] + sigma[pick] * E
    if N is not None:
        z_next = z_next + cfg.noise_sigma * N
    return h, c, z_next, r_hat, d_hat, D < d_hat


class DreamEnv:
    """Single dream episode driver: the one-lane view of ``rollout_batch``.

    It draws through the same helpers and steps through the same array step
    as ``rollout_batch``; the instance only carries episode state, the
    mask-sampling counter, and the optional step trace.
    """

    def __init__(self, cfg: DreamConfig, starts: np.ndarray | None = None):
        self.cfg = cfg
        self.starts = None if starts is None else np.asarray(starts, dtype=np.float64)
        if self.starts is not None and (self.starts.ndim != 2 or self.starts.shape[1] != cfg.model.n):
            raise ValueError("starts must have shape (count, n)")
        self.state: DreamEnvState | None = None
        self.masks_sampled = 0
        self.trace: list | None = None
        self._plan = _mask_plan(cfg)

    @property
    def n(self) -> int:
        return self.cfg.model.n

    @property
    def action_dim(self) -> int:
        return self.cfg.model.action_dim

    def start_trace(self):
        self.trace = []
        return self.trace

    def reset(self, rng):
        """Start an episode: zero hidden/cell state, draw the initial latent,
        and (under Episode policy) this episode's mask."""
        cfg = self.cfg
        if cfg.z_init == ZInit.DATASET_STARTS and (self.starts is None or len(self.starts) == 0):
            raise ValueError("dataset_starts requires a non-empty start pool")
        per_set, at_reset, _, mask_args = self._plan
        Z, U0, member = _reset_draws(cfg, [rng], self.starts, per_set * at_reset)
        self.masks_sampled += at_reset
        d = cfg.model.hidden_dim
        mask = masks_from_uniforms(U0, *mask_args) if at_reset else None
        self.state = DreamEnvState(np.zeros(d), np.zeros(d), Z[0], mask, int(member[0]), 0, False, False)
        if self.trace is not None:
            self.trace.clear()
        return Z[0].copy(), self.state.h.copy()

    def step(self, action, rng):
        """Advance the dream one step. Returns (z_hat', r_hat, done, h')."""
        cfg = self.cfg
        s = self.state
        if s is None or s.done:
            raise DreamDoneError("dream episode is done; call reset")
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != (self.action_dim,):
            raise ValueError(f"action has shape {action.shape}, expected ({self.action_dim},)")

        per_set, _, sets, mask_args = self._plan
        m_u = sets * per_set
        member = np.array([s.model_idx])
        U, E, D, N = _step_draws(cfg, [rng], member, m_u)
        s.model_idx = int(member[0])
        if sets:
            self.masks_sampled += sets
            s.mask = masks_from_uniforms(U[:, :m_u].reshape(sets, per_set), *mask_args)
        sx, sh = s.mask or (None, None)
        X = np.concatenate([s.z_hat, action])[None]
        h, c, z_next, r_hat, d_hat, ended = _dream_step(cfg, X, s.h[None], s.c[None], member, sx, sh, U[:, m_u:], E, D, N)

        s.h, s.c, s.z_hat = h[0], c[0], z_next[0]
        s.t += 1
        s.truncated = bool(not ended[0] and s.t >= cfg.max_ep_len)
        s.done = bool(ended[0]) or s.truncated
        r_hat, d_hat = float(r_hat[0]), float(d_hat[0])
        if self.trace is not None:
            self.trace.append(
                {
                    "t": s.t,
                    "z_hat": [float(v) for v in s.z_hat],
                    "action": [float(v) for v in action],
                    "r_hat": r_hat,
                    "d_hat": d_hat,
                    "mask": None if s.mask is None else mask_hash(*s.mask),
                    "done": s.done,
                    "truncated": s.truncated,
                }
            )
        return s.z_hat.copy(), r_hat, s.done, s.h.copy()


def rollout_batch(
    cfg: DreamConfig,
    controller_w: np.ndarray,
    controller_b: np.ndarray,
    lane_rngs,
    starts: np.ndarray | None = None,
    include_c: bool = False,
):
    """Roll one dream episode per lane in lockstep; each loop iteration runs
    the whole step for all active lanes as array math.

    controller_w: (L, action_dim, n + d) and controller_b: (L, action_dim)
    give each lane its own linear policy over features [z, h]; with
    ``include_c`` the features are [z, h, c] and controller_w is
    (L, action_dim, n + 2d). ``starts`` is an (m, n) pool of initial latents.

    Each lane draws from its own generator only, as ``_reset_draws`` and
    ``_step_draws`` set out. Against ``DreamEnv``, and against the same lanes
    in a batch of another size, results match only up to matmul rounding,
    because BLAS row results depend on the row count.

    Returns a dict with per-lane returns, steps, truncation flags, and the
    number of mask sets drawn.
    """
    model = cfg.model
    n, d = model.n, model.hidden_dim
    L = len(lane_rngs)
    if L == 0:
        raise ValueError("rollout_batch needs at least one lane")
    f_dim = n + (2 * d if include_c else d)
    W = np.asarray(controller_w, dtype=np.float64)
    Bc = np.asarray(controller_b, dtype=np.float64)
    if W.shape != (L, model.action_dim, f_dim):
        raise ValueError(f"controller_w has shape {W.shape}, expected {(L, model.action_dim, f_dim)}")
    if Bc.shape != (L, model.action_dim):
        raise ValueError(f"controller_b has shape {Bc.shape}, expected {(L, model.action_dim)}")
    if starts is not None:
        starts = np.asarray(starts, dtype=np.float64)
        if starts.ndim != 2 or starts.shape[1] != n:
            raise ValueError(f"starts has shape {starts.shape}, expected (m, {n})")
    if cfg.z_init == ZInit.DATASET_STARTS and (starts is None or len(starts) == 0):
        raise ValueError("dataset_starts requires a non-empty start pool")

    per_set, at_reset, sets, mask_args = _mask_plan(cfg)
    m_u = sets * per_set  # mask uniforms per lane-step
    Z, U0, member = _reset_draws(cfg, lane_rngs, starts, per_set * at_reset)
    masks_sampled = L * at_reset
    SX, SH = masks_from_uniforms(U0, *mask_args) if at_reset else (None, None)

    # State of the active lanes only, compacted when lanes finish.
    lanes = np.arange(L)
    rngs = list(lane_rngs)
    H = np.zeros((L, d))
    C = np.zeros((L, d))
    Wa = np.ascontiguousarray(W)
    Ba = np.ascontiguousarray(Bc)
    truncated = np.zeros(L, dtype=bool)
    returns = np.zeros(L)
    steps = np.zeros(L, dtype=np.int64)

    for t in range(cfg.max_ep_len):
        A = len(lanes)
        U, E, D, N = _step_draws(cfg, rngs, member, m_u)
        feats = (Z, H, C) if include_c else (Z, H)
        act = np.tanh(np.einsum("laf,lf->la", Wa, np.concatenate(feats, axis=1)) + Ba)
        X = np.concatenate([Z, act], axis=1)
        if sets:
            masks_sampled += A * sets
            SX, SH = masks_from_uniforms(U[:, :m_u].reshape(A * sets, per_set), *mask_args)
        h_new, c_new, z_next, r_hat, _, ended = _dream_step(cfg, X, H, C, member, SX, SH, U[:, m_u:], E, D, N)

        returns[lanes] += r_hat
        steps[lanes] += 1
        if t == cfg.max_ep_len - 1:
            truncated[lanes[~ended]] = True
            break
        if ended.any():
            keep = ~ended
            lanes = lanes[keep]
            if len(lanes) == 0:
                break
            rngs = [rngs[j] for j in np.flatnonzero(keep)]
            Z, H, C, Wa, Ba = z_next[keep], h_new[keep], c_new[keep], Wa[keep], Ba[keep]
            member = member[keep]
            if at_reset:
                SX, SH = SX[keep], SH[keep]
        else:
            Z, H, C = z_next, h_new, c_new

    return {
        "returns": returns,
        "steps": steps,
        "truncated": truncated,
        "masks_sampled": int(masks_sampled),
    }
