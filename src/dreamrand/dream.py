"""Dream environments: episodic simulators whose transition function is the
trained dynamics model under a configurable mask-randomization policy.

Policies: Off uses the all-ones mask throughout; Episode samples one MaskSet
per episode; Step samples a fresh MaskSet every step, so every step runs a
different masked model. Baseline variants are selected through the config:
MC-dropout (average mixture parameters, reward, termination, and hidden state
over several independently masked passes, then sample once), Noisy (mask-free
stepping plus Gaussian perturbation of the latent), and explicit ensembles
(the active member is resampled per step or per episode, hidden state carried
across members unchanged).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lstm import MaskSet, all_ones_mask_set, mask_uniform_count, masks_from_uniforms, sample_mask_set
from .numerics import sigmoid
from .world_model import WorldModelParams, heads_raw, sample_transition_raw

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
    mask: MaskSet | None
    model_idx: int
    t: int
    done: bool
    truncated: bool


def mask_hash(mask: MaskSet) -> str:
    return hashlib.sha1(mask.bytes_key()).hexdigest()[:12]


def write_trace(records, path) -> None:
    """Line-delimited JSON rollout trace (one record per step)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


class DreamEnv:
    """Single dream episode driver built around the trained dynamics model.

    The transition function is pure in (params, state, action, rng); the
    instance only carries episode state, the mask-sampling counter, and the
    optional step trace.
    """

    def __init__(self, cfg: DreamConfig, starts: np.ndarray | None = None):
        self.cfg = cfg
        self.starts = None if starts is None else np.asarray(starts, dtype=np.float64)
        if self.starts is not None and (self.starts.ndim != 2 or self.starts.shape[1] != cfg.model.n):
            raise ValueError("starts must have shape (count, n)")
        self.state: DreamEnvState | None = None
        self.masks_sampled = 0
        self.trace: list | None = None
        self._all_ones = all_ones_mask_set(cfg.model.input_dim, cfg.model.hidden_dim)

    @property
    def n(self) -> int:
        return self.cfg.model.n

    @property
    def action_dim(self) -> int:
        return self.cfg.model.action_dim

    def start_trace(self):
        self.trace = []
        return self.trace

    def _sample_mask(self, rng) -> MaskSet:
        model = self.cfg.model
        self.masks_sampled += 1
        return sample_mask_set(
            self.cfg.p_infer,
            model.input_dim,
            model.hidden_dim,
            action_dims=model.action_input_dims,
            rng=rng,
            scale_rate=self.cfg.scale_rate(),
        )

    def reset(self, rng):
        """Start an episode: zero hidden/cell state, draw the initial latent,
        and (under Episode policy) sample this episode's mask now."""
        cfg = self.cfg
        model = cfg.model
        if cfg.z_init == ZInit.STANDARD_NORMAL:
            z = rng.standard_normal(model.n)
        else:
            if self.starts is None or len(self.starts) == 0:
                raise ValueError("dataset_starts requires a non-empty start pool")
            z = self.starts[int(rng.integers(len(self.starts)))].copy()
        mask = None
        if cfg.policy == RandomizationPolicy.EPISODE and cfg.mc_samples == 0:
            mask = self._sample_mask(rng)
        elif cfg.policy == RandomizationPolicy.OFF:
            mask = self._all_ones
        model_idx = int(rng.integers(len(cfg.ensemble))) if len(cfg.ensemble) > 1 else 0
        self.state = DreamEnvState(
            h=np.zeros(model.hidden_dim),
            c=np.zeros(model.hidden_dim),
            z_hat=z,
            mask=mask,
            model_idx=model_idx,
            t=0,
            done=False,
            truncated=False,
        )
        if self.trace is not None:
            self.trace.clear()
        return z.copy(), self.state.h.copy()

    def _forward_once(self, params, x, mask):
        """One masked LSTM step plus heads; returns (h, c, pi, mu, sigma, r, d_hat)."""
        s = self.state
        xm = x[None, :] * mask.scaled_x
        hm = s.h[None, :] * mask.scaled_h
        pre = (
            np.einsum("gdr,gr->gd", params.lstm.w_x, xm)
            + np.einsum("gde,ge->gd", params.lstm.w_h, hm)
            + params.lstm.b
        )
        c = sigmoid(pre[0]) * np.tanh(pre[2]) + sigmoid(pre[1]) * s.c
        h = sigmoid(pre[3]) * np.tanh(c)
        _, pi, mu, sigma, r_hat, done_logit = heads_raw(params, h)
        return h, c, pi, mu, sigma, float(r_hat), float(sigmoid(done_logit))

    def step(self, action, rng):
        """Advance the dream one step; dispatches to the MC-dropout or noisy
        variant when the config selects one. Returns (z_hat', r_hat, done, h')."""
        cfg = self.cfg
        s = self.state
        if s is None or s.done:
            raise DreamDoneError("dream episode is done; call reset")
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != (self.action_dim,):
            raise ValueError(f"action has shape {action.shape}, expected ({self.action_dim},)")

        if cfg.mc_samples > 0:
            h, c, pi, mu, sigma, r_hat, d_hat = self._mc_forward(action, rng)
        else:
            if cfg.policy == RandomizationPolicy.STEP:
                s.mask = self._sample_mask(rng)
            if len(cfg.ensemble) > 1 and cfg.policy == RandomizationPolicy.STEP:
                s.model_idx = int(rng.integers(len(cfg.ensemble)))
            params = cfg.ensemble[s.model_idx]
            x = np.concatenate([s.z_hat, action])
            h, c, pi, mu, sigma, r_hat, d_hat = self._forward_once(params, x, s.mask)

        z_next, _, done_sampled = sample_transition_raw(pi, mu, sigma, d_hat, rng)
        if cfg.noise_sigma > 0.0:
            z_next = z_next + cfg.noise_sigma * rng.standard_normal(self.n)

        s.h, s.c, s.z_hat = h, c, z_next
        s.t += 1
        truncated = not done_sampled and s.t >= cfg.max_ep_len
        s.done = bool(done_sampled or truncated)
        s.truncated = bool(truncated)
        if self.trace is not None:
            self.trace.append(
                {
                    "t": s.t,
                    "z_hat": [float(v) for v in z_next],
                    "action": [float(v) for v in action],
                    "r_hat": r_hat,
                    "d_hat": d_hat,
                    "mask": mask_hash(s.mask) if s.mask is not None else None,
                    "done": s.done,
                    "truncated": s.truncated,
                }
            )
        return z_next.copy(), r_hat, s.done, s.h.copy()

    def mc_step(self, action, rng):
        """Monte-Carlo dropout step (requires mc_samples >= 1 in the config)."""
        if self.cfg.mc_samples < 1:
            raise ValueError("mc_step requires mc_samples >= 1")
        return self.step(action, rng)

    def _mc_forward(self, action, rng):
        """Average mixture parameters, reward, termination, and the hidden and
        cell state over mc_samples independently masked passes.

        At p_infer == 0 every pass is identical, so a single pass is taken and
        the result is bit-for-bit the plain step.
        """
        cfg = self.cfg
        s = self.state
        params = cfg.ensemble[s.model_idx]
        x = np.concatenate([s.z_hat, action])
        passes = 1 if cfg.p_infer == 0.0 else cfg.mc_samples
        acc = None
        for _ in range(passes):
            mask = self._sample_mask(rng) if cfg.p_infer > 0.0 else self._all_ones
            out = self._forward_once(params, x, mask)
            if acc is None:
                acc = list(out)
            else:
                acc = [a + b for a, b in zip(acc, out)]
        if passes > 1:
            acc = [a / passes for a in acc]
        h, c, pi, mu, sigma, r_hat, d_hat = acc
        return h, c, pi, mu, sigma, float(r_hat), float(d_hat)


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

    Draw contract: each lane consumes only its own generator, in the order
    of the per-lane loop this replaced (``tests/reference_rollout.py``). At
    reset: the initial latent (``standard_normal(n)`` or ``integers(m)``),
    the Episode mask's uniforms, then the ensemble member. Each step: the
    ensemble member (step cadence), then one ``random`` call holding the
    step's mask uniforms (none, one MaskSet's or mc_samples MaskSets' worth)
    followed by the n component uniforms, then ``standard_normal(n)``, the
    done uniform ``random()``, and for the noisy variant
    ``standard_normal(n)``. The masked cell and the heads run the same
    matrix products on the same row groups as that loop, so returns, steps,
    truncation and mask counts match it bit for bit. Against ``DreamEnv``,
    and against the same lanes in a batch of another size, results match
    only up to matmul rounding, because BLAS row results depend on the row
    count.

    Returns a dict with per-lane returns, steps, truncation flags, and the
    number of MaskSets sampled.
    """
    model = cfg.model
    n, d, r, k = model.n, model.hidden_dim, model.input_dim, model.k
    a_dim = model.action_dim
    L = len(lane_rngs)
    n_models = len(cfg.ensemble)
    if L == 0:
        raise ValueError("rollout_batch needs at least one lane")
    f_dim = n + (2 * d if include_c else d)
    W = np.asarray(controller_w, dtype=np.float64)
    Bc = np.asarray(controller_b, dtype=np.float64)
    if W.shape != (L, a_dim, f_dim):
        raise ValueError(f"controller_w has shape {W.shape}, expected {(L, a_dim, f_dim)}")
    if Bc.shape != (L, a_dim):
        raise ValueError(f"controller_b has shape {Bc.shape}, expected {(L, a_dim)}")
    if starts is not None:
        starts = np.asarray(starts, dtype=np.float64)
        if starts.ndim != 2 or starts.shape[1] != n:
            raise ValueError(f"starts has shape {starts.shape}, expected (m, {n})")
    if cfg.z_init == ZInit.DATASET_STARTS and (starts is None or len(starts) == 0):
        raise ValueError("dataset_starts requires a non-empty start pool")

    mask_args = (cfg.p_infer, r, d, model.action_input_dims, cfg.scale_rate())
    per_set = mask_uniform_count(cfg.p_infer, r, d)
    # MC dropout draws mc_samples masks per lane-step; at p=0 every pass is
    # the unmasked one, so it takes a single mask-free pass.
    mc_k = cfg.mc_samples if cfg.p_infer > 0.0 else 0
    step_masks = cfg.mc_samples == 0 and cfg.policy == RandomizationPolicy.STEP
    sets_per_step = mc_k if mc_k else int(step_masks)  # MaskSets drawn per lane-step
    m_u = sets_per_step * per_set  # mask uniforms per lane-step
    member_per_step = n_models > 1 and cfg.policy == RandomizationPolicy.STEP
    noisy = cfg.noise_sigma > 0.0
    masks_sampled = 0

    # Reset, lane by lane.
    Z = np.empty((L, n))
    member = np.zeros(L, dtype=np.int64)
    episode_masks = cfg.policy == RandomizationPolicy.EPISODE and cfg.mc_samples == 0
    U0 = np.empty((L, per_set))
    for lane, rng in enumerate(lane_rngs):
        if cfg.z_init == ZInit.STANDARD_NORMAL:
            rng.standard_normal(out=Z[lane])
        else:
            Z[lane] = starts[int(rng.integers(len(starts)))]
        if episode_masks and per_set:
            rng.random(out=U0[lane])
        if n_models > 1:
            member[lane] = rng.integers(n_models)
    # Masks of the active lanes. None stands for all-ones masks (Off policy,
    # MC at p=0), whose masked products equal the unmasked ones.
    SX = SH = None
    if episode_masks:
        masks_sampled += L
        SX, SH = masks_from_uniforms(U0, *mask_args)

    # State of the active lanes only, compacted when lanes finish.
    lanes = np.arange(L)
    rngs = list(lane_rngs)
    H = np.zeros((L, d))
    C = np.zeros((L, d))
    Wa = np.ascontiguousarray(W)
    Ba = np.ascontiguousarray(Bc)
    features = np.arange(n)
    truncated = np.zeros(L, dtype=bool)
    returns = np.zeros(L)
    steps = np.zeros(L, dtype=np.int64)

    def cell(m, X, Hs, Cs, sx, sh):
        """Masked LSTM step for the rows of one ensemble member."""
        lstm = cfg.ensemble[m].lstm
        if sx is None:
            xm, hm = X, Hs
        else:
            xm = np.multiply(X[None], sx.transpose(1, 0, 2), order="C")  # (4, rows, r)
            hm = np.multiply(Hs[None], sh.transpose(1, 0, 2), order="C")
        # matmul over the gate axis makes the per-gate products
        # (rows, r) @ w_x[g].T and (rows, d) @ w_h[g].T, one BLAS call each.
        pre = np.matmul(xm, lstm.w_x.transpose(0, 2, 1)) + np.matmul(hm, lstm.w_h.transpose(0, 2, 1))
        pre += lstm.b[:, None, :]
        s_i, s_f, s_o = sigmoid(pre[[0, 1, 3]])
        c = s_i * np.tanh(pre[2]) + s_f * Cs
        return s_o * np.tanh(c), c

    for t in range(cfg.max_ep_len):
        A = len(lanes)
        # The only per-lane Python: each lane's generator calls, in draw order.
        U = np.empty((A, m_u + n))
        E = np.empty((A, n))
        D = np.empty(A)
        N = np.empty((A, n)) if noisy else None
        for j, rng in enumerate(rngs):
            if member_per_step:
                member[j] = rng.integers(n_models)
            rng.random(out=U[j])
            rng.standard_normal(out=E[j])
            D[j] = rng.random()
            if noisy:
                rng.standard_normal(out=N[j])

        feats = (Z, H, C) if include_c else (Z, H)
        act = np.tanh(np.einsum("laf,lf->la", Wa, np.concatenate(feats, axis=1)) + Ba)
        X = np.concatenate([Z, act], axis=1)
        if step_masks:
            masks_sampled += A
            SX, SH = masks_from_uniforms(U[:, :m_u], *mask_args)

        if mc_k:
            masks_sampled += A * mc_k
            sx, sh = masks_from_uniforms(U[:, :m_u].reshape(A * mc_k, per_set), *mask_args)
            h_all, c_all = cell(
                0, np.repeat(X, mc_k, axis=0), np.repeat(H, mc_k, axis=0), np.repeat(C, mc_k, axis=0), sx, sh
            )
            _, pi_a, mu_a, sg_a, r_a, u_a = heads_raw(model, h_all)
            shape = (A, mc_k)
            h_new = h_all.reshape(shape + (d,)).mean(axis=1)
            c_new = c_all.reshape(shape + (d,)).mean(axis=1)
            pi = pi_a.reshape(shape + pi_a.shape[1:]).mean(axis=1)
            mu = mu_a.reshape(shape + mu_a.shape[1:]).mean(axis=1)
            sigma = sg_a.reshape(shape + sg_a.shape[1:]).mean(axis=1)
            r_hat = r_a.reshape(shape).mean(axis=1)
            d_hat = sigmoid(u_a).reshape(shape).mean(axis=1)
        elif n_models == 1:
            h_new, c_new = cell(0, X, H, C, SX, SH)
            _, pi, mu, sigma, r_hat, u = heads_raw(model, h_new)
            d_hat = sigmoid(u)
        else:
            h_new, c_new = np.empty((A, d)), np.empty((A, d))
            pi, mu, sigma = (np.empty((A, n, k)) for _ in range(3))
            r_hat, u = np.empty(A), np.empty(A)
            for m in range(n_models):
                rows = np.flatnonzero(member == m)
                if len(rows) == 0:
                    continue
                sx = None if SX is None else SX[rows]
                sh = None if SH is None else SH[rows]
                h_new[rows], c_new[rows] = cell(m, X[rows], H[rows], C[rows], sx, sh)
                _, pi[rows], mu[rows], sigma[rows], r_hat[rows], u[rows] = heads_raw(cfg.ensemble[m], h_new[rows])
            d_hat = sigmoid(u)

        # Transition: component choice, Gaussian draw, done test.
        comp = np.minimum((U[:, m_u:, None] >= np.cumsum(pi, axis=2)).sum(axis=2), k - 1)
        pick = (np.arange(A)[:, None], features, comp)
        z_next = mu[pick] + sigma[pick] * E
        if noisy:
            z_next = z_next + cfg.noise_sigma * N
        returns[lanes] += r_hat
        steps[lanes] += 1
        ended = D < d_hat
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
            if episode_masks:
                SX, SH = SX[keep], SH[keep]
        else:
            Z, H, C = z_next, h_new, c_new

    return {
        "returns": returns,
        "steps": steps,
        "truncated": truncated,
        "masks_sampled": int(masks_sampled),
    }
