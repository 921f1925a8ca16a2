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

``run_lanes`` runs episodes in lockstep, dream and real alike. Its callers
are ``rollout_batch`` and ``controller.evaluate_real``. A dream episode
starts from a latent picked uniformly from the (m, n) pool ``starts`` of
observed initial states; its steps make each lane's draws through
``_step_draws`` and run ``_dream_step``.
"""
from __future__ import annotations

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
    "DreamConfig",
    "rollout_batch",
    "run_lanes",
]


class RandomizationPolicy(str, Enum):
    OFF = "off"
    EPISODE = "episode"
    STEP = "step"


@dataclass
class DreamConfig:
    """Dream-environment behavior. ``ensemble`` holds the dynamics model(s);
    size 1 means a single model. The MC-dropout, noise, and ensemble variants
    are mutually exclusive so each baseline is tested in isolation. ``policy``
    is the mask-randomization policy (Off, Episode or Step), not the action
    policy that ``rollout_batch`` and ``run_lanes`` take."""

    ensemble: list
    p_infer: float = 0.1
    policy: RandomizationPolicy = RandomizationPolicy.STEP
    mc_samples: int = 0
    max_ep_len: int = 1000
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.policy = RandomizationPolicy(self.policy)
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

    @property
    def model(self) -> WorldModelParams:
        return self.ensemble[0]


def _start_pool(starts, n) -> np.ndarray:
    """The start pool as float64 (m, n); refuses an empty or misshapen one."""
    pool = np.asarray(starts, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[1] != n or len(pool) == 0:
        raise ValueError(f"starts has shape {pool.shape}, expected (m, {n}) with m > 0")
    return pool


def _mask_plan(cfg: DreamConfig):
    """How each lane draws masks: (uniforms per mask set, mask sets drawn at
    reset, mask sets drawn per step, the ``masks_from_uniforms`` arguments
    that follow the uniforms).

    No masks are drawn at p_infer = 0; MC dropout draws mc_samples sets per
    lane-step, under any policy.
    """
    model = cfg.model
    args = (cfg.p_infer, model.input_dim, model.hidden_dim, model.action_input_dims)
    per_set = mask_uniform_count(*args[:3])
    if not per_set:
        return 0, 0, 0, args
    if cfg.mc_samples:
        return per_set, 0, cfg.mc_samples, args
    return per_set, int(cfg.policy == RandomizationPolicy.EPISODE), int(cfg.policy == RandomizationPolicy.STEP), args


def _reset_draws(cfg: DreamConfig, rngs, starts, m_u):
    """Each lane's reset draws, lane by lane, from its own generator:
    ``integers(m)`` picking the initial latent from the m ``starts``, then
    ``random(m_u)`` for an Episode mask when m_u > 0, then
    ``integers(members)`` for an ensemble.

    Returns the latents (L, n), the mask uniforms (L, m_u) and the members
    (L,).
    """
    Z = np.empty((len(rngs), cfg.model.n))
    U0 = np.empty((len(rngs), m_u))
    member = np.zeros(len(rngs), dtype=np.int64)
    for lane, rng in enumerate(rngs):
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


def run_lanes(model, policy, transition, Z, max_len):
    """The one episode loop, dream and real: one episode per lane in
    lockstep, lane l starting from Z[l] (Z is (L, n)) and zero H and C.

    Each iteration makes one ``policy(lanes, Z, H, C)`` call for the active
    lanes' actions (A, action_dim), then one ``transition(lanes, X, H, C) ->
    (h, c, z_next, r, ended)`` call on X = [z, a]. ``lanes`` holds the active
    lanes in ascending order, and each array one row per lane in that order.
    An ended lane is never passed again; lanes still running after
    ``max_len`` steps are truncated. Returns per-lane (returns, steps,
    truncated).
    """
    L = len(Z)
    lanes = np.arange(L)
    H, C = np.zeros((2, L, model.hidden_dim))
    returns = np.zeros(L)
    steps = np.zeros(L, dtype=np.int64)
    for _ in range(max_len):
        act = policy(lanes, Z, H, C)
        if np.shape(act) != (len(lanes), model.action_dim):
            raise ValueError(f"policy gave actions of shape {np.shape(act)}, expected {(len(lanes), model.action_dim)}")
        h, c, z_next, r, ended = transition(lanes, np.concatenate([Z, act], axis=1), H, C)
        returns[lanes] += r
        steps[lanes] += 1
        Z, H, C = z_next, h, c
        if ended.any():
            lanes, Z, H, C = (a[~ended] for a in (lanes, Z, H, C))
            if len(lanes) == 0:
                break
    return returns, steps, np.isin(np.arange(L), lanes)  # lanes left running are truncated


def rollout_batch(cfg: DreamConfig, policy, lane_rngs, starts: np.ndarray):
    """Roll one dream episode per lane through ``run_lanes``, whose
    ``policy(lanes, Z, H, C)`` contract this takes; ``lanes`` index
    ``lane_rngs``. ``starts`` is an (m, n) pool of initial latents.

    Each lane draws from its own generator only, as ``_reset_draws`` and
    ``_step_draws`` set out. Against the same lanes in a batch of another
    size, results match only up to matmul rounding, because BLAS row results
    depend on the row count.

    Returns a dict with per-lane returns, steps, truncation flags, and the
    number of mask sets drawn.
    """
    L = len(lane_rngs)
    if L == 0:
        raise ValueError("rollout_batch needs at least one lane")
    starts = _start_pool(starts, cfg.model.n)

    per_set, at_reset, sets, mask_args = _mask_plan(cfg)
    m_u = sets * per_set  # mask uniforms per lane-step
    Z, U0, member = _reset_draws(cfg, lane_rngs, starts, per_set * at_reset)
    SX0, SH0 = masks_from_uniforms(U0, *mask_args) if at_reset else (None, None)

    def transition(lanes, X, H, C):
        active = member[lanes]
        U, E, D, N = _step_draws(cfg, [lane_rngs[j] for j in lanes.tolist()], active, m_u)
        if sets:
            SX, SH = masks_from_uniforms(U[:, :m_u].reshape(len(lanes) * sets, per_set), *mask_args)
        else:
            SX, SH = (SX0[lanes], SH0[lanes]) if at_reset else (None, None)
        h, c, z_next, r_hat, _, ended = _dream_step(cfg, X, H, C, active, SX, SH, U[:, m_u:], E, D, N)
        return h, c, z_next, r_hat, ended

    returns, steps, truncated = run_lanes(cfg.model, policy, transition, Z, cfg.max_ep_len)
    return {
        "returns": returns,
        "steps": steps,
        "truncated": truncated,
        "masks_sampled": int(L * at_reset + sets * steps.sum()),
    }
