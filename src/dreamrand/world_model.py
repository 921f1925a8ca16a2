"""Multi-head dynamics model: a masked LSTM followed by a per-feature
mixture-density head for the next latent state, a scalar reward head, and a
Bernoulli termination head, trained jointly with

    L = L_z + alpha_r * (r - r_hat)^2 + alpha_d * BCE(d, d_hat)

where L_z is the per-feature mixture negative log-likelihood. Losses are
summed over each sequence and averaged across the mini-batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import storage
from .lstm import GATE_F, LstmWeights
from .numerics import gaussian_logpdf, log_sum_exp, sigmoid

__all__ = [
    "WorldModelParams",
    "sample_transition_raw",
    "save_model",
    "load_model",
]

MODEL_VERSION = 1
DONE_CLAMP = 1e-7  # d_hat is clamped to [DONE_CLAMP, 1 - DONE_CLAMP] inside the cross-entropy


def _param_layout(n, k, hidden_dim, action_dim):
    """(name, shape) of every trainable array, in the order they sit in
    ``theta`` and in a checkpoint. A name is the array's attribute path on
    WorldModelParams."""
    d, m = hidden_dim, 3 * n * k
    return [
        ("lstm.w_x", (4, d, n + action_dim)),
        ("lstm.w_h", (4, d, d)),
        ("lstm.b", (4, d)),
        ("w_mdn", (m, d)),
        ("b_mdn", (m,)),
        ("w_reward", (d,)),
        ("b_reward", (1,)),
        ("w_done", (d,)),
        ("b_done", (1,)),
    ]


@dataclass
class WorldModelParams:
    """All trainable parameters as one float64 vector ``theta``.

    ``lstm`` (an LstmWeights), ``w_mdn``, ``b_mdn``, ``w_reward``,
    ``b_reward``, ``w_done`` and ``b_done`` are reshaped views into theta, cut
    by ``layout``, so writing into one writes theta. The MDN head maps
    R^d -> R^{3nk}, ordered as [component logits, means, log standard
    deviations], each block reshaped to (n, k) row-major."""

    theta: np.ndarray
    n: int
    k: int
    hidden_dim: int
    action_dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.n, self.k, self.hidden_dim, self.action_dim = map(int, (self.n, self.k, self.hidden_dim, self.action_dim))
        if self.n < 1 or self.k < 1 or self.hidden_dim < 1 or self.action_dim < 0:
            raise ValueError("invalid model dimensions")
        self.layout = _param_layout(self.n, self.k, self.hidden_dim, self.action_dim)
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        views = self.split(self.theta)
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("non-finite parameters")
        self.lstm = LstmWeights(*views[:3])  # the layout opens with the LSTM's w_x, w_h, b
        for (name, _), view in zip(self.layout[3:], views[3:]):
            setattr(self, name, view)

    @property
    def input_dim(self) -> int:
        return self.n + self.action_dim

    @property
    def action_input_dims(self) -> tuple[int, ...]:
        """Input indices carrying the action (never masked)."""
        return tuple(range(self.n, self.n + self.action_dim))

    @classmethod
    def init(cls, n, k, hidden_dim, action_dim, rng, meta=None) -> "WorldModelParams":
        """Weights (``w_*``) draw uniform(-1/sqrt(fan-in), 1/sqrt(fan-in)) in
        layout order, the fan-in being an array's last axis; biases start at
        0, and the LSTM's forget-gate bias at 1."""
        size = sum(math.prod(shape) for _, shape in _param_layout(n, k, hidden_dim, action_dim))
        params = cls(np.zeros(size), n, k, hidden_dim, action_dim, meta=dict(meta or {}))
        for (name, shape), view in zip(params.layout, params.split(params.theta)):
            if name.rpartition(".")[2].startswith("w_"):
                lim = 1.0 / np.sqrt(shape[-1])
                view[...] = rng.uniform(-lim, lim, size=shape)
        params.lstm.b[GATE_F] = 1.0
        return params

    def split(self, vec) -> list[np.ndarray]:
        """Reshaped views of a theta-sized vector, one per layout entry."""
        sizes = [math.prod(shape) for _, shape in self.layout]
        if vec.shape != (sum(sizes),):
            raise ValueError(f"parameter vector has shape {vec.shape}, expected ({sum(sizes)},)")
        return [part.reshape(shape) for part, (_, shape) in zip(np.split(vec, np.cumsum(sizes)[:-1]), self.layout)]

    def flatten(self, arrays) -> np.ndarray:
        """One theta-ordered vector from ``arrays``, an object that holds an
        array at every layout name, as the parameters' gradients do."""
        return np.concatenate([np.ravel(attrgetter(name)(arrays)) for name, _ in self.layout])

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, view into theta) of every trainable array, in layout order."""
        return [(name, attrgetter(name)(self)) for name, _ in self.layout]

    def copy(self) -> "WorldModelParams":
        dims = (self.n, self.k, self.hidden_dim, self.action_dim)
        return WorldModelParams(self.theta.copy(), *dims, meta=dict(self.meta))


def _split_mdn(params: WorldModelParams, out):
    """Split raw MDN head output(s) into (logits, mu, log_sigma) blocks."""
    nk = params.n * params.k
    shape = out.shape[:-1] + (params.n, params.k)
    logits = out[..., :nk].reshape(shape)
    mu = out[..., nk : 2 * nk].reshape(shape)
    log_sigma = out[..., 2 * nk :].reshape(shape)
    return logits, mu, log_sigma


def heads_raw(params: WorldModelParams, hs):
    """Batched head forward on hs (..., d).

    Returns (log_pi, pi, mu, sigma, r_hat, done_logit); softmax is over the
    trailing component axis per feature.
    """
    hs = np.asarray(hs, dtype=np.float64)
    out = hs @ params.w_mdn.T + params.b_mdn
    logits, mu, log_sigma = _split_mdn(params, out)
    log_pi = logits - log_sum_exp(logits, axis=-1)[..., None]
    pi = np.exp(log_pi)
    sigma = np.exp(log_sigma)
    r_hat = hs @ params.w_reward + params.b_reward[0]
    done_logit = hs @ params.w_done + params.b_done[0]
    return log_pi, pi, mu, sigma, r_hat, done_logit


def sample_transition_raw(pi, mu, sigma, d_hat, rng):
    """Transition draw from raw mixture arrays, in the dream's draw order:
    component uniforms, normal perturbations, then the done uniform.
    """
    n, k = pi.shape
    u = rng.random(n)
    cum = np.cumsum(pi, axis=1)
    comp = np.minimum((u[:, None] >= cum).sum(axis=1), k - 1)
    eps = rng.standard_normal(n)
    rows = np.arange(n)
    z_next = mu[rows, comp] + sigma[rows, comp] * eps
    done = bool(rng.random() < d_hat)
    return z_next, comp, done


def transition_loss_batch(params: WorldModelParams, hs, z_target, r_target, d_target, alpha_r, alpha_d):
    """Loss, per-term breakdown, and all analytic gradients for a block of
    transitions.

    hs: (T, B, d) hidden states; targets are (T, B, n), (T, B), (T, B).
    Aggregation is sum over time, mean over the batch. Returns
    (metrics, d_hs, head_grads) where head_grads maps head parameter names to
    gradient arrays and d_hs is the upstream gradient for BPTT.
    ``metrics["per_sequence"]`` holds each sequence's summed-over-time joint
    loss, shape (B,).
    """
    hs = np.asarray(hs, dtype=np.float64)
    T, B, d_dim = hs.shape
    m = T * B
    scale = 1.0 / B
    H = hs.reshape(m, d_dim)
    z = np.asarray(z_target, dtype=np.float64).reshape(m, params.n)
    r = np.asarray(r_target, dtype=np.float64).reshape(m)
    dt = np.asarray(d_target, dtype=np.float64).reshape(m)

    log_pi, pi, mu, sigma, r_hat, done_logit = heads_raw(params, H)
    inv_var = 1.0 / (sigma * sigma)
    diff = z[:, :, None] - mu
    a = log_pi + gaussian_logpdf(z[:, :, None], mu, sigma)
    lse = log_sum_exp(a, axis=2)  # (m, n)
    gamma = np.exp(a - lse[:, :, None])
    lz_each = -lse.sum(axis=1)

    d_hat = sigmoid(done_logit)
    d_hat_clamped = np.clip(d_hat, DONE_CLAMP, 1.0 - DONE_CLAMP)
    ld_each = -(dt * np.log(d_hat_clamped) + (1.0 - dt) * np.log(1.0 - d_hat_clamped))
    lr_each = (r - r_hat) ** 2

    lz = float(lz_each.sum() * scale)
    lr = float(lr_each.sum() * scale)
    ld = float(ld_each.sum() * scale)
    loss = lz + alpha_r * lr + alpha_d * ld

    # Mixture gradients: dL/d(logit) = pi - gamma, dL/dmu = -gamma * (z - mu) / var,
    # dL/d(log sigma) = -gamma * ((z - mu)^2 / var - 1), each scaled by 1/B.
    d_logits = (pi - gamma) * scale
    d_mu = -gamma * diff * inv_var * scale
    d_log_sigma = -gamma * (diff * diff * inv_var - 1.0) * scale
    nk = params.n * params.k
    d_out = np.empty((m, 3 * nk))
    d_out[:, :nk] = d_logits.reshape(m, nk)
    d_out[:, nk : 2 * nk] = d_mu.reshape(m, nk)
    d_out[:, 2 * nk :] = d_log_sigma.reshape(m, nk)

    d_r = 2.0 * (r_hat - r) * (alpha_r * scale)
    d_u = (d_hat - dt) * (alpha_d * scale)

    d_hs = d_out @ params.w_mdn + d_r[:, None] * params.w_reward + d_u[:, None] * params.w_done
    head_grads = {
        "w_mdn": d_out.T @ H,
        "b_mdn": d_out.sum(axis=0),
        "w_reward": H.T @ d_r,
        "b_reward": np.array([d_r.sum()]),
        "w_done": H.T @ d_u,
        "b_done": np.array([d_u.sum()]),
    }
    per_sequence = (lz_each + alpha_r * lr_each + alpha_d * ld_each).reshape(T, B).sum(axis=0)
    metrics = {"loss": float(loss), "lz": lz, "lr": lr, "ld": ld, "per_sequence": per_sequence}
    return metrics, d_hs.reshape(T, B, d_dim), head_grads


def save_model(params: WorldModelParams, path) -> None:
    header = {
        "n": params.n,
        "k": params.k,
        "hidden_dim": params.hidden_dim,
        "action_dim": params.action_dim,
        "meta": params.meta,
    }
    storage.write_container(path, "world-model", MODEL_VERSION, header, dict(params.param_items()))


def load_model(path) -> WorldModelParams:
    header, arrays = storage.read_container(path, "world-model", MODEL_VERSION)
    try:
        theta = np.concatenate([a.ravel() for a in arrays.values()])
        dims = (header["n"], header["k"], header["hidden_dim"], header["action_dim"])
        params = WorldModelParams(theta, *dims, meta=dict(header.get("meta", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise storage.CorruptFileError(f"invalid world-model checkpoint: {exc}") from exc
    stored = [(name, a.shape) for name, a in arrays.items()]
    if stored != params.layout:
        raise storage.CorruptFileError(f"checkpoint arrays {stored} do not match the model layout {params.layout}")
    return params
