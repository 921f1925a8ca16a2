"""Multi-head dynamics model: a masked LSTM followed by a per-feature
mixture-density head for the next latent state, a scalar reward head, and a
Bernoulli termination head, trained jointly with

    L = L_z + alpha_r * (r - r_hat)^2 + alpha_d * BCE(d, d_hat)

where L_z is the per-feature mixture negative log-likelihood. Losses are
summed over each sequence and averaged across the mini-batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import storage
from .lstm import LstmWeights
from .numerics import gaussian_logpdf, log_sum_exp, sigmoid

__all__ = [
    "WorldModelParams",
    "MdnOutput",
    "Prediction",
    "heads_forward",
    "mdn_loss",
    "transition_loss",
    "sample_transition",
    "sample_transition_raw",
    "save_model",
    "load_model",
]

MODEL_VERSION = 1
DONE_CLAMP = 1e-7  # d_hat is clamped to [DONE_CLAMP, 1 - DONE_CLAMP] inside the cross-entropy
_DHAT_OPEN = 1e-12  # keeps predicted probabilities strictly inside (0, 1)


@dataclass
class WorldModelParams:
    """LSTM weights plus linear heads. The MDN head maps R^d -> R^{3nk},
    ordered as [component logits, means, log standard deviations], each block
    reshaped to (n, k) row-major."""

    lstm: LstmWeights
    w_mdn: np.ndarray
    b_mdn: np.ndarray
    w_reward: np.ndarray
    b_reward: np.ndarray
    w_done: np.ndarray
    b_done: np.ndarray
    n: int
    k: int
    action_dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.n = int(self.n)
        self.k = int(self.k)
        self.action_dim = int(self.action_dim)
        if self.n < 1 or self.k < 1 or self.action_dim < 0:
            raise ValueError("invalid model dimensions")
        d = self.lstm.hidden_dim
        for name in ("w_mdn", "b_mdn", "w_reward", "b_reward", "w_done", "b_done"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        shapes = {
            "w_mdn": (3 * self.n * self.k, d),
            "b_mdn": (3 * self.n * self.k,),
            "w_reward": (d,),
            "b_reward": (1,),
            "w_done": (d,),
            "b_done": (1,),
        }
        for name, shape in shapes.items():
            a = getattr(self, name)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite entries in {name}")
        if self.lstm.input_dim != self.n + self.action_dim:
            raise ValueError("LSTM input dim must equal n + action_dim")

    @property
    def hidden_dim(self) -> int:
        return self.lstm.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.lstm.input_dim

    @property
    def action_input_dims(self) -> tuple[int, ...]:
        """Input indices carrying the action (never masked)."""
        return tuple(range(self.n, self.n + self.action_dim))

    @classmethod
    def init(cls, n, k, hidden_dim, action_dim, rng, meta=None) -> "WorldModelParams":
        lstm = LstmWeights.init(hidden_dim, n + action_dim, rng)
        lim = 1.0 / np.sqrt(hidden_dim)
        w_mdn = rng.uniform(-lim, lim, size=(3 * n * k, hidden_dim))
        w_reward = rng.uniform(-lim, lim, size=hidden_dim)
        w_done = rng.uniform(-lim, lim, size=hidden_dim)
        return cls(
            lstm,
            w_mdn,
            np.zeros(3 * n * k),
            w_reward,
            np.zeros(1),
            w_done,
            np.zeros(1),
            n,
            k,
            action_dim,
            meta=dict(meta or {}),
        )

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays in a fixed order (shared by optimizer and I/O)."""
        return [
            ("lstm.w_x", self.lstm.w_x),
            ("lstm.w_h", self.lstm.w_h),
            ("lstm.b", self.lstm.b),
            ("w_mdn", self.w_mdn),
            ("b_mdn", self.b_mdn),
            ("w_reward", self.w_reward),
            ("b_reward", self.b_reward),
            ("w_done", self.w_done),
            ("b_done", self.b_done),
        ]

    def param_arrays(self) -> list[np.ndarray]:
        return [a for _, a in self.param_items()]

    def copy(self) -> "WorldModelParams":
        return WorldModelParams(
            self.lstm.copy(),
            self.w_mdn.copy(),
            self.b_mdn.copy(),
            self.w_reward.copy(),
            self.b_reward.copy(),
            self.w_done.copy(),
            self.b_done.copy(),
            self.n,
            self.k,
            self.action_dim,
            meta=dict(self.meta),
        )


@dataclass
class MdnOutput:
    """Per-feature mixture parameters: pi rows sum to 1, sigma > 0."""

    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if not (self.pi.shape == self.mu.shape == self.sigma.shape) or self.pi.ndim != 2:
            raise ValueError("pi, mu, sigma must share shape (n, k)")


@dataclass
class Prediction:
    mdn: MdnOutput
    r_hat: float
    d_hat: float


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


def heads_forward(params: WorldModelParams, h) -> Prediction:
    """Single-state prediction from one hidden vector."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (params.hidden_dim,):
        raise ValueError(f"h has shape {h.shape}, expected ({params.hidden_dim},)")
    _, pi, mu, sigma, r_hat, done_logit = heads_raw(params, h)
    d_hat = float(np.clip(sigmoid(done_logit), _DHAT_OPEN, 1.0 - _DHAT_OPEN))
    return Prediction(MdnOutput(pi, mu, sigma), float(r_hat), d_hat)


def mdn_loss(out: MdnOutput, z) -> float:
    """Negative log-likelihood of z under the per-feature mixtures,
    accumulated in the log domain."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (out.pi.shape[0],):
        raise ValueError("z does not match the mixture shape")
    if np.any(out.sigma <= 0):
        raise ValueError("mdn_loss requires sigma > 0")
    with np.errstate(divide="ignore"):
        log_pi = np.log(out.pi)
    a = log_pi + gaussian_logpdf(z[:, None], out.mu, out.sigma)
    return float(-np.sum(log_sum_exp(a, axis=1)))


def transition_loss(pred: Prediction, target, alpha_r: float, alpha_d: float):
    """Joint single-transition loss and its per-term breakdown.

    ``target`` is (z, r, d) with d in {0, 1}. d_hat is clamped away from
    exact 0/1 before the logs.
    """
    z, r, d = target
    d = float(d)
    if d not in (0.0, 1.0):
        raise ValueError("termination target must be 0 or 1")
    lz = mdn_loss(pred.mdn, z)
    lr = float((float(r) - pred.r_hat) ** 2)
    d_hat = float(np.clip(pred.d_hat, DONE_CLAMP, 1.0 - DONE_CLAMP))
    ld = float(-(d * np.log(d_hat) + (1.0 - d) * np.log(1.0 - d_hat)))
    total = lz + alpha_r * lr + alpha_d * ld
    return total, {"lz": lz, "lr": lr, "ld": ld}


def sample_transition_raw(pi, mu, sigma, d_hat, rng):
    """Transition draw from raw mixture arrays; shared by the public op and
    the dream rollout paths so both consume identical draw sequences
    (component uniforms, normal perturbations, done uniform, in that order).
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


def sample_transition(pred: Prediction, rng):
    """Draw (z_next, r, done): one mixture component per feature, then a
    normal draw; reward is the deterministic head output; done ~ Bernoulli.
    """
    z_next, _, done = sample_transition_raw(pred.mdn.pi, pred.mdn.mu, pred.mdn.sigma, pred.d_hat, rng)
    return z_next, float(pred.r_hat), done


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
        lstm = LstmWeights(arrays["lstm.w_x"], arrays["lstm.w_h"], arrays["lstm.b"])
        params = WorldModelParams(
            lstm,
            arrays["w_mdn"],
            arrays["b_mdn"],
            arrays["w_reward"],
            arrays["b_reward"],
            arrays["w_done"],
            arrays["b_done"],
            header["n"],
            header["k"],
            header["action_dim"],
            meta=dict(header.get("meta", {})),
        )
    except (KeyError, ValueError) as exc:
        raise storage.CorruptFileError(f"invalid world-model checkpoint: {exc}") from exc
    if params.hidden_dim != header.get("hidden_dim"):
        raise storage.CorruptFileError("checkpoint header disagrees with stored arrays")
    return params
