"""Scalar single-transition versions of the world model's heads, loss and
transition draw. The package computes these only in batches
(``heads_raw``, ``transition_loss_batch``) or inside the dream; tests compare
against these one-at-a-time forms."""
from dataclasses import dataclass

import numpy as np

from dreamrand.numerics import gaussian_logpdf, log_sum_exp, sigmoid
from dreamrand.world_model import DONE_CLAMP, WorldModelParams, heads_raw, sample_transition_raw

_DHAT_OPEN = 1e-12  # keeps predicted probabilities strictly inside (0, 1)


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


def sample_transition(pred: Prediction, rng):
    """Draw (z_next, r, done): one mixture component per feature, then a
    normal draw; reward is the deterministic head output; done ~ Bernoulli.
    """
    z_next, _, done = sample_transition_raw(pred.mdn.pi, pred.mdn.mu, pred.mdn.sigma, pred.d_hat, rng)
    return z_next, float(pred.r_hat), done
