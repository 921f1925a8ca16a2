"""Masked LSTM cell with per-gate dropout masks, forward unrolling, and
gradient-checked backpropagation through time.

Eight Boolean masks (four on the input, four on the hidden state, one pair
per gate) multiply into the gate pre-activations. Kept units are rescaled by
1/(1 - p) (inverted dropout) so the expected pre-activation matches the
unmasked pass; entries at action input indices are pinned to 1 and never
rescaled, since zeroing an action could read as the agent acting.

Gate order everywhere is (i, f, w, o): input gate, forget gate, cell write,
output gate. Nonlinearities are applied when the cell and hidden state are
formed, not in the pre-activations:

    c_t = sigmoid(i) * tanh(w) + sigmoid(f) * c_{t-1}
    h_t = sigmoid(o) * tanh(c_t)
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import sigmoid

__all__ = [
    "GATE_NAMES",
    "MaskSet",
    "LstmWeights",
    "LstmState",
    "LstmGrads",
    "sample_mask_set",
    "all_ones_mask_set",
    "mask_scale_arrays",
    "mask_uniform_count",
    "masks_from_uniforms",
    "lstm_step",
    "lstm_forward",
    "lstm_backward",
    "lstm_bptt",
]

GATE_NAMES = ("i", "f", "w", "o")
GATE_I, GATE_F, GATE_W, GATE_O = range(4)

_mask_tags = itertools.count(1)


@dataclass
class MaskSet:
    """The eight Boolean dropout masks for one masked LSTM configuration.

    ``keep_x[g, j]`` is True when input unit j is kept for gate g (gate order
    GATE_NAMES); ``keep_h`` likewise for hidden units. ``scaled_x`` and
    ``scaled_h`` hold the float multipliers actually applied: kept units carry
    1/(1-p), dropped units 0, action entries exactly 1.
    """

    keep_x: np.ndarray
    keep_h: np.ndarray
    p: float
    action_dims: tuple[int, ...] = ()
    scale_rate: float | None = None
    tag: int = field(default_factory=lambda: next(_mask_tags))
    scaled_x: np.ndarray = field(init=False, repr=False)
    scaled_h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.keep_x = np.asarray(self.keep_x, dtype=bool)
        self.keep_h = np.asarray(self.keep_h, dtype=bool)
        if self.keep_x.ndim != 2 or self.keep_x.shape[0] != 4:
            raise ValueError("keep_x must have shape (4, input_dim)")
        if self.keep_h.ndim != 2 or self.keep_h.shape[0] != 4:
            raise ValueError("keep_h must have shape (4, hidden_dim)")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.p}")
        self.action_dims = tuple(sorted(int(j) for j in self.action_dims))
        r = self.keep_x.shape[1]
        if any(j < 0 or j >= r for j in self.action_dims):
            raise ValueError("action_dims out of input range")
        if self.action_dims and not self.keep_x[:, list(self.action_dims)].all():
            raise ValueError("action entries must be kept")
        self.scaled_x, self.scaled_h = mask_scale_arrays(
            self.keep_x, self.keep_h, self.p, self.action_dims, self.scale_rate
        )

    @property
    def input_dim(self) -> int:
        return self.keep_x.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.keep_h.shape[1]

    # Per-gate views under the conventional mask names.
    @property
    def m_xi(self):
        return self.keep_x[GATE_I]

    @property
    def m_xf(self):
        return self.keep_x[GATE_F]

    @property
    def m_xw(self):
        return self.keep_x[GATE_W]

    @property
    def m_xo(self):
        return self.keep_x[GATE_O]

    @property
    def m_hi(self):
        return self.keep_h[GATE_I]

    @property
    def m_hf(self):
        return self.keep_h[GATE_F]

    @property
    def m_hw(self):
        return self.keep_h[GATE_W]

    @property
    def m_ho(self):
        return self.keep_h[GATE_O]

    def bytes_key(self) -> bytes:
        """Canonical byte encoding of the kept/dropped pattern (for hashing)."""
        return np.packbits(self.keep_x).tobytes() + np.packbits(self.keep_h).tobytes()


def mask_scale_arrays(keep_x, keep_h, p, action_dims=(), scale_rate=None):
    """Float multipliers for a keep/drop pattern under inverted dropout.

    ``scale_rate`` overrides the rate used for rescaling (the rescaling
    convention switch); None means use p itself, a rate of 0 means no
    rescaling of kept units.
    """
    rate = p if scale_rate is None else scale_rate
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rescale rate must be in [0, 1), got {rate}")
    scale = 1.0 / (1.0 - rate)
    scaled_x = keep_x.astype(np.float64) * scale
    if action_dims:
        scaled_x[..., list(action_dims)] = 1.0
    scaled_h = keep_h.astype(np.float64) * scale
    return scaled_x, scaled_h


def mask_uniform_count(p, input_dim, hidden_dim) -> int:
    """Uniform draws one MaskSet consumes: one per entry of the eight masks,
    or none at p == 0."""
    return 0 if p == 0.0 else 4 * (input_dim + hidden_dim)


def _keep_from_uniforms(u, p, input_dim, hidden_dim, action_dims):
    """Keep patterns from uniforms u (..., mask_uniform_count): the first
    4*input_dim draws give keep_x (..., 4, input_dim), gate-major, the rest
    keep_h (..., 4, hidden_dim). An entry is kept when its draw is >= p;
    action entries are always kept."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] != mask_uniform_count(p, input_dim, hidden_dim):
        raise ValueError(f"uniforms must have {mask_uniform_count(p, input_dim, hidden_dim)} entries per mask set")
    lead = u.shape[:-1]
    if p == 0.0:
        return np.ones(lead + (4, input_dim), dtype=bool), np.ones(lead + (4, hidden_dim), dtype=bool)
    keep = u >= p
    keep_x = keep[..., : 4 * input_dim].reshape(lead + (4, input_dim))
    if action_dims:
        keep_x[..., list(action_dims)] = True
    keep_h = keep[..., 4 * input_dim :].reshape(lead + (4, hidden_dim))
    return keep_x, keep_h


def masks_from_uniforms(u, p, input_dim, hidden_dim, action_dims=(), scale_rate=None):
    """Scaled masks (..., 4, input_dim) and (..., 4, hidden_dim) from uniforms
    u (..., mask_uniform_count), one mask set per leading index.

    This is the mask-draw rule of ``sample_mask_set``: feeding it the
    uniforms of ``count`` sequential ``sample_mask_set`` calls, in order,
    gives their ``scaled_x``/``scaled_h`` bit for bit.
    """
    keep_x, keep_h = _keep_from_uniforms(u, p, input_dim, hidden_dim, action_dims)
    return mask_scale_arrays(keep_x, keep_h, p, action_dims, scale_rate)


def sample_mask_set(p, input_dim, hidden_dim, action_dims=(), rng=None, scale_rate=None) -> MaskSet:
    """Sample one MaskSet: every non-action entry of all eight masks is
    dropped independently with probability p; action entries are always kept.

    At p == 0 no random draws are consumed, so a p=0 run is stream-identical
    to one that never samples masks.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    action_dims = tuple(sorted(int(j) for j in action_dims))
    if any(j < 0 or j >= input_dim for j in action_dims):
        raise ValueError("action_dims out of input range")
    if p > 0.0 and rng is None:
        raise ValueError("rng required when p > 0")
    count = mask_uniform_count(p, input_dim, hidden_dim)
    u = rng.random(count) if count else np.empty(0)
    keep_x, keep_h = _keep_from_uniforms(u, p, input_dim, hidden_dim, action_dims)
    return MaskSet(keep_x, keep_h, p, action_dims, scale_rate)


def all_ones_mask_set(input_dim, hidden_dim) -> MaskSet:
    """The identity mask (no dropout); consumes no randomness."""
    return sample_mask_set(0.0, input_dim, hidden_dim)


@dataclass
class LstmWeights:
    """Stacked LSTM parameters: w_x (4, d, r), w_h (4, d, d), b (4, d)."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w_x = np.asarray(self.w_x, dtype=np.float64)
        self.w_h = np.asarray(self.w_h, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        d, r = self.w_x.shape[1], self.w_x.shape[2]
        if self.w_x.shape != (4, d, r) or self.w_h.shape != (4, d, d) or self.b.shape != (4, d):
            raise ValueError("inconsistent LSTM weight shapes")
        for a in (self.w_x, self.w_h, self.b):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite LSTM weights")

    @property
    def hidden_dim(self) -> int:
        return self.w_x.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[2]

    @classmethod
    def init(cls, hidden_dim, input_dim, rng) -> "LstmWeights":
        """Uniform +/- 1/sqrt(fan-in) init; forget-gate bias starts at 1."""
        lim_x = 1.0 / np.sqrt(input_dim)
        lim_h = 1.0 / np.sqrt(hidden_dim)
        w_x = rng.uniform(-lim_x, lim_x, size=(4, hidden_dim, input_dim))
        w_h = rng.uniform(-lim_h, lim_h, size=(4, hidden_dim, hidden_dim))
        b = np.zeros((4, hidden_dim))
        b[GATE_F] = 1.0
        return cls(w_x, w_h, b)

    def copy(self) -> "LstmWeights":
        return LstmWeights(self.w_x.copy(), self.w_h.copy(), self.b.copy())


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim) -> "LstmState":
        return cls(np.zeros(hidden_dim), np.zeros(hidden_dim))


def lstm_step(weights: LstmWeights, state: LstmState, x, mask: MaskSet) -> LstmState:
    """One masked LSTM update. The rescaling rate is carried by the mask."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (weights.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({weights.input_dim},)")
    if state.h.shape != (weights.hidden_dim,):
        raise ValueError("state does not match weights")
    if mask.input_dim != weights.input_dim or mask.hidden_dim != weights.hidden_dim:
        raise ValueError("mask does not match weights")
    xm = x[None, :] * mask.scaled_x
    hm = state.h[None, :] * mask.scaled_h
    pre = np.einsum("gdr,gr->gd", weights.w_x, xm) + np.einsum("gde,ge->gd", weights.w_h, hm) + weights.b
    c = sigmoid(pre[GATE_I]) * np.tanh(pre[GATE_W]) + sigmoid(pre[GATE_F]) * state.c
    h = sigmoid(pre[GATE_O]) * np.tanh(c)
    return LstmState(h, c)


@dataclass
class LstmCache:
    """Intermediates saved by lstm_forward for the backward pass."""

    xm: np.ndarray  # (T, 4, B, r) masked-and-rescaled inputs
    hm: np.ndarray  # (T, 4, B, d) masked-and-rescaled previous hidden states
    sig_i: np.ndarray
    sig_f: np.ndarray
    sig_o: np.ndarray
    tanh_w: np.ndarray
    tanh_c: np.ndarray
    cs: np.ndarray  # (T+1, B, d), cs[0] = c0
    sx: np.ndarray  # scaled input masks as passed (broadcastable)
    sh: np.ndarray
    per_step_masks: bool
    mask_tags: np.ndarray  # (T, B) tag of the mask applied at each step


def _mask_views(sx, sh, T, B, r, d):
    """Normalize mask arrays to (T-or-1, B, 4, dim) float blocks."""
    if (sx is None) != (sh is None):
        raise ValueError("sx and sh must be given together")
    if sx is None:
        sx = np.ones((1, 1, 4, r))
        sh = np.ones((1, 1, 4, d))
        return sx, sh, False
    sx = np.asarray(sx, dtype=np.float64)
    sh = np.asarray(sh, dtype=np.float64)
    if sx.ndim == 3:  # (B, 4, r): one mask per sequence
        sx = sx[None]
        sh = sh[None]
        per_step = False
    elif sx.ndim == 4:
        per_step = sx.shape[0] > 1
    else:
        raise ValueError("mask arrays must be (B, 4, dim) or (T, B, 4, dim)")
    if sx.shape[1] not in (1, B) or sx.shape[3] != r or sh.shape[3] != d:
        raise ValueError("mask arrays do not match the input block")
    return sx, sh, per_step


def lstm_forward(weights: LstmWeights, xs, sx=None, sh=None, h0=None, c0=None, mask_tags=None):
    """Unroll the masked LSTM over an input block.

    xs: (T, B, r). sx/sh: scaled masks, (B, 4, r)/(B, 4, d) for per-sequence
    masks or (T, B, 4, r)/(T, B, 4, d) for per-step masks; None disables
    masking entirely. Returns (hs, cache) with hs of shape (T, B, d) holding
    h_1..h_T. States start at zero unless h0/c0 are given.
    """
    xs = np.asarray(xs, dtype=np.float64)
    T, B, r = xs.shape
    d = weights.hidden_dim
    if r != weights.input_dim:
        raise ValueError(f"input dim {r} does not match weights ({weights.input_dim})")
    sx, sh, per_step = _mask_views(sx, sh, T, B, r, d)
    h = np.zeros((B, d)) if h0 is None else np.array(h0, dtype=np.float64)
    c = np.zeros((B, d)) if c0 is None else np.array(c0, dtype=np.float64)

    wxT = weights.w_x.transpose(0, 2, 1)  # (4, r, d)
    whT = weights.w_h.transpose(0, 2, 1)  # (4, d, d)
    xm = np.empty((T, 4, B, r))
    hm = np.empty((T, 4, B, d))
    sig_i = np.empty((T, B, d))
    sig_f = np.empty((T, B, d))
    sig_o = np.empty((T, B, d))
    tanh_w = np.empty((T, B, d))
    tanh_c = np.empty((T, B, d))
    cs = np.empty((T + 1, B, d))
    cs[0] = c
    hs = np.empty((T, B, d))
    tags = np.full((T, B), -1, dtype=np.int64)
    if mask_tags is not None:
        tags[:] = np.asarray(mask_tags, dtype=np.int64)

    for t in range(T):
        sx_t = sx[t] if per_step else sx[0]  # (B, 4, r)
        sh_t = sh[t] if per_step else sh[0]
        xm[t] = xs[t][None, :, :] * sx_t.transpose(1, 0, 2)
        hm[t] = h[None, :, :] * sh_t.transpose(1, 0, 2)
        pre = np.matmul(xm[t], wxT) + np.matmul(hm[t], whT) + weights.b[:, None, :]
        sig_i[t] = sigmoid(pre[GATE_I])
        sig_f[t] = sigmoid(pre[GATE_F])
        sig_o[t] = sigmoid(pre[GATE_O])
        tanh_w[t] = np.tanh(pre[GATE_W])
        c = sig_i[t] * tanh_w[t] + sig_f[t] * c
        cs[t + 1] = c
        tanh_c[t] = np.tanh(c)
        h = sig_o[t] * tanh_c[t]
        hs[t] = h

    cache = LstmCache(xm, hm, sig_i, sig_f, sig_o, tanh_w, tanh_c, cs, sx, sh, per_step, tags)
    return hs, cache


@dataclass
class LstmGrads:
    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    xs: np.ndarray  # (T, B, r) gradient on the raw (pre-mask) inputs
    h0: np.ndarray
    c0: np.ndarray

    def weight_arrays(self) -> list[np.ndarray]:
        return [self.w_x, self.w_h, self.b]


def lstm_backward(weights: LstmWeights, cache: LstmCache, d_hs, d_h_final=None, d_c_final=None) -> LstmGrads:
    """Exact reverse-mode gradients of the unrolled masked LSTM.

    d_hs: (T, B, d) upstream gradients on each h_t; optional extra gradients
    on the final h/c are added at the last step.
    """
    d_hs = np.asarray(d_hs, dtype=np.float64)
    T, B, d = d_hs.shape
    r = weights.input_dim
    g_wx = np.zeros_like(weights.w_x)
    g_wh = np.zeros_like(weights.w_h)
    g_b = np.zeros_like(weights.b)
    g_xs = np.empty((T, B, r))
    dh_next = np.zeros((B, d)) if d_h_final is None else np.array(d_h_final, dtype=np.float64)
    dc_next = np.zeros((B, d)) if d_c_final is None else np.array(d_c_final, dtype=np.float64)
    d_pre = np.empty((4, B, d))

    for t in reversed(range(T)):
        dh = d_hs[t] + dh_next
        si, sf, so = cache.sig_i[t], cache.sig_f[t], cache.sig_o[t]
        tw, tc = cache.tanh_w[t], cache.tanh_c[t]
        d_pre[GATE_O] = dh * tc * so * (1.0 - so)
        dc = dh * so * (1.0 - tc * tc) + dc_next
        d_pre[GATE_I] = dc * tw * si * (1.0 - si)
        d_pre[GATE_W] = dc * si * (1.0 - tw * tw)
        d_pre[GATE_F] = dc * cache.cs[t] * sf * (1.0 - sf)
        dc_next = dc * sf

        g_wx += np.matmul(d_pre.transpose(0, 2, 1), cache.xm[t])
        g_wh += np.matmul(d_pre.transpose(0, 2, 1), cache.hm[t])
        g_b += d_pre.sum(axis=1)

        sx_t = cache.sx[t] if cache.per_step_masks else cache.sx[0]
        sh_t = cache.sh[t] if cache.per_step_masks else cache.sh[0]
        d_xm = np.matmul(d_pre, weights.w_x)  # (4, B, r)
        g_xs[t] = np.einsum("gbr,bgr->br", d_xm, sx_t)
        d_hm = np.matmul(d_pre, weights.w_h)  # (4, B, d)
        dh_next = np.einsum("gbd,bgd->bd", d_hm, sh_t)

    return LstmGrads(g_wx, g_wh, g_b, g_xs, dh_next, dc_next)


def masks_to_arrays(masks: Sequence[MaskSet]):
    """Stack per-sequence MaskSets into (B, 4, r)/(B, 4, d) scaled arrays."""
    sx = np.stack([m.scaled_x for m in masks])
    sh = np.stack([m.scaled_h for m in masks])
    tags = np.array([m.tag for m in masks], dtype=np.int64)
    return sx, sh, tags


def lstm_bptt(weights: LstmWeights, inputs, masks: Sequence[MaskSet], upstream):
    """Single-sequence BPTT: unrolls Eqs (1)-(6) over the inputs and returns
    gradients for all weights, biases, and inputs.

    ``masks`` gives the MaskSet per step (during dynamics training these must
    all be the same object; dream-style evaluation may vary them per step).
    ``upstream`` holds per-step gradients on h.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    T = inputs.shape[0]
    if len(masks) != T or upstream.shape[0] != T:
        raise ValueError("inputs, masks, and upstream gradients must have equal length")
    sx = np.stack([m.scaled_x for m in masks])[:, None]  # (T, 1, 4, r)
    sh = np.stack([m.scaled_h for m in masks])[:, None]
    tags = np.array([[m.tag] for m in masks], dtype=np.int64)
    _, cache = lstm_forward(weights, inputs[:, None, :], sx, sh, mask_tags=tags)
    grads = lstm_backward(weights, cache, upstream[:, None, :])
    return LstmGrads(grads.w_x, grads.w_h, grads.b, grads.xs[:, 0, :], grads.h0[0], grads.c0[0])
