"""Masked LSTM cell with per-gate dropout masks, forward unrolling, and
gradient-checked backpropagation through time.

Masks are float arrays: ``sx`` (..., 4, r) scales the input and ``sh``
(..., 4, d) the previous hidden state, one row per gate, before each gate's
product. Kept units carry 1/(1 - p) (inverted dropout), dropped units 0, and
the action input entries exactly 1, since zeroing an action could read as the
agent acting. At p = 0 no mask exists: every function takes ``None`` for the
unmasked cell, and ``masks_from_uniforms`` returns ``(None, None)``.

Gate order in weights and masks is (i, f, w, o): input gate, forget gate,
cell write, output gate. Nonlinearities are applied when the cell and hidden
state are formed, not in the pre-activations:

    c_t = sigmoid(i) * tanh(w) + sigmoid(f) * c_{t-1}
    h_t = sigmoid(o) * tanh(c_t)

``lstm_step`` is the one single-step cell, over a block of rows; the dream
rollout and the real-environment evaluation call it. ``lstm_forward`` and
``lstm_backward`` unroll the same update for training, keeping only the
recurrence in the Python time loop, because the backward pass needs the
intermediates of every step. The forward pass computes the masked input
projection plus bias for all T*B rows in one batched matmul before the loop;
each step adds one (4, B, d) @ (4, d, d) product of the masked previous
hidden state, takes one sigmoid over the stacked o, i, f gates and forms c
and h. The backward pass computes the step-independent gate factors for all
steps before the loop, runs only dh, dc, the gate gradients and the
recurrent product per step, and forms the weight and input gradients after
the loop over the stacked gate gradients. Inside the unroll the gates are
held in the order (o, i, f, w), so the three sigmoid gates sit side by side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import sigmoid

__all__ = [
    "LstmWeights",
    "LstmGrads",
    "sample_mask_set",
    "mask_uniform_count",
    "masks_from_uniforms",
    "lstm_step",
    "lstm_forward",
    "lstm_backward",
]

GATE_I, GATE_F, GATE_W, GATE_O = range(4)

# Gate order inside lstm_forward/lstm_backward: _UNROLL[k] is the stored gate
# at unroll position k, and _STORED maps the gradients back.
_UNROLL = [GATE_O, GATE_I, GATE_F, GATE_W]
_STORED = np.argsort(_UNROLL)


def mask_uniform_count(p, input_dim, hidden_dim) -> int:
    """Uniform draws one mask set consumes: one per entry of the eight
    per-gate masks, or none at p == 0."""
    return 0 if p == 0.0 else 4 * (input_dim + hidden_dim)


def masks_from_uniforms(u, p, input_dim, hidden_dim, action_dims=(), scale_rate=None):
    """Scaled masks from uniforms u (..., mask_uniform_count), one mask set
    per leading index: sx (..., 4, input_dim) and sh (..., 4, hidden_dim).

    The first 4*input_dim draws of a set give sx, gate-major, the rest sh.
    An entry is kept when its draw is >= p and then carries 1/(1 - rate),
    where the rate is ``scale_rate``, or p itself when that is None; a rate
    of 0 leaves kept units at 1. Action entries are always 1. At p == 0 there
    are no draws and no masks: the result is (None, None).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    rate = p if scale_rate is None else scale_rate
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rescale rate must be in [0, 1), got {rate}")
    action_dims = list(action_dims)
    if action_dims and not 0 <= min(action_dims) <= max(action_dims) < input_dim:
        raise ValueError("action_dims out of input range")
    count = mask_uniform_count(p, input_dim, hidden_dim)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] != count:
        raise ValueError(f"uniforms must have {count} entries per mask set")
    if p == 0.0:
        return None, None
    lead = u.shape[:-1]
    scale = 1.0 / (1.0 - rate)
    keep = u >= p
    sx = keep[..., : 4 * input_dim].reshape(lead + (4, input_dim)).astype(np.float64) * scale
    if action_dims:
        sx[..., action_dims] = 1.0
    sh = keep[..., 4 * input_dim :].reshape(lead + (4, hidden_dim)).astype(np.float64) * scale
    return sx, sh


def sample_mask_set(p, input_dim, hidden_dim, action_dims=(), rng=None, scale_rate=None):
    """One mask set (sx (4, input_dim), sh (4, hidden_dim)) from one
    ``rng.random(mask_uniform_count)`` call: every non-action entry of the
    eight masks is dropped independently with probability p.

    At p == 0 it draws nothing and returns (None, None), so a p=0 run is
    stream-identical to one that never samples masks.
    """
    count = mask_uniform_count(p, input_dim, hidden_dim)
    if count and rng is None:
        raise ValueError("rng required when p > 0")
    u = rng.random(count) if count else np.empty(0)
    return masks_from_uniforms(u, p, input_dim, hidden_dim, action_dims, scale_rate)


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


def lstm_step(weights: LstmWeights, x, h, c, sx=None, sh=None):
    """One masked LSTM update for a block of rows; returns (h, c).

    x: (rows, r); h, c: (rows, d); sx/sh: the rows' masks, (rows, 4, r) and
    (rows, 4, d), or None for the unmasked cell. Each gate's pre-activation
    is (x * sx[:, g]) @ w_x[g].T + (h * sh[:, g]) @ w_h[g].T, then + b[g].
    """
    if x.shape[1:] != (weights.input_dim,) or h.shape != (len(x), weights.hidden_dim) or c.shape != h.shape:
        raise ValueError(f"rows x {x.shape}, h {h.shape}, c {c.shape} do not match the weights")
    if sx is not None:
        x = np.multiply(x[None], sx.transpose(1, 0, 2), order="C")  # (4, rows, r)
        h = np.multiply(h[None], sh.transpose(1, 0, 2), order="C")
    # matmul over the gate axis makes the per-gate products
    # (rows, r) @ w_x[g].T and (rows, d) @ w_h[g].T, one BLAS call each.
    pre = np.matmul(x, weights.w_x.transpose(0, 2, 1)) + np.matmul(h, weights.w_h.transpose(0, 2, 1))
    pre += weights.b[:, None, :]
    s_i, s_f, s_o = sigmoid(pre[[GATE_I, GATE_F, GATE_O]])
    c = s_i * np.tanh(pre[GATE_W]) + s_f * c
    return s_o * np.tanh(c), c


@dataclass
class LstmCache:
    """Intermediates saved by lstm_forward for the backward pass.

    Gate axes are in unroll order (o, i, f, w) and lead each block, so one
    gate's values over all T steps are contiguous.
    """

    xm: np.ndarray  # (4, T, B, r) masked-and-rescaled inputs
    hm: np.ndarray  # (4, T, B, d) masked-and-rescaled previous hidden states
    sig: np.ndarray  # (3, T, B, d) sigmoids of the o, i, f pre-activations
    tanh_w: np.ndarray  # (T, B, d)
    tanh_c: np.ndarray  # (T, B, d)
    cs: np.ndarray  # (T+1, B, d), cs[0] = c0
    sx: np.ndarray  # (4, T or 1, B or 1, r) scaled input masks
    sh: np.ndarray  # (4, T or 1, B or 1, d) scaled hidden masks


def _mask_views(sx, sh, T, B, r, d):
    """Scaled masks as gate-major (4, T-or-1, B-or-1, dim) blocks in unroll
    gate order; None stands for all-ones masks."""
    if (sx is None) != (sh is None):
        raise ValueError("sx and sh must be given together")
    if sx is None:
        return np.ones((4, 1, 1, r)), np.ones((4, 1, 1, d))
    sx = np.asarray(sx, dtype=np.float64)
    sh = np.asarray(sh, dtype=np.float64)
    if sx.ndim == 3:  # (B, 4, r): one mask per sequence
        sx, sh = sx[None], sh[None]
    elif sx.ndim != 4:
        raise ValueError("mask arrays must be (B, 4, dim) or (T, B, 4, dim)")
    if (
        sx.shape[0] not in (1, T)
        or sx.shape[1] not in (1, B)
        or sx.shape[2:] != (4, r)
        or sh.shape != sx.shape[:2] + (4, d)
    ):
        raise ValueError("mask arrays do not match the input block")
    return sx.transpose(2, 0, 1, 3)[_UNROLL], sh.transpose(2, 0, 1, 3)[_UNROLL]


def lstm_forward(weights: LstmWeights, xs, sx=None, sh=None, h0=None, c0=None):
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
    sx, sh = _mask_views(sx, sh, T, B, r, d)
    h = np.zeros((B, d)) if h0 is None else np.array(h0, dtype=np.float64)
    cs = np.empty((T + 1, B, d))
    cs[0] = 0.0 if c0 is None else c0

    # Input projection plus bias for every step, one matmul over the gates.
    xm = np.multiply(xs, sx, order="C")  # (4, T, B, r)
    wxT = np.ascontiguousarray(weights.w_x[_UNROLL].transpose(0, 2, 1))  # (4, r, d)
    xw = np.matmul(xm.reshape(4, T * B, r), wxT)
    xw += weights.b[_UNROLL][:, None, :]
    xw = xw.reshape(4, T, B, d)

    whT = np.ascontiguousarray(weights.w_h[_UNROLL].transpose(0, 2, 1))  # (4, d, d)
    hm = np.empty((4, T, B, d))
    sig = np.empty((3, T, B, d))
    tanh_w = np.empty((T, B, d))
    tanh_c = np.empty((T, B, d))
    hs = np.empty((T, B, d))
    per_step = sh.shape[1] > 1
    sh_t = sh[:, 0]
    c = cs[0]
    for t in range(T):
        if per_step:
            sh_t = sh[:, t]
        pre = np.matmul(np.multiply(h, sh_t, out=hm[:, t]), whT)
        pre += xw[:, t]
        s_oif = sigmoid(pre[:3])
        sig[:, t] = s_oif
        tw = np.tanh(pre[3], out=tanh_w[t])
        c = np.multiply(s_oif[2], c, out=cs[t + 1])
        c += s_oif[1] * tw
        h = np.multiply(s_oif[0], np.tanh(c, out=tanh_c[t]), out=hs[t])

    return hs, LstmCache(xm, hm, sig, tanh_w, tanh_c, cs, sx, sh)


@dataclass
class LstmGrads:
    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    xs: np.ndarray  # (T, B, r) gradient on the raw (pre-mask) inputs
    h0: np.ndarray
    c0: np.ndarray


def lstm_backward(weights: LstmWeights, cache: LstmCache, d_hs, d_h_final=None, d_c_final=None) -> LstmGrads:
    """Exact reverse-mode gradients of the unrolled masked LSTM.

    d_hs: (T, B, d) upstream gradients on each h_t; optional extra gradients
    on the final h/c are added at the last step.
    """
    d_hs = np.asarray(d_hs, dtype=np.float64)
    T, B, d = d_hs.shape
    r = weights.input_dim
    s_o, s_i, s_f = cache.sig
    tw, tc = cache.tanh_w, cache.tanh_c
    # Step-independent factors: d_pre_o = dh * f_o, dc = dh * f_c + dc_next,
    # and (d_pre_i, d_pre_f, d_pre_w) = dc * f_ifw.
    ds_o, ds_i, ds_f = cache.sig * (1.0 - cache.sig)
    f_o = tc * ds_o
    f_c = s_o * (1.0 - tc * tc)
    f_ifw = np.empty((3, T, B, d))
    np.multiply(tw, ds_i, out=f_ifw[0])
    np.multiply(cache.cs[:-1], ds_f, out=f_ifw[1])
    np.multiply(s_i, 1.0 - tw * tw, out=f_ifw[2])

    w_h = weights.w_h[_UNROLL]
    d_pre = np.empty((4, T, B, d))
    dh_next = np.zeros((B, d)) if d_h_final is None else np.array(d_h_final, dtype=np.float64)
    dc_next = np.zeros((B, d)) if d_c_final is None else np.array(d_c_final, dtype=np.float64)
    per_step = cache.sh.shape[1] > 1
    sh_t = cache.sh[:, 0]
    for t in reversed(range(T)):
        if per_step:
            sh_t = cache.sh[:, t]
        dh = d_hs[t] + dh_next
        np.multiply(dh, f_o[t], out=d_pre[0, t])
        dc = dh * f_c[t]
        dc += dc_next
        np.multiply(dc, f_ifw[:, t], out=d_pre[1:, t])
        dc_next = dc * s_f[t]
        d_hm = np.matmul(d_pre[:, t], w_h)  # (4, B, d)
        d_hm *= sh_t
        dh_next = np.add.reduce(d_hm, axis=0)

    # Weight and input gradients over all steps at once.
    d_rows = d_pre.reshape(4, T * B, d)
    d_rows_T = d_rows.transpose(0, 2, 1)
    g_wx = np.matmul(d_rows_T, cache.xm.reshape(4, T * B, r))
    g_wh = np.matmul(d_rows_T, cache.hm.reshape(4, T * B, d))
    g_b = np.matmul(np.ones(T * B), d_rows)  # the sum over rows
    d_xm = np.matmul(d_rows, weights.w_x[_UNROLL]).reshape(4, T, B, r)
    d_xm *= cache.sx
    g_xs = d_xm.sum(axis=0)
    return LstmGrads(g_wx[_STORED], g_wh[_STORED], g_b[_STORED], g_xs, dh_next, dc_next)

