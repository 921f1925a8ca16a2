"""Masked LSTM cell with per-gate dropout masks, forward unrolling, and
gradient-checked backpropagation through time.

Eight Boolean masks (four on the input, four on the hidden state, one pair
per gate) multiply into the gate pre-activations. Kept units are rescaled by
1/(1 - p) (inverted dropout) so the expected pre-activation matches the
unmasked pass; entries at action input indices are pinned to 1 and never
rescaled, since zeroing an action could read as the agent acting.

Gate order in weights and masks is (i, f, w, o): input gate, forget gate,
cell write, output gate. Nonlinearities are applied when the cell and hidden
state are formed, not in the pre-activations:

    c_t = sigmoid(i) * tanh(w) + sigmoid(f) * c_{t-1}
    h_t = sigmoid(o) * tanh(c_t)

``lstm_forward``/``lstm_backward`` keep only the recurrence in the Python
time loop. The forward pass computes the masked input projection plus bias
for all T*B rows in one batched matmul before the loop; each step adds one
(4, B, d) @ (4, d, d) product of the masked previous hidden state, takes one
sigmoid over the stacked o, i, f gates and forms c and h. The backward pass
computes the step-independent gate factors for all steps before the loop,
runs only dh, dc, the gate gradients and the recurrent product per step, and
forms the weight and input gradients after the loop over the stacked gate
gradients. Inside the unroll the gates are held in the order (o, i, f, w),
so the three sigmoid gates sit side by side.
"""
from __future__ import annotations

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

# Gate order inside lstm_forward/lstm_backward: _UNROLL[k] is the stored gate
# at unroll position k, and _STORED maps the gradients back.
_UNROLL = [GATE_O, GATE_I, GATE_F, GATE_W]
_STORED = np.argsort(_UNROLL)


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
    _, cache = lstm_forward(weights, inputs[:, None, :], sx, sh)
    grads = lstm_backward(weights, cache, upstream[:, None, :])
    return LstmGrads(grads.w_x, grads.w_h, grads.b, grads.xs[:, 0, :], grads.h0[0], grads.c0[0])
