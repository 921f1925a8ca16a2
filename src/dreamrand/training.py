"""World-model training on trajectory datasets.

Each training sequence gets one set of dropout masks drawn at p_train and
held fixed across the whole sequence; sequences in a mini-batch carry
independent masks, drawn as one block of uniforms per batch. Loss evaluation
under swept inference-dropout rates draws a fresh mask per step instead,
mirroring dream-time step randomization.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .lstm import lstm_backward, lstm_forward, mask_uniform_count, masks_from_uniforms
from .lstm import sample_mask_set  # noqa: F401  (unused here; perfbench probes rebind this name)
from .numerics import global_norm, rng_stream
from .world_model import WorldModelParams, transition_loss_batch

__all__ = [
    "TrainConfig",
    "LossReport",
    "EvalLossResult",
    "AdamOptimizer",
    "train_dynamics",
    "evaluate_loss",
]


@dataclass
class TrainConfig:
    hidden_size: int = 32
    mixture_k: int = 3
    p_train: float = 0.05
    alpha_r: float = 1.0
    alpha_d: float = 1.0
    seq_len: int = 32
    batch_size: int = 16
    epochs: int = 20
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_train < 1.0:
            raise ValueError("p_train must be in [0, 1)")
        for name in ("hidden_size", "mixture_k", "seq_len", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class LossReport:
    """Per-epoch training curve with the per-term breakdown of the joint loss."""

    train_loss: np.ndarray
    test_loss: np.ndarray
    lz: np.ndarray
    lr: np.ndarray
    ld: np.ndarray

    def __post_init__(self):
        for name in ("train_loss", "test_loss", "lz", "lr", "ld"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.train_loss)
        if any(len(getattr(self, f)) != n for f in ("test_loss", "lz", "lr", "ld")):
            raise ValueError("loss report columns must have equal length")
        for name in ("train_loss", "lz", "lr", "ld"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "test_loss", "lz", "lr", "ld"])
            for e in range(self.epochs):
                writer.writerow(
                    [e + 1]
                    + [repr(float(col[e])) for col in (self.train_loss, self.test_loss, self.lz, self.lr, self.ld)]
                )


@dataclass
class EvalLossResult:
    mean: float
    std_err: float
    per_sequence: np.ndarray  # (reps, n_sequences) summed-over-time losses
    p_infer: float

    @property
    def n_sequences(self) -> int:
        return self.per_sequence.shape[1]


class AdamOptimizer:
    """Per-parameter first/second moment estimation with bias correction."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads):
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - self.beta2**self.t) / (1.0 - self.beta1**self.t)
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            a -= lr_t * m / (np.sqrt(v) + self.eps)


def make_windows(trajectories, seq_len):
    """Cut trajectories into non-overlapping fixed-length transition windows.

    Trajectories shorter than seq_len are skipped. Returns stacked blocks
    (xs, z_next, r, d) with shapes (W, T, r), (W, T, n), (W, T), (W, T).
    """
    xs, zn, rs, ds = [], [], [], []
    for traj in trajectories:
        steps = traj.steps
        if steps < seq_len:
            continue
        inputs = np.concatenate([traj.z[:steps], traj.a], axis=1)
        for start in range(0, steps - seq_len + 1, seq_len):
            stop = start + seq_len
            xs.append(inputs[start:stop])
            zn.append(traj.z[start + 1 : stop + 1])
            rs.append(traj.r[start:stop])
            ds.append(traj.d[start:stop].astype(np.float64))
    if not xs:
        return None
    return (np.stack(xs), np.stack(zn), np.stack(rs), np.stack(ds))


def _batch_loss_and_grads(params, xb, zb, rb, db, masks, alpha_r, alpha_d):
    """Forward + backward over one mini-batch; blocks arrive (B, T, ...) and
    ``masks`` is a per-sequence (sx, sh) pair or None."""
    sx, sh = (None, None) if masks is None else masks
    hs, cache = lstm_forward(params.lstm, xb.transpose(1, 0, 2), sx, sh)
    metrics, d_hs, head_grads = transition_loss_batch(
        params, hs, zb.transpose(1, 0, 2), rb.T, db.T, alpha_r, alpha_d
    )
    lstm_grads = lstm_backward(params.lstm, cache, d_hs)
    grads = [lstm_grads.w_x, lstm_grads.w_h, lstm_grads.b] + [
        head_grads[name] for name in ("w_mdn", "b_mdn", "w_reward", "b_reward", "w_done", "b_done")
    ]
    return metrics, grads


def _clip_grads(grads, max_norm):
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def _eval_split_loss(params, blocks, alpha_r, alpha_d):
    """Mask-free loss over a window block, aggregated like training batches."""
    if blocks is None:
        return float("nan")
    xb, zb, rb, db = blocks
    hs, _ = lstm_forward(params.lstm, xb.transpose(1, 0, 2))
    metrics, _, _ = transition_loss_batch(
        params, hs, zb.transpose(1, 0, 2), rb.T, db.T, alpha_r, alpha_d
    )
    return metrics["loss"]


def train_dynamics(dataset, cfg: TrainConfig):
    """Train the dynamics model; returns (WorldModelParams, LossReport).

    Each sequence of a mini-batch carries its own masks at p_train, held
    fixed over its steps. A batch of b sequences draws its masks with one
    ``mask_rng.random((b, count))`` call fed to ``masks_from_uniforms``,
    which gives the masks of b sequential ``sample_mask_set`` calls; at
    p_train = 0 it draws nothing and the batches run unmasked.

    Deterministic given (dataset, cfg): identical seeds give bit-identical
    parameters and reports.
    """
    train_trajs = dataset.train_trajectories()
    if not train_trajs:
        raise ValueError("dataset has no training trajectories")
    train_blocks = make_windows(train_trajs, cfg.seq_len)
    if train_blocks is None:
        raise ValueError(f"no trajectory is at least {cfg.seq_len} steps long")
    test_blocks = make_windows(dataset.test_trajectories(), cfg.seq_len)

    n, action_dim = dataset.n, dataset.action_dim
    init_rng = rng_stream(cfg.seed, "train", "init")
    params = WorldModelParams.init(
        n,
        cfg.mixture_k,
        cfg.hidden_size,
        action_dim,
        init_rng,
        meta={
            "p_train": cfg.p_train,
            "alpha_r": cfg.alpha_r,
            "alpha_d": cfg.alpha_d,
            "seq_len": cfg.seq_len,
            "env": dataset.env_name,
            "seed": cfg.seed,
        },
    )
    arrays = params.param_arrays()
    opt = AdamOptimizer(arrays, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    order_rng = rng_stream(cfg.seed, "train", "order")
    mask_rng = rng_stream(cfg.seed, "train", "masks")
    mask_args = (cfg.p_train, params.input_dim, cfg.hidden_size)
    mask_count = mask_uniform_count(*mask_args)

    xb_all, zb_all, rb_all, db_all = train_blocks
    n_windows = xb_all.shape[0]
    epoch_rows = {"train_loss": [], "test_loss": [], "lz": [], "lr": [], "ld": []}

    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n_windows)
        total = {"loss": 0.0, "lz": 0.0, "lr": 0.0, "ld": 0.0}
        seen = 0
        for start in range(0, n_windows, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            b = len(idx)
            masks = masks_from_uniforms(mask_rng.random((b, mask_count)), *mask_args, params.action_input_dims)
            metrics, grads = _batch_loss_and_grads(
                params, xb_all[idx], zb_all[idx], rb_all[idx], db_all[idx], masks,
                cfg.alpha_r, cfg.alpha_d,
            )
            if not np.isfinite(metrics["loss"]):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch + 1}, batch {start // cfg.batch_size}: "
                    f"{metrics}"
                )
            _clip_grads(grads, cfg.grad_clip)
            opt.step(arrays, grads)
            for key_to, key_from in (("loss", "loss"), ("lz", "lz"), ("lr", "lr"), ("ld", "ld")):
                total[key_to] += metrics[key_from] * b
            seen += b
        epoch_rows["train_loss"].append(total["loss"] / seen)
        epoch_rows["lz"].append(total["lz"] / seen)
        epoch_rows["lr"].append(total["lr"] / seen)
        epoch_rows["ld"].append(total["ld"] / seen)
        epoch_rows["test_loss"].append(_eval_split_loss(params, test_blocks, cfg.alpha_r, cfg.alpha_d))

    report = LossReport(
        epoch_rows["train_loss"],
        epoch_rows["test_loss"],
        epoch_rows["lz"],
        epoch_rows["lr"],
        epoch_rows["ld"],
    )
    return params, report


def evaluate_loss(
    params: WorldModelParams,
    dataset,
    p_infer: float,
    n_mask_samples: int = 8,
    seed: int = 0,
    split: str = "test",
    seq_len: int | None = None,
    alpha_r: float | None = None,
    alpha_d: float | None = None,
    scale_rate: float | None = None,
) -> EvalLossResult:
    """Joint loss under inference-time dropout: a fresh mask set per step per
    sequence at rate p_infer, averaged over sequences and over
    ``n_mask_samples`` independent mask draws.

    alpha weights and the sequence length default to the values the model
    was trained with (from its metadata). ``scale_rate`` overrides the
    inverted-dropout rescaling rate (None = rescale by p_infer itself).
    """
    if not 0.0 <= p_infer < 1.0:
        raise ValueError("p_infer must be in [0, 1)")
    if n_mask_samples < 1:
        raise ValueError("n_mask_samples must be >= 1")
    if split == "test":
        trajs = dataset.test_trajectories()
    elif split == "train":
        trajs = dataset.train_trajectories()
    elif split == "all":
        trajs = list(dataset.trajectories)
    else:
        raise ValueError(f"unknown split {split!r}")
    seq_len = seq_len or int(params.meta.get("seq_len", 32))
    alpha_r = params.meta.get("alpha_r", 1.0) if alpha_r is None else alpha_r
    alpha_d = params.meta.get("alpha_d", 1.0) if alpha_d is None else alpha_d
    blocks = make_windows(trajs, seq_len)
    if blocks is None:
        raise ValueError(f"no usable sequences in split {split!r}")
    xb, zb, rb, db = blocks
    W, T, r_dim = xb.shape
    d = params.hidden_dim
    xs = xb.transpose(1, 0, 2)
    zt, rt, dt = zb.transpose(1, 0, 2), rb.T, db.T

    reps = 1 if p_infer == 0.0 else n_mask_samples
    rng = rng_stream(seed, "eval-loss")
    per_seq = np.empty((reps, W))
    for rep in range(reps):
        if p_infer == 0.0:
            sx = sh = None
        else:
            # One mask set per (window, step), drawn window-major.
            u_shape = (W, T, mask_uniform_count(p_infer, r_dim, d))
            sx, sh = masks_from_uniforms(rng.random(u_shape), p_infer, r_dim, d, params.action_input_dims, scale_rate)
            sx, sh = sx.transpose(1, 0, 2, 3), sh.transpose(1, 0, 2, 3)
        hs, _ = lstm_forward(params.lstm, xs, sx, sh)
        metrics, _, _ = transition_loss_batch(params, hs, zt, rt, dt, alpha_r, alpha_d)
        per_seq[rep] = metrics["per_sequence"]
    mean = float(per_seq.mean())
    std_err = float(per_seq.std(ddof=1) / np.sqrt(per_seq.size)) if per_seq.size > 1 else 0.0
    return EvalLossResult(mean, std_err, per_seq, p_infer)
