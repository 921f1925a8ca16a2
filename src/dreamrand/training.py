"""World-model training on trajectory datasets.

Each training sequence gets one set of dropout masks drawn at p_train and
held fixed across the whole sequence; sequences in a mini-batch carry
independent masks, drawn as one block of uniforms per batch. Loss evaluation
under swept inference-dropout rates draws a fresh mask per step instead,
mirroring dream-time step randomization.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from types import SimpleNamespace

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
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_train < 1.0:
            raise ValueError("p_train must be in [0, 1)")
        for name in ("hidden_size", "mixture_k", "seq_len", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ValueError("lr and grad_clip must be positive")
        if self.alpha_r < 0 or self.alpha_d < 0:
            raise ValueError("alpha_r and alpha_d must be non-negative")


@dataclass
class LossReport:
    """Per-epoch training curve with the per-term breakdown of the joint loss,
    the mean pre-clip gradient norm over the epoch's batches and the share of
    those batches whose gradient was clipped."""

    train_loss: np.ndarray
    test_loss: np.ndarray
    lz: np.ndarray
    lr: np.ndarray
    ld: np.ndarray
    grad_norm: np.ndarray
    clip_rate: np.ndarray

    def __post_init__(self):
        columns = [f.name for f in fields(self)]
        for name in columns:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if any(len(getattr(self, name)) != self.epochs for name in columns):
            raise ValueError("loss report columns must have equal length")
        for name in columns:
            # An empty test split leaves test_loss NaN.
            if name != "test_loss" and not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def to_csv(self, path) -> None:
        names = [f.name for f in fields(self)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch"] + names)
            for e in range(self.epochs):
                writer.writerow([e + 1] + [repr(float(getattr(self, name)[e])) for name in names])


@dataclass
class EvalLossResult:
    mean: float
    std_err: float
    per_sequence: np.ndarray  # (reps, n_sequences) summed-over-time losses
    p_infer: float


class AdamOptimizer:
    """Per-entry first/second moment estimation with bias correction, over
    one flat parameter vector."""

    def __init__(self, theta, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, theta, grad):
        """Update ``theta`` in place from the flat gradient ``grad``."""
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - self.beta2**self.t) / (1.0 - self.beta1**self.t)
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * np.square(grad)
        theta -= lr_t * self.m / (np.sqrt(self.v) + self.eps)


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
    ``masks`` is a per-sequence (sx, sh) pair or None. Returns the metrics
    and the gradient as one vector in the layout of ``params.theta``."""
    sx, sh = (None, None) if masks is None else masks
    hs, cache = lstm_forward(params.lstm, xb.transpose(1, 0, 2), sx, sh)
    metrics, d_hs, head_grads = transition_loss_batch(
        params, hs, zb.transpose(1, 0, 2), rb.T, db.T, alpha_r, alpha_d
    )
    lstm_grads = lstm_backward(params.lstm, cache, d_hs)
    return metrics, params.flatten(SimpleNamespace(lstm=lstm_grads, **head_grads))


def _clip_grads(params, grad, max_norm):
    """Scale the flat gradient in place to norm ``max_norm`` at most.

    The norm sums each layout block's squares separately: one pairwise sum
    over the whole vector rounds differently, and since clipping fires on
    nearly every batch, that would change every trained model."""
    norm = global_norm(params.split(grad))
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


def _window_loss(params, blocks, alpha_r, alpha_d, sx=None, sh=None):
    """(hs, metrics) of a (W, T, ...) window block, aggregated like training
    batches: mask-free, or under per-step masks ``sx``/``sh`` (T, W, 4, ...)."""
    xb, zb, rb, db = blocks
    hs, _ = lstm_forward(params.lstm, xb.transpose(1, 0, 2), sx, sh)
    metrics, _, _ = transition_loss_batch(params, hs, zb.transpose(1, 0, 2), rb.T, db.T, alpha_r, alpha_d)
    return hs, metrics


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
    opt = AdamOptimizer(params.theta, cfg.lr)
    order_rng = rng_stream(cfg.seed, "train", "order")
    mask_rng = rng_stream(cfg.seed, "train", "masks")
    mask_args = (cfg.p_train, params.input_dim, cfg.hidden_size)
    mask_count = mask_uniform_count(*mask_args)

    xb_all, zb_all, rb_all, db_all = train_blocks
    n_windows = xb_all.shape[0]
    # Batch metric -> LossReport column, averaged over the epoch's sequences.
    columns = {"loss": "train_loss", "lz": "lz", "lr": "lr", "ld": "ld"}
    rows = {f.name: [] for f in fields(LossReport)}

    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n_windows)
        total = dict.fromkeys(columns, 0.0)
        seen = 0
        norms = []
        for start in range(0, n_windows, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            b = len(idx)
            masks = masks_from_uniforms(mask_rng.random((b, mask_count)), *mask_args, params.action_input_dims)
            metrics, grad = _batch_loss_and_grads(
                params, xb_all[idx], zb_all[idx], rb_all[idx], db_all[idx], masks,
                cfg.alpha_r, cfg.alpha_d,
            )
            if not np.isfinite(metrics["loss"]):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch + 1}, batch {start // cfg.batch_size}: "
                    f"{metrics}"
                )
            norms.append(_clip_grads(params, grad, cfg.grad_clip))
            opt.step(params.theta, grad)
            for key in total:
                total[key] += metrics[key] * b
            seen += b
        for key, field in columns.items():
            rows[field].append(total[key] / seen)
        rows["grad_norm"].append(np.mean(norms))
        rows["clip_rate"].append(np.mean(np.array(norms) > cfg.grad_clip))
        test = _window_loss(params, test_blocks, cfg.alpha_r, cfg.alpha_d)[1]["loss"] if test_blocks else float("nan")
        rows["test_loss"].append(test)

    return params, LossReport(**rows)


def evaluate_loss(
    params: WorldModelParams,
    dataset,
    p_infer: float,
    n_mask_samples: int = 8,
    seed: int = 0,
) -> EvalLossResult:
    """Joint loss on the test split under inference-time dropout: a fresh
    mask set per step per sequence at rate p_infer, kept units scaled by
    1/(1 - p_infer), averaged over sequences and over ``n_mask_samples``
    independent mask draws.

    The windows and the loss use the sequence length and the alpha weights
    the model was trained with (from its metadata).
    """
    if not 0.0 <= p_infer < 1.0:
        raise ValueError("p_infer must be in [0, 1)")
    if n_mask_samples < 1:
        raise ValueError("n_mask_samples must be >= 1")
    alpha_r = params.meta.get("alpha_r", 1.0)
    alpha_d = params.meta.get("alpha_d", 1.0)
    blocks = make_windows(dataset.test_trajectories(), int(params.meta.get("seq_len", 32)))
    if blocks is None:
        raise ValueError("no usable sequences in the test split")
    W, T, r_dim = blocks[0].shape
    d = params.hidden_dim

    reps = 1 if p_infer == 0.0 else n_mask_samples
    rng = rng_stream(seed, "eval-loss")
    per_seq = np.empty((reps, W))
    for rep in range(reps):
        if p_infer == 0.0:
            sx = sh = None
        else:
            # One mask set per (window, step), drawn window-major.
            u_shape = (W, T, mask_uniform_count(p_infer, r_dim, d))
            sx, sh = masks_from_uniforms(rng.random(u_shape), p_infer, r_dim, d, params.action_input_dims)
            sx, sh = sx.transpose(1, 0, 2, 3), sh.transpose(1, 0, 2, 3)
        # hs outlives the rep: freeing all of a rep's blocks lets malloc trim the
        # heap, and the next rep page-faults it back (2.3x the minor faults).
        hs, metrics = _window_loss(params, blocks, alpha_r, alpha_d, sx, sh)
        per_seq[rep] = metrics["per_sequence"]
    mean = float(per_seq.mean())
    std_err = float(per_seq.std(ddof=1) / np.sqrt(per_seq.size)) if per_seq.size > 1 else 0.0
    return EvalLossResult(mean, std_err, per_seq, p_infer)
