"""Reference for ``dreamrand.dream.rollout_batch``: the per-lane loop it
replaced, kept as the stream-exact oracle.

Every lane-step draws its mask set with ``sample_mask_set`` and its
transition with ``sample_transition_raw``, one lane at a time, while the
masked cell and the heads run on the same row groups as the vectorised
rollout. The vectorised rollout must reproduce its returns, steps,
truncation flags and mask count bit for bit.

``reference_action`` is the linear controller's action formula, shared by
this oracle and the hand-stepped real-environment oracle of
``tests/test_controller.py``.
"""
import numpy as np

from dreamrand.dream import RandomizationPolicy
from dreamrand.lstm import sample_mask_set
from dreamrand.numerics import sigmoid
from dreamrand.world_model import heads_raw, sample_transition_raw


def reference_action(W, B, Z, H, C=None):
    """tanh(W[l] @ f + B[l]) for each row l, with f = [z, h], or [z, h, c]
    when C is given."""
    F = np.concatenate([Z, H] if C is None else [Z, H, C], axis=1)
    return np.tanh(np.einsum("laf,lf->la", W, F) + B)


def reference_rollout_batch(cfg, controller_w, controller_b, lane_rngs, starts, include_c=False):
    """Roll one dream episode per lane in lockstep, drawing lane by lane.

    Lane l acts by ``reference_action`` with controller_w[l] and
    controller_b[l], over [z, h], or [z, h, c] with ``include_c``. Returns
    the result dict of ``rollout_batch``.
    """
    model = cfg.model
    n, d, r = model.n, model.hidden_dim, model.input_dim
    a_dim = model.action_dim
    L = len(lane_rngs)
    n_models = len(cfg.ensemble)

    H = np.zeros((L, d))
    C = np.zeros((L, d))
    Z = np.empty((L, n))
    model_idx = np.zeros(L, dtype=np.int64)
    SX = np.ones((L, 4, r))
    SH = np.ones((L, 4, d))
    done = np.zeros(L, dtype=bool)
    truncated = np.zeros(L, dtype=bool)
    returns = np.zeros(L)
    steps = np.zeros(L, dtype=np.int64)
    masks_sampled = 0

    def sample_lane_mask(lane, rng):
        nonlocal masks_sampled
        if cfg.p_infer == 0.0:  # no mask is drawn at p = 0; the lane runs unmasked
            return
        masks_sampled += 1
        SX[lane], SH[lane] = sample_mask_set(cfg.p_infer, r, d, action_dims=model.action_input_dims, rng=rng)

    for lane, rng in enumerate(lane_rngs):
        Z[lane] = starts[int(rng.integers(len(starts)))]
        if cfg.policy == RandomizationPolicy.EPISODE and cfg.mc_samples == 0:
            sample_lane_mask(lane, rng)
        if n_models > 1:
            model_idx[lane] = rng.integers(n_models)

    w_x = {m: cfg.ensemble[m].lstm.w_x for m in range(n_models)}
    w_h = {m: cfg.ensemble[m].lstm.w_h for m in range(n_models)}
    b = {m: cfg.ensemble[m].lstm.b for m in range(n_models)}

    def masked_lstm(idx, X, Hs, Cs, sx, sh):
        """Masked LSTM step for the lane subset ``idx`` grouped by model."""
        h_new = np.empty((len(idx), d))
        c_new = np.empty((len(idx), d))
        groups = [(0, np.arange(len(idx)))] if n_models == 1 else [
            (m, np.flatnonzero(model_idx[idx] == m)) for m in range(n_models)
        ]
        for m, rows in groups:
            if len(rows) == 0:
                continue
            pre = np.empty((4, len(rows), d))
            for g in range(4):
                xm = X[rows] * sx[rows, g, :]
                hm = Hs[rows] * sh[rows, g, :]
                pre[g] = xm @ w_x[m][g].T + hm @ w_h[m][g].T + b[m][g]
            cg = sigmoid(pre[0]) * np.tanh(pre[2]) + sigmoid(pre[1]) * Cs[rows]
            c_new[rows] = cg
            h_new[rows] = sigmoid(pre[3]) * np.tanh(cg)
        return h_new, c_new

    for t in range(cfg.max_ep_len):
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        A = reference_action(
            controller_w[active], controller_b[active], Z[active], H[active], C[active] if include_c else None
        )
        X = np.concatenate([Z[active], A], axis=1)

        if cfg.mc_samples > 0:
            K = cfg.mc_samples
            if cfg.p_infer > 0.0:
                sx_mc = np.empty((active.size, K, 4, r))
                sh_mc = np.empty((active.size, K, 4, d))
                for j, lane in enumerate(active):
                    for kk in range(K):
                        masks_sampled += 1
                        sx_mc[j, kk], sh_mc[j, kk] = sample_mask_set(
                            cfg.p_infer, r, d, action_dims=model.action_input_dims, rng=lane_rngs[lane]
                        )
                Xr = np.repeat(X, K, axis=0)
                Hr = np.repeat(H[active], K, axis=0)
                Cr = np.repeat(C[active], K, axis=0)
                idx_r = np.repeat(active, K)
                h_all, c_all = masked_lstm(idx_r, Xr, Hr, Cr, sx_mc.reshape(-1, 4, r), sh_mc.reshape(-1, 4, d))
                _, pi_a, mu_a, sg_a, r_a, u_a = heads_raw(model, h_all)
                shape = (active.size, K)
                h_new = h_all.reshape(shape + (d,)).mean(axis=1)
                c_new = c_all.reshape(shape + (d,)).mean(axis=1)
                pi = pi_a.reshape(shape + pi_a.shape[1:]).mean(axis=1)
                mu = mu_a.reshape(shape + mu_a.shape[1:]).mean(axis=1)
                sigma = sg_a.reshape(shape + sg_a.shape[1:]).mean(axis=1)
                r_hat = r_a.reshape(shape).mean(axis=1)
                d_hat = sigmoid(u_a).reshape(shape).mean(axis=1)
            else:
                h_new, c_new = masked_lstm(active, X, H[active], C[active], SX[active], SH[active])
                _, pi, mu, sigma, r_hat, u = heads_raw(model, h_new)
                d_hat = sigmoid(u)
        else:
            if cfg.policy == RandomizationPolicy.STEP:
                for lane in active:
                    sample_lane_mask(lane, lane_rngs[lane])
                if n_models > 1:
                    for lane in active:
                        model_idx[lane] = lane_rngs[lane].integers(n_models)
            h_new, c_new = masked_lstm(active, X, H[active], C[active], SX[active], SH[active])
            if n_models == 1:
                _, pi, mu, sigma, r_hat, u = heads_raw(model, h_new)
            else:
                pi = np.empty((active.size, n, model.k))
                mu = np.empty_like(pi)
                sigma = np.empty_like(pi)
                r_hat = np.empty(active.size)
                u = np.empty(active.size)
                for m in range(n_models):
                    rows = np.flatnonzero(model_idx[active] == m)
                    if len(rows) == 0:
                        continue
                    _, pi[rows], mu[rows], sigma[rows], r_hat[rows], u[rows] = heads_raw(
                        cfg.ensemble[m], h_new[rows]
                    )
            d_hat = sigmoid(u)

        for j, lane in enumerate(active):
            rng = lane_rngs[lane]
            z_next, _, done_sample = sample_transition_raw(pi[j], mu[j], sigma[j], float(d_hat[j]), rng)
            if cfg.noise_sigma > 0.0:
                z_next = z_next + cfg.noise_sigma * rng.standard_normal(n)
            Z[lane] = z_next
            returns[lane] += r_hat[j]
            steps[lane] += 1
            if done_sample:
                done[lane] = True
            elif t == cfg.max_ep_len - 1:
                done[lane] = True
                truncated[lane] = True
        H[active] = h_new
        C[active] = c_new

    return {
        "returns": returns,
        "steps": steps,
        "truncated": truncated,
        "masks_sampled": int(masks_sampled),
    }
