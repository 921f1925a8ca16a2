import numpy as np
import pytest

from dreamrand import training
from dreamrand.envs import Dataset, DodgeWorld, TrackWorld, collect_trajectories, random_policy
from dreamrand.lstm import lstm_forward, mask_uniform_count, masks_from_uniforms
from dreamrand.numerics import rng_stream
from dreamrand.training import (
    AdamOptimizer,
    TrainConfig,
    evaluate_loss,
    make_windows,
    train_dynamics,
)
from dreamrand.training import _batch_loss_and_grads  # single-step property test
from dreamrand.world_model import WorldModelParams


def tiny_dataset(seed=50, count=14, max_ep_len=80):
    env = DodgeWorld(max_ep_len=max_ep_len, n_hazards=1)
    ds = collect_trajectories(env, random_policy(1), count, 0.0, rng_stream(seed, "tiny"))
    n_test = max(2, count // 6)
    return Dataset(
        ds.trajectories,
        np.arange(count - n_test),
        np.arange(count - n_test, count),
        ds.env_name,
        ds.env_params,
        ds.meta,
    )


class TestTrainDynamics:
    def test_loss_decreases_on_synthetic_data(self, trained_track_model):
        _, report = trained_track_model
        assert report.train_loss[-1] < report.train_loss[0]

    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=8, epochs=2, seq_len=16, batch_size=4, seed=7)
        p1, r1 = train_dynamics(ds, cfg)
        p2, r2 = train_dynamics(ds, cfg)
        assert np.array_equal(r1.train_loss, r2.train_loss)
        assert np.array_equal(r1.test_loss, r2.test_loss)
        for (_, a), (_, b) in zip(p1.param_items(), p2.param_items()):
            assert np.array_equal(a, b)

    def test_mask_constant_within_sequences(self, monkeypatch):
        # Every training forward pass gets one mask per sequence, held over
        # all its steps; the sequences of a batch carry distinct masks, and
        # the masks are the "masks" stream's uniforms, drawn in order.
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=8, epochs=2, seq_len=16, batch_size=4, seed=9, p_train=0.3)
        seen = []

        def spy(weights, xs, sx=None, sh=None):
            if sx is not None:
                seen.append((xs.shape[1], sx, sh))
            return lstm_forward(weights, xs, sx, sh)

        monkeypatch.setattr(training, "lstm_forward", spy)
        params, _ = train_dynamics(ds, cfg)
        n_windows = make_windows(ds.train_trajectories(), cfg.seq_len)[0].shape[0]
        assert len(seen) == cfg.epochs * -(-n_windows // cfg.batch_size)
        r, d = params.input_dim, cfg.hidden_size
        for b, sx, sh in seen:
            assert sx.shape == (b, 4, r) and sh.shape == (b, 4, d)
            rows = {np.concatenate([x.ravel(), h.ravel()]).tobytes() for x, h in zip(sx, sh)}
            assert len(rows) == b
        count = mask_uniform_count(cfg.p_train, r, d)
        u = rng_stream(cfg.seed, "train", "masks").random((sum(b for b, _, _ in seen), count))
        want_x, want_h = masks_from_uniforms(u, cfg.p_train, r, d, params.action_input_dims)
        assert np.array_equal(np.concatenate([sx for _, sx, _ in seen]), want_x)
        assert np.array_equal(np.concatenate([sh for _, _, sh in seen]), want_h)

    def test_empty_dataset_rejected(self):
        ds = tiny_dataset()
        empty = Dataset([], np.array([], dtype=np.int64), np.array([], dtype=np.int64), "dodge")
        with pytest.raises(ValueError):
            train_dynamics(empty, TrainConfig())
        short_cfg = TrainConfig(seq_len=500)
        with pytest.raises(ValueError):
            train_dynamics(ds, short_cfg)

    @pytest.mark.parametrize("name,value", [("alpha_r", -0.1), ("alpha_d", -1.0), ("grad_clip", 0.0), ("grad_clip", -5.0)])
    def test_bad_loss_settings_rejected(self, name, value):
        # A negative loss weight would maximise its term; grad_clip has no
        # off value.
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_alpha_r_zero_leaves_reward_head_untouched(self):
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=8, epochs=2, seq_len=16, batch_size=4, seed=10, alpha_r=0.0)
        params, report = train_dynamics(ds, cfg)
        fresh = rng_stream(cfg.seed, "train", "init")
        init = WorldModelParams.init(ds.n, cfg.mixture_k, cfg.hidden_size, ds.action_dim, fresh)
        assert np.array_equal(params.w_reward, init.w_reward)
        assert np.array_equal(params.b_reward, init.b_reward)
        assert not np.array_equal(params.w_done, init.w_done)

    def test_single_step_decreases_single_sequence_loss(self):
        ds = tiny_dataset()
        blocks = make_windows(ds.train_trajectories(), 16)
        xb, zb, rb, db = (a[:1] for a in blocks)
        params = WorldModelParams.init(ds.n, 3, 8, ds.action_dim, rng_stream(11, "line"))
        before, grad = _batch_loss_and_grads(params, xb, zb, rb, db, None, 1.0, 1.0)
        opt = AdamOptimizer(params.theta, lr=1e-4)
        opt.step(params.theta, grad)
        after, _ = _batch_loss_and_grads(params, xb, zb, rb, db, None, 1.0, 1.0)
        assert after["loss"] < before["loss"]

    def test_flat_adam_matches_per_array_loop(self):
        # The reference is Adam run array by array over the layout's blocks,
        # with its own moments; the flat update must match it bit for bit.
        params = WorldModelParams.init(3, 2, 5, 1, rng_stream(12, "adam"))
        arrays = [a.copy() for _, a in params.param_items()]
        ms = [np.zeros_like(a) for a in arrays]
        vs = [np.zeros_like(a) for a in arrays]
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = AdamOptimizer(params.theta, lr, beta1, beta2, eps)
        rng = rng_stream(12, "adam-grads")
        for t in range(1, 51):
            grad = rng.normal(size=params.theta.size) * 10.0 ** rng.uniform(-4, 2)
            opt.step(params.theta, grad)
            lr_t = lr * np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
            for a, g, m, v in zip(arrays, params.split(grad), ms, vs):
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * np.square(g)
                a -= lr_t * m / (np.sqrt(v) + eps)
            assert all(np.array_equal(a, b) for a, (_, b) in zip(arrays, params.param_items()))

    def test_flat_clip_matches_per_array_clip(self):
        # The reference sums the squares array by array and scales each
        # array; one pairwise sum over the flat vector would round differently.
        params = WorldModelParams.init(3, 2, 5, 1, rng_stream(13, "clip"))
        rng = rng_stream(13, "clip-grads")
        for _ in range(50):
            grad = rng.normal(size=params.theta.size) * 10.0 ** rng.uniform(-1, 1)
            blocks = [g.copy() for g in params.split(grad)]
            want = float(np.sqrt(sum(float(np.sum(np.square(g))) for g in blocks)))
            if want > 5.0:
                for g in blocks:
                    g *= 5.0 / want
            assert training._clip_grads(params, grad, 5.0) == want
            assert np.array_equal(grad, np.concatenate([g.ravel() for g in blocks]))

    def test_windows_skip_short_trajectories(self):
        ds = tiny_dataset(max_ep_len=80)
        lengths = [t.steps for t in ds.train_trajectories()]
        seq_len = int(np.percentile(lengths, 60))
        blocks = make_windows(ds.train_trajectories(), seq_len)
        expected = sum(t.steps // seq_len for t in ds.train_trajectories() if t.steps >= seq_len)
        assert blocks[0].shape[0] == expected

    def test_report_csv(self, tmp_path, trained_track_model):
        _, report = trained_track_model
        path = tmp_path / "loss.csv"
        report.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "epoch,train_loss,test_loss,lz,lr,ld"
        assert len(rows) == report.epochs + 1
        assert float(rows[1].split(",")[1]) == pytest.approx(report.train_loss[0])


class TestEvaluateLoss:
    def test_p_zero_deterministic(self, track_dataset, trained_track_model):
        params, _ = trained_track_model
        a = evaluate_loss(params, track_dataset, 0.0, n_mask_samples=5, seed=1)
        b = evaluate_loss(params, track_dataset, 0.0, n_mask_samples=9, seed=2)
        assert a.mean == b.mean
        assert a.per_sequence.shape[0] == 1

    def test_p_zero_matches_report_test_loss(self, track_dataset, trained_track_model):
        # The last epoch's test loss and the mask-free evaluation are the same
        # loss over the same windows, summed in a different order.
        params, report = trained_track_model
        res = evaluate_loss(params, track_dataset, 0.0)
        assert res.mean == pytest.approx(report.test_loss[-1], rel=1e-12)

    def test_sweep_nondecreasing(self, track_dataset, trained_track_model):
        params, _ = trained_track_model
        sweep = [0.0, 0.05, 0.1, 0.2, 0.3]
        means = [
            evaluate_loss(params, track_dataset, p, n_mask_samples=4, seed=3).mean for p in sweep
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_mask_sample_count_consistency(self, track_dataset, trained_track_model):
        params, _ = trained_track_model
        small = evaluate_loss(params, track_dataset, 0.1, n_mask_samples=1, seed=4)
        big = evaluate_loss(params, track_dataset, 0.1, n_mask_samples=64, seed=5)
        spread = max(small.std_err, big.std_err, 1e-9)
        assert abs(small.mean - big.mean) <= 3.0 * spread

    def test_same_seed_identical(self, track_dataset, trained_track_model):
        params, _ = trained_track_model
        a = evaluate_loss(params, track_dataset, 0.2, n_mask_samples=3, seed=6)
        b = evaluate_loss(params, track_dataset, 0.2, n_mask_samples=3, seed=6)
        assert a.mean == b.mean

    def test_bad_args_rejected(self, track_dataset, trained_track_model):
        params, _ = trained_track_model
        with pytest.raises(ValueError):
            evaluate_loss(params, track_dataset, 1.0)
        with pytest.raises(ValueError):
            evaluate_loss(params, track_dataset, 0.1, n_mask_samples=0)
