import hashlib
import math

import numpy as np
import pytest

from dreamrand import storage
from dreamrand.lstm import lstm_forward, mask_uniform_count, masks_from_uniforms
from dreamrand.numerics import rng_stream
from dreamrand.training import _batch_loss_and_grads
from dreamrand.world_model import WorldModelParams, load_model, save_model, transition_loss_batch
from finite_diff import finite_diff_grad
from world_model_oracles import MdnOutput, Prediction, heads_forward, mdn_loss, sample_transition, transition_loss

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# sha256 of save_model(WorldModelParams.init(3, 2, 4, 1, rng_stream(0, "golden-model"))):
# pins the checkpoint bytes (container format, layout order, init draws).
GOLDEN_MODEL_SHA256 = "0ad8fea00d9771b855f237857bd6915ee0634f8fb137d96115532b97acddc143"


def make_params(seed=0, n=4, k=3, d=8, action_dim=2, scale=1.0):
    rng = rng_stream(seed, "wm-params")
    p = WorldModelParams.init(n, k, d, action_dim, rng)
    if scale != 1.0:
        p.theta *= scale
    return p


class TestHeadsForward:
    def test_zero_heads_give_uniform_mixture(self):
        p = make_params(1)
        for name in ("w_mdn", "b_mdn", "w_reward", "b_reward", "w_done", "b_done"):
            getattr(p, name)[:] = 0.0
        pred = heads_forward(p, np.zeros(p.hidden_dim) + 0.3)
        np.testing.assert_allclose(pred.mdn.pi, 1.0 / p.k)
        np.testing.assert_allclose(pred.mdn.sigma, 1.0)
        assert pred.d_hat == pytest.approx(0.5)
        assert pred.r_hat == 0.0

    def test_saturated_done_logit(self):
        p = make_params(2)
        p.w_done[:] = 0.0
        p.b_done[:] = 50.0
        pred = heads_forward(p, np.zeros(p.hidden_dim))
        assert abs(pred.d_hat - 1.0) < 1e-9

    def test_output_invariants_fuzzed(self):
        p = make_params(3)
        rng = rng_stream(3, "fuzz")
        for _ in range(200):
            h = rng.uniform(-1.0, 1.0, size=p.hidden_dim)
            pred = heads_forward(p, h)
            np.testing.assert_allclose(pred.mdn.pi.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(pred.mdn.sigma > 0)
            assert 0.0 < pred.d_hat < 1.0

    def test_dim_mismatch_rejected(self):
        p = make_params(4)
        with pytest.raises(ValueError):
            heads_forward(p, np.zeros(p.hidden_dim + 1))


class TestMdnLoss:
    def test_single_component_at_mean(self):
        n = 4
        z = np.array([0.3, -1.0, 0.0, 2.0])
        out = MdnOutput(np.ones((n, 1)), z[:, None], np.ones((n, 1)))
        assert mdn_loss(out, z) == pytest.approx(n * HALF_LOG_2PI, abs=1e-9)

    def test_component_permutation_invariance(self):
        rng = rng_stream(5, "mdn-perm")
        n, k = 3, 4
        pi = rng.dirichlet(np.ones(k), size=n)
        mu = rng.normal(size=(n, k))
        sigma = rng.uniform(0.5, 2.0, size=(n, k))
        z = rng.normal(size=n)
        base = mdn_loss(MdnOutput(pi, mu, sigma), z)
        perm = rng.permutation(k)
        shuffled = mdn_loss(MdnOutput(pi[:, perm], mu[:, perm], sigma[:, perm]), z)
        assert abs(base - shuffled) < 1e-12

    def test_matches_naive_summation(self):
        # Direct density summation without any log-domain tricks.
        pi = np.array([[0.3, 0.7]])
        mu = np.array([[0.0, 1.0]])
        sigma = np.array([[1.0, 1.0]])
        z = np.array([0.5])
        dens = sum(
            pi[0, j] * math.exp(-((z[0] - mu[0, j]) ** 2) / (2 * sigma[0, j] ** 2))
            / math.sqrt(2 * math.pi * sigma[0, j] ** 2)
            for j in range(2)
        )
        assert mdn_loss(MdnOutput(pi, mu, sigma), z) == pytest.approx(-math.log(dens), abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        out = MdnOutput(np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            mdn_loss(out, np.zeros(1))

    def test_mass_moves_to_best_component(self):
        # For a single sample the NLL is minimized by putting all mixture
        # mass on the best-fitting component, and interpolating toward that
        # vertex decreases the loss monotonically.
        rng = rng_stream(6, "mdn-opt")
        n, k = 2, 3
        mu = rng.normal(size=(n, k))
        sigma = rng.uniform(0.5, 1.5, size=(n, k))
        z = rng.normal(size=n)
        dens = np.exp(-((z[:, None] - mu) ** 2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
        best = np.zeros((n, k))
        best[np.arange(n), np.argmax(dens, axis=1)] = 1.0
        l_best = mdn_loss(MdnOutput(best, mu, sigma), z)
        for _ in range(20):
            pi0 = rng.dirichlet(np.ones(k), size=n)
            assert l_best <= mdn_loss(MdnOutput(pi0, mu, sigma), z) + 1e-12
        pi0 = rng.dirichlet(np.ones(k), size=n)
        losses = [
            mdn_loss(MdnOutput((1 - t) * pi0 + t * best, mu, sigma), z)
            for t in np.linspace(0, 1, 11)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTransitionLoss:
    def _pred(self, n=3, k=2, r_hat=0.0, d_hat=0.5, at_mean=None):
        pi = np.full((n, k), 1.0 / k)
        mu = np.zeros((n, k))
        sigma = np.ones((n, k))
        if at_mean is not None:
            mu = np.tile(at_mean[:, None], (1, k))
        return Prediction(MdnOutput(pi, mu, sigma), r_hat, d_hat)

    def test_reward_term_vanishes_with_zero_weight(self):
        z = np.zeros(3)
        pred = self._pred(at_mean=z, r_hat=123.0)
        total, parts = transition_loss(pred, (z, 0.0, 0.0), alpha_r=0.0, alpha_d=0.0)
        assert parts["lr"] == pytest.approx(123.0**2)
        assert total == pytest.approx(parts["lz"])

    def test_cross_entropy_at_half(self):
        z = np.zeros(3)
        pred = self._pred(at_mean=z, d_hat=0.5)
        total, parts = transition_loss(pred, (z, 0.0, 1.0), alpha_r=1.0, alpha_d=1.0)
        assert parts["ld"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert total == pytest.approx(parts["lz"] + math.log(2.0), abs=1e-12)

    def test_unit_square_loss(self):
        z = np.zeros(2)
        pred = self._pred(n=2, at_mean=z, r_hat=0.0)
        _, parts = transition_loss(pred, (z, 1.0, 0.0), alpha_r=1.0, alpha_d=0.0)
        assert parts["lr"] == pytest.approx(1.0)

    def test_extreme_dhat_clamped(self):
        z = np.zeros(1)
        pred = self._pred(n=1, at_mean=z, d_hat=1.0)
        total, parts = transition_loss(pred, (z, 0.0, 0.0), alpha_r=0.0, alpha_d=1.0)
        assert math.isfinite(total) and parts["ld"] == pytest.approx(-math.log(1e-7))

    def test_bad_done_target_rejected(self):
        pred = self._pred()
        with pytest.raises(ValueError):
            transition_loss(pred, (np.zeros(3), 0.0, 0.5), 1.0, 1.0)


class TestSampleTransition:
    def test_one_hot_component_always_selected(self):
        n, k = 3, 4
        pi = np.zeros((n, k))
        pi[:, 2] = 1.0
        mu = np.arange(n * k, dtype=float).reshape(n, k)
        sigma = np.full((n, k), 1e-9)
        pred = Prediction(MdnOutput(pi, mu, sigma), 0.0, 0.5)
        rng = rng_stream(7, "sample")
        for _ in range(100):
            z, _, _ = sample_transition(pred, rng)
            np.testing.assert_allclose(z, mu[:, 2], atol=1e-6)

    def test_vanishing_variance_returns_mean(self):
        pred = Prediction(
            MdnOutput(np.array([[1.0]]), np.array([[4.2]]), np.array([[1e-9]])), 1.0, 0.5
        )
        z, r, _ = sample_transition(pred, rng_stream(8, "sample2"))
        assert abs(z[0] - 4.2) < 1e-6
        assert r == 1.0

    def test_component_frequencies_chi_square(self):
        pi = np.array([[0.3, 0.7]])
        pred = Prediction(MdnOutput(pi, np.array([[0.0, 100.0]]), np.array([[0.1, 0.1]])), 0.0, 0.5)
        rng = rng_stream(9, "chi2")
        draws = 100_000
        hits = np.zeros(2)
        for _ in range(draws):
            z, _, _ = sample_transition(pred, rng)
            hits[int(z[0] > 50.0)] += 1
        expected = np.array([0.3, 0.7]) * draws
        chi2 = float(np.sum((hits - expected) ** 2 / expected))
        assert chi2 < 6.6349  # 99% critical value, 1 dof

    def test_done_frequency_matches_dhat(self):
        pred = Prediction(MdnOutput(np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), 0.0, 0.25)
        rng = rng_stream(10, "done-freq")
        freq = np.mean([sample_transition(pred, rng)[2] for _ in range(20_000)])
        assert freq == pytest.approx(0.25, abs=0.01)


def full_loss_gradcheck_instance(seed, p_train, n=4, k=3, d=8, action_dim=2, T=5, B=2):
    """One random joint-loss instance: the training step's flat gradient and
    the finite differences of its loss over theta."""
    rng = rng_stream(seed, "gradcheck")
    params = make_params(seed, n=n, k=k, d=d, action_dim=action_dim)
    r_dim = params.input_dim
    xs = rng.normal(size=(T, B, r_dim))
    z_t = rng.normal(size=(T, B, n))
    r_t = rng.normal(size=(T, B))
    d_t = (rng.random((T, B)) < 0.3).astype(float)
    u = rng.random((B, mask_uniform_count(p_train, r_dim, d)))
    sx, sh = masks_from_uniforms(u, p_train, r_dim, d, params.action_input_dims)
    alpha_r, alpha_d = 0.7, 1.3
    batch = (xs.transpose(1, 0, 2), z_t.transpose(1, 0, 2), r_t.T, d_t.T, (sx, sh), alpha_r, alpha_d)

    def loss_of(theta):
        metrics, _ = _batch_loss_and_grads(WorldModelParams(theta, n, k, d, action_dim), *batch)
        return metrics["loss"]

    _, analytic = _batch_loss_and_grads(params, *batch)
    numeric = finite_diff_grad(loss_of, params.theta)
    return analytic, numeric


def gradcheck_ok(analytic, numeric, rtol=1e-4, atol=1e-8):
    err = np.abs(analytic - numeric)
    tol = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    return bool(np.all(err <= tol))


class TestJointGradients:
    @pytest.mark.parametrize("p_train", [0.0, 0.05, 0.5])
    def test_full_loss_gradient_matches_oracle(self, p_train):
        analytic, numeric = full_loss_gradcheck_instance(100, p_train)
        assert gradcheck_ok(analytic, numeric)

    def test_batch_loss_matches_per_transition_sum(self):
        # The batched loss equals summing transition_loss over time and
        # averaging over sequences.
        params = make_params(11)
        rng = rng_stream(11, "agree")
        T, B = 4, 3
        xs = rng.normal(size=(T, B, params.input_dim))
        z_t = rng.normal(size=(T, B, params.n))
        r_t = rng.normal(size=(T, B))
        d_t = (rng.random((T, B)) < 0.5).astype(float)
        hs, _ = lstm_forward(params.lstm, xs)
        metrics, _, _ = transition_loss_batch(params, hs, z_t, r_t, d_t, 0.7, 1.3)
        per_sequence = np.zeros(B)
        for b in range(B):
            for t in range(T):
                pred = heads_forward(params, hs[t, b])
                total, _ = transition_loss(pred, (z_t[t, b], r_t[t, b], d_t[t, b]), 0.7, 1.3)
                per_sequence[b] += total
        assert metrics["loss"] == pytest.approx(per_sequence.sum() / B, rel=1e-12)
        assert metrics["per_sequence"] == pytest.approx(per_sequence, rel=1e-12)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = make_params(12)
        params.meta.update({"p_train": 0.05, "alpha_r": 1.0, "alpha_d": 1.0})
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        loaded = load_model(path)
        for (name_a, a), (name_b, b) in zip(params.param_items(), loaded.param_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        assert loaded.meta["p_train"] == 0.05
        assert (loaded.n, loaded.k, loaded.action_dim) == (params.n, params.k, params.action_dim)

    def test_version_mismatch_refused(self, tmp_path):
        params = make_params(13)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        raw = path.read_bytes()
        head, rest = raw.split(b"\n", 1)
        head = head.replace(b'"version":1', b'"version":99')
        path.write_bytes(head + b"\n" + rest)
        with pytest.raises(storage.VersionError):
            load_model(path)

    def test_truncated_refused(self, tmp_path):
        params = make_params(14)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(storage.CorruptFileError):
            load_model(path)

    def test_trailing_garbage_refused(self, tmp_path):
        params = make_params(15)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        with open(path, "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(storage.CorruptFileError):
            load_model(path)

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "other.ckpt"
        storage.write_container(path, "controller", 1, {}, {"w": np.zeros(3)})
        with pytest.raises(storage.VersionError):
            load_model(path)

    def test_saved_bytes_pinned(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        save_model(WorldModelParams.init(3, 2, 4, 1, rng_stream(0, "golden-model")), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays: arrays.pop("w_reward"),
            lambda arrays: arrays.update(w_mdn=arrays["w_mdn"].T),  # same size, wrong shape
            lambda arrays: arrays.update(b_done=np.zeros(2)),
        ],
        ids=["missing", "transposed", "resized"],
    )
    def test_layout_mismatch_refused(self, tmp_path, edit):
        params = make_params(16)
        arrays = dict(params.param_items())
        edit(arrays)
        header = {"n": params.n, "k": params.k, "hidden_dim": params.hidden_dim, "action_dim": params.action_dim}
        path = tmp_path / "model.ckpt"
        storage.write_container(path, "world-model", 1, header, arrays)
        with pytest.raises(storage.CorruptFileError):
            load_model(path)


class TestLayout:
    def test_views_share_theta_in_layout_order(self):
        params = make_params(17)
        items = params.param_items()
        assert [(name, a.shape) for name, a in items] == params.layout
        assert all(np.shares_memory(a, params.theta) for _, a in items)
        assert np.array_equal(np.concatenate([a.ravel() for _, a in items]), params.theta)
        params.w_done[:] = 0.25  # w_done sits just before the one-entry b_done
        assert np.all(params.theta[-params.hidden_dim - 1 : -1] == 0.25)

    def test_copy_shares_nothing(self):
        params = make_params(18)
        twin = params.copy()
        assert np.array_equal(twin.theta, params.theta)
        assert not any(np.shares_memory(a, params.theta) for _, a in twin.param_items())
        twin.theta += 1.0
        assert not np.array_equal(twin.w_mdn, params.w_mdn)

    def test_bad_theta_rejected(self):
        params = make_params(20)
        with pytest.raises(ValueError):
            WorldModelParams(params.theta[:-1], params.n, params.k, params.hidden_dim, params.action_dim)
        bad = params.theta.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            WorldModelParams(bad, params.n, params.k, params.hidden_dim, params.action_dim)
