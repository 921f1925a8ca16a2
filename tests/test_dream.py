from types import SimpleNamespace

import numpy as np
import pytest

from dreamrand.controller import FeatureSpec, linear_policy
from dreamrand.dream import (
    DreamConfig,
    _dream_step,
    _mask_plan,
    _reset_draws,
    _step_draws,
    rollout_batch,
    run_lanes,
)
from dreamrand.lstm import masks_from_uniforms
from dreamrand.numerics import rng_stream
from dreamrand.world_model import WorldModelParams
from reference_rollout import reference_rollout_batch

# The start pool every dream in this module draws its initial latents from.
STARTS = rng_stream(73, "starts").normal(size=(5, 3))


def make_model(seed=0, n=3, k=2, d=10, action_dim=2, done_logit=None, p_train=0.05):
    params = WorldModelParams.init(n, k, d, action_dim, rng_stream(seed, "dream-model"))
    params.meta["p_train"] = p_train
    if done_logit is not None:
        params.w_done[:] = 0.0
        params.b_done[:] = done_logit
    return params


def cfg_for(model, **kw):
    kw.setdefault("max_ep_len", 50)
    ensemble = kw.pop("ensemble", [model])
    return DreamConfig(ensemble, **kw)


def lane_rngs(*ids, count):
    return [rng_stream(*ids, lane) for lane in range(count)]


def constant_policy(a):
    """A policy under which every lane plays action a."""
    a = np.asarray(a, dtype=np.float64)
    return lambda lanes, Z, H, C: np.tile(a, (len(lanes), 1))


def one_step(cfg, rngs, Z, a):
    """One dream step per lane from zero hidden and cell states, latent Z and
    action a, with each lane's draws and Step-drawn masks made as
    ``rollout_batch`` makes them. Returns ``_dream_step``'s outputs and the
    masks."""
    per_set, _, sets, mask_args = _mask_plan(cfg)
    A, m_u, d = len(rngs), sets * per_set, cfg.model.hidden_dim
    member = np.zeros(A, dtype=np.int64)
    U, E, D, N = _step_draws(cfg, rngs, member, m_u)
    SX, SH = masks_from_uniforms(U[:, :m_u].reshape(A * sets, per_set), *mask_args) if sets else (None, None)
    X = np.concatenate([Z, np.tile(a, (A, 1))], axis=1)
    return _dream_step(cfg, X, np.zeros((A, d)), np.zeros((A, d)), member, SX, SH, U[:, m_u:], E, D, N), (SX, SH)


def assert_same_episodes(got, want):
    for key in ("returns", "steps", "truncated"):
        assert np.array_equal(got[key], want[key]), key
    assert got["masks_sampled"] == want["masks_sampled"]


class TestConfigValidation:
    def test_variant_exclusivity(self):
        m = make_model()
        with pytest.raises(ValueError):
            cfg_for(m, mc_samples=4, noise_sigma=0.1, p_infer=0.0, policy="off")
        with pytest.raises(ValueError):
            cfg_for(m, ensemble=[m, make_model(1)], mc_samples=4, p_infer=0.0, policy="step")

    def test_noisy_requires_maskfree(self):
        m = make_model()
        with pytest.raises(ValueError):
            cfg_for(m, noise_sigma=0.1, p_infer=0.1, policy="off")
        cfg = cfg_for(m, noise_sigma=0.1, p_infer=0.0, policy="off")
        assert cfg.noise_sigma == 0.1

    def test_ensemble_requires_cadence(self):
        m1, m2 = make_model(1), make_model(2)
        with pytest.raises(ValueError):
            cfg_for(m1, ensemble=[m1, m2], p_infer=0.0, policy="off")
        with pytest.raises(ValueError):
            cfg_for(m1, ensemble=[m1, m2], p_infer=0.1, policy="step")

    def test_mismatched_ensemble_rejected(self):
        m1 = make_model(1)
        m2 = make_model(2, d=6)
        with pytest.raises(ValueError):
            cfg_for(m1, ensemble=[m1, m2], p_infer=0.0, policy="step")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            cfg_for(make_model(), p_infer=1.0)


class TestResetAndStep:
    def test_reset_returns_zero_hidden(self):
        # A one-step episode returns the reward of a step taken from zero
        # hidden and cell states.
        model = make_model(1)
        cfg = cfg_for(model, max_ep_len=1, p_infer=0.1, policy="step")
        policy = constant_policy([0.3, -0.2])
        out = rollout_batch(cfg, policy, lane_rngs(1, "reset", count=6), STARTS)
        rngs = lane_rngs(1, "reset", count=6)
        Z, _, _ = _reset_draws(cfg, rngs, STARTS, 0)
        (_, _, _, r_hat, _, _), _ = one_step(cfg, rngs, Z, [0.3, -0.2])
        assert np.array_equal(out["returns"], r_hat)

    def test_dataset_starts_membership(self):
        starts = rng_stream(3, "starts").normal(size=(7, 3))
        Z, _, _ = _reset_draws(cfg_for(make_model()), lane_rngs(4, "starts-draw", count=50), starts, 0)
        assert all(any(np.array_equal(z, s) for s in starts) for z in Z)

    def test_dataset_starts_integer_pool_as_float(self):
        # An integer pool runs as its float64 copy.
        model = make_model()
        cfg = cfg_for(model)
        policy = constant_policy([0.3, -0.2])
        starts = np.arange(6).reshape(2, 3)
        got = rollout_batch(cfg, policy, lane_rngs(5, "int-starts", count=6), starts)
        want = rollout_batch(cfg, policy, lane_rngs(5, "int-starts", count=6), starts.astype(np.float64))
        assert_same_episodes(got, want)

    def test_dataset_starts_empty_pool_rejected(self):
        model = make_model()
        policy = constant_policy([0.0, 0.0])
        for empty in (np.zeros((0, 3)), []):
            with pytest.raises(ValueError, match="starts"):
                rollout_batch(cfg_for(model), policy, lane_rngs(2, "empty", count=2), empty)

    def test_no_step_after_done(self):
        # A lane that ends stops drawing: each lane consumes its reset draw
        # and one step's draws, and nothing more.
        model = make_model(done_logit=50.0)
        cfg = cfg_for(model, p_infer=0.0, policy="off")
        policy = constant_policy([0.0, 0.0])
        rngs = lane_rngs(6, "done", count=4)
        out = rollout_batch(cfg, policy, rngs, STARTS)
        assert np.all(out["steps"] == 1) and not out["truncated"].any()
        want = lane_rngs(6, "done", count=4)
        _reset_draws(cfg, want, STARTS, 0)
        _step_draws(cfg, want, np.zeros(4, dtype=np.int64), 0)
        assert [g.random() for g in rngs] == [g.random() for g in want]

    def test_episode_never_exceeds_max_len(self):
        model = make_model(done_logit=-50.0)
        policy = constant_policy([0.0, 0.0])
        out = rollout_batch(cfg_for(model, max_ep_len=17), policy, lane_rngs(7, "maxlen", count=4), STARTS)
        assert np.all(out["steps"] == 17)
        assert out["truncated"].all()

    def test_termination_frequency_matches_dhat(self):
        model = make_model(done_logit=0.0)
        cfg = cfg_for(model, max_ep_len=10_000, p_infer=0.0, policy="off")
        policy = constant_policy([0.0, 0.0])
        out = rollout_batch(cfg, policy, lane_rngs(8, "bern", count=400), STARTS)
        # done head at logit 0 -> per-step termination probability 1/2
        assert np.mean(out["steps"]) == pytest.approx(2.0, abs=0.25)

    def test_off_policy_matches_maskfree_rollout(self):
        model = make_model(9)
        policy = constant_policy([0.3, -0.2])
        off = rollout_batch(cfg_for(model, p_infer=0.0, policy="off"), policy, lane_rngs(10, "off", count=8), STARTS)
        step = rollout_batch(cfg_for(model, p_infer=0.0, policy="step"), policy, lane_rngs(10, "off", count=8), STARTS)
        assert_same_episodes(step, off)

    def test_mask_counting_by_policy(self):
        model = make_model(11, done_logit=-50.0)
        policy = constant_policy([0.0, 0.0])
        for masks, expected in (("off", 0), ("episode", 1), ("step", 20)):
            cfg = cfg_for(model, p_infer=0.1, policy=masks, max_ep_len=20)
            out = rollout_batch(cfg, policy, [rng_stream(12, "count", masks)], STARTS)
            assert out["masks_sampled"] == expected

    def test_disjoint_mask_sequences_across_seeds(self):
        # Every stream draws its own sequence of Step masks over 8 steps.
        cfg = cfg_for(make_model(13), p_infer=0.1, policy="step")
        rngs = [rng_stream(14, "disjoint", pair, side) for pair in range(100) for side in range(2)]
        Z = np.tile(STARTS[0], (len(rngs), 1))
        kept = []
        for _ in range(8):
            _, (SX, SH) = one_step(cfg, rngs, Z, [0.0, 0.0])
            kept.append(np.concatenate([SX.reshape(len(rngs), -1), SH.reshape(len(rngs), -1)], axis=1) != 0)
        seqs = {np.packbits(np.concatenate(kept, axis=1)[lane]).tobytes() for lane in range(len(rngs))}
        assert len(seqs) == len(rngs)


    def test_transition_is_pure(self):
        # _dream_step leaves its inputs as they were, so the same inputs
        # give the same step.
        model = make_model(15)
        cfg = cfg_for(model, p_infer=0.2, policy="step")
        per_set, _, sets, mask_args = _mask_plan(cfg)
        A, d = 4, model.hidden_dim
        rng = rng_stream(16, "pure")
        member = np.zeros(A, dtype=np.int64)
        U, E, D, N = _step_draws(cfg, lane_rngs(17, "pure-step", count=A), member, sets * per_set)
        SX, SH = masks_from_uniforms(U[:, : sets * per_set], *mask_args)
        args = (np.concatenate([STARTS[:A], np.full((A, 2), 0.1)], axis=1), rng.normal(size=(A, d)),
                rng.normal(size=(A, d)), member, SX, SH, U[:, sets * per_set:], E, D, N)
        before = [None if a is None else a.copy() for a in args]
        out1 = _dream_step(cfg, *args)
        for a, want in zip(args, before):
            assert (a is None and want is None) or np.array_equal(a, want)
        out2 = _dream_step(cfg, *args)
        for x, y in zip(out1, out2):
            assert np.array_equal(x, y)


class TestMcStep:
    @pytest.mark.parametrize("mc", [1, 4, 10])
    def test_identity_with_step_at_p_zero(self, mc):
        model = make_model(20)
        policy = constant_policy([0.5, -0.5])
        plain = rollout_batch(cfg_for(model, p_infer=0.0, policy="step"), policy, lane_rngs(21, "mc", count=8), STARTS)
        cfg_mc = cfg_for(model, p_infer=0.0, policy="step", mc_samples=mc)
        assert_same_episodes(rollout_batch(cfg_mc, policy, lane_rngs(21, "mc", count=8), STARTS), plain)

    def test_dhat_variance_shrinks_with_samples(self):
        model = make_model(24, done_logit=0.0)
        model.w_done[:] = rng_stream(24, "wd").normal(size=model.hidden_dim)
        Z = np.tile(STARTS[0], (600, 1))  # same start every rep
        variances = {}
        for mc in (1, 4, 16):
            cfg = cfg_for(model, p_infer=0.2, mc_samples=mc, max_ep_len=3)
            (_, _, _, _, d_hat, _), _ = one_step(cfg, lane_rngs(25, "mc-var", mc, count=600), Z, [0.2, 0.1])
            variances[mc] = float(np.var(d_hat))
        for mc in (4, 16):
            ratio = variances[1] / (variances[mc] * mc)
            assert 1.0 / 1.5 <= ratio <= 1.5


class TestVariants:
    def test_identical_ensemble_members_match_single_model(self):
        # The ensemble consumes one extra draw per step (the member index);
        # past it, twin members step as the single model does, up to the
        # rounding of matmuls over each member's rows.
        model = make_model(30)
        pair = cfg_for(model, ensemble=[model, model.copy()], p_infer=0.0, policy="step")
        single = cfg_for(model, p_infer=0.0, policy="step")
        rngs_pair, rngs_single = lane_rngs(31, "ens", count=32), lane_rngs(31, "ens", count=32)
        members = [rng.integers(2) for rng in rngs_single]
        assert 0 < sum(members) < len(members)
        Z = STARTS[np.arange(32) % len(STARTS)]
        (*got, ended_pair), _ = one_step(pair, rngs_pair, Z, [0.1, -0.1])
        (*want, ended_single), _ = one_step(single, rngs_single, Z, [0.1, -0.1])
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)
        assert np.array_equal(ended_pair, ended_single)

    def test_distinct_ensemble_members_give_different_rollouts(self):
        m1, m2 = make_model(32, done_logit=-50.0), make_model(33, done_logit=-50.0)
        cfg_e = cfg_for(m1, ensemble=[m1, m2], p_infer=0.0, policy="step", max_ep_len=10)
        cfg_s = cfg_for(m1, p_infer=0.0, policy="off", max_ep_len=10)
        policy = constant_policy([0.4, 0.4])
        out_e = rollout_batch(cfg_e, policy, lane_rngs(34, "ens2", count=8), STARTS)
        out_s = rollout_batch(cfg_s, policy, lane_rngs(34, "ens2", count=8), STARTS)
        assert not np.allclose(out_e["returns"], out_s["returns"])

    def test_noise_sigma_zero_identical_to_plain(self):
        model = make_model(36)
        policy = constant_policy([0.0, 0.0])
        cfg_zero = cfg_for(model, p_infer=0.0, policy="off", noise_sigma=0.0)
        zero = rollout_batch(cfg_zero, policy, lane_rngs(37, "noise", count=8), STARTS)
        plain = rollout_batch(cfg_for(model, p_infer=0.0, policy="off"), policy, lane_rngs(37, "noise", count=8), STARTS)
        assert_same_episodes(zero, plain)

    @pytest.mark.parametrize("sigma", [1.0, 0.1])
    def test_noise_std_measured(self, sigma):
        # Paired single steps from identical streams: the latent difference
        # between the noisy and plain variant is exactly the injected noise.
        model = make_model(38, done_logit=-50.0)
        cfg_noisy = cfg_for(model, p_infer=0.0, policy="off", noise_sigma=sigma, max_ep_len=10)
        cfg_plain = cfg_for(model, p_infer=0.0, policy="off", max_ep_len=10)
        Z, _, _ = _reset_draws(cfg_plain, lane_rngs(39, "noise-std", count=4000), STARTS, 0)
        (_, _, z_noisy, *_), _ = one_step(cfg_noisy, lane_rngs(39, "noise-step", count=4000), Z, [0.1, 0.1])
        (_, _, z_plain, *_), _ = one_step(cfg_plain, lane_rngs(39, "noise-step", count=4000), Z, [0.1, 0.1])
        measured = float(np.std(z_noisy - z_plain))
        assert abs(measured - sigma) / sigma < 0.05


class TestBatchedRollout:
    def _lane_setup(self, model, L, f_dim):
        rng = rng_stream(50, "lanes")
        W = rng.normal(size=(L, model.action_dim, f_dim)) * 0.3
        b = rng.normal(size=(L, model.action_dim)) * 0.1
        return W, b

    @pytest.mark.parametrize(
        "kw",
        [
            {"p_infer": 0.1, "policy": "step"},
            {"p_infer": 0.1, "policy": "episode"},
            {"p_infer": 0.0, "policy": "off"},
            {"p_infer": 0.2, "mc_samples": 3},
            {"p_infer": 0.0, "policy": "off", "noise_sigma": 0.3},
            {"p_infer": 0.0, "policy": "step", "members": 3},
            {"p_infer": 0.0, "policy": "episode", "members": 3},
            {"p_infer": 0.2, "mc_samples": 1},
        ],
    )
    def test_matches_single_env_rollouts(self, kw):
        # Each lane of a batch plays the episode that the same lane plays
        # alone in a one-lane batch: same steps, returns equal up to matmul
        # rounding.
        model = make_model(51)
        kw = dict(kw)
        members = kw.pop("members", 1)
        if members > 1:
            kw["ensemble"] = [model] + [make_model(60 + i) for i in range(members - 1)]
        cfg = cfg_for(model, max_ep_len=12, **kw)
        L = 4
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        out = rollout_batch(cfg, linear_policy(W, b), [rng_stream(52, "lane", i) for i in range(L)], STARTS)
        for lane in range(L):
            alone_policy = linear_policy(W[lane : lane + 1], b[lane : lane + 1])
            alone = rollout_batch(cfg, alone_policy, [rng_stream(52, "lane", lane)], STARTS)
            assert alone["steps"][0] == out["steps"][lane]
            assert alone["truncated"][0] == out["truncated"][lane]
            assert alone["returns"][0] == pytest.approx(out["returns"][lane], abs=1e-9)

    def test_repeatable(self):
        model = make_model(53)
        cfg = cfg_for(model, max_ep_len=10, p_infer=0.1, policy="step")
        L = 6
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        a = rollout_batch(cfg, linear_policy(W, b), [rng_stream(54, "r", i) for i in range(L)], STARTS)
        b_ = rollout_batch(cfg, linear_policy(W, b), [rng_stream(54, "r", i) for i in range(L)], STARTS)
        assert_same_episodes(a, b_)

    def test_mask_accounting(self):
        model = make_model(55, done_logit=-50.0)  # no early termination
        L = 5
        policy = linear_policy(*self._lane_setup(model, L, model.n + model.hidden_dim))
        lanes = lambda: [rng_stream(56, "acct", i) for i in range(L)]
        step_out = rollout_batch(cfg_for(model, p_infer=0.1, policy="step", max_ep_len=9), policy, lanes(), STARTS)
        assert step_out["masks_sampled"] == int(step_out["steps"].sum()) == L * 9
        ep_out = rollout_batch(cfg_for(model, p_infer=0.1, policy="episode", max_ep_len=9), policy, lanes(), STARTS)
        assert ep_out["masks_sampled"] == L
        for p in (0.0, 0.1):
            off_out = rollout_batch(cfg_for(model, p_infer=p, policy="off", max_ep_len=9), policy, lanes(), STARTS)
            assert off_out["masks_sampled"] == 0

    @pytest.mark.parametrize(
        "kw",
        [
            {"policy": "step"},
            {"policy": "episode"},
            {"policy": "step", "members": 2},
            {"policy": "episode", "members": 2},
            {"policy": "step", "mc_samples": 3},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_no_masks_counted_at_p_zero(self, kw):
        # At p_infer = 0 no mask is drawn, so none is counted.
        kw = dict(kw)
        model = make_model(55, done_logit=-50.0)
        if kw.pop("members", 1) > 1:
            kw["ensemble"] = [model, make_model(56, done_logit=-50.0)]
        cfg = cfg_for(model, p_infer=0.0, max_ep_len=9, **kw)
        L = 4
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        out = rollout_batch(cfg, linear_policy(W, b), [rng_stream(57, "p0", i) for i in range(L)], STARTS)
        assert int(out["steps"].sum()) == L * 9
        assert out["masks_sampled"] == 0

    def test_cell_state_feature_changes_returns(self):
        model = make_model(57, done_logit=-50.0)
        cfg = cfg_for(model, p_infer=0.0, policy="off", max_ep_len=8)
        L = 3
        f_zh = model.n + model.hidden_dim
        f_zhc = model.n + 2 * model.hidden_dim
        rngs = lambda: [rng_stream(58, "c", i) for i in range(L)]
        rng = rng_stream(59, "wc")
        W = rng.normal(size=(L, model.action_dim, f_zhc)) * 0.3
        b = rng.normal(size=(L, model.action_dim)) * 0.1
        out_zhc = rollout_batch(cfg, linear_policy(W, b, FeatureSpec.ZHC), rngs(), STARTS)
        out_zh = rollout_batch(cfg, linear_policy(W[:, :, :f_zh], b), rngs(), STARTS)
        assert not np.allclose(out_zhc["returns"], out_zh["returns"])


def _controllers(model, L, include_c=False, seed=70):
    f_dim = model.n + (2 if include_c else 1) * model.hidden_dim
    rng = rng_stream(seed, "controllers", L)
    return rng.normal(size=(L, model.action_dim, f_dim)) * 0.5, rng.normal(size=(L, model.action_dim)) * 0.2


class TestReferenceOracle:
    """The vectorised rollout against the per-lane reference loop: equal
    returns, steps, truncation, mask counts and generator end states."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"p_infer": 0.1, "policy": "step"},
            {"p_infer": 0.1, "policy": "episode"},
            {"p_infer": 0.0, "policy": "off"},
            {"p_infer": 0.2, "mc_samples": 3},
            {"p_infer": 0.2, "mc_samples": 1},
            {"p_infer": 0.0, "policy": "off", "noise_sigma": 0.3},
            {"p_infer": 0.0, "policy": "step", "members": 2},
            {"p_infer": 0.0, "policy": "step", "members": 3},
            {"p_infer": 0.0, "policy": "episode", "members": 3},
            {"p_infer": 0.1, "policy": "step", "include_c": True},
            {"p_infer": 0.1, "policy": "episode", "include_c": True},
            {"p_infer": 0.2, "mc_samples": 3, "include_c": True},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    @pytest.mark.parametrize("L,max_ep_len,done_logit", [(1, 9, None), (24, 40, -1.5), (40, 6, -50.0)])
    def test_bit_identical_to_reference(self, kw, L, max_ep_len, done_logit):
        kw = dict(kw)
        include_c = kw.pop("include_c", False)
        members = kw.pop("members", 1)
        model = make_model(71, done_logit=done_logit)
        if members > 1:
            kw["ensemble"] = [model] + [make_model(72 + i, done_logit=done_logit) for i in range(members - 1)]
        cfg = cfg_for(model, max_ep_len=max_ep_len, **kw)
        W, b = _controllers(model, L, include_c)
        want_rngs = [rng_stream(74, "oracle", i) for i in range(L)]
        got_rngs = [rng_stream(74, "oracle", i) for i in range(L)]
        want = reference_rollout_batch(cfg, W, b, want_rngs, STARTS, include_c=include_c)
        features = FeatureSpec.ZHC if include_c else FeatureSpec.ZH
        got = rollout_batch(cfg, linear_policy(W, b, features), got_rngs, STARTS)
        assert_same_episodes(got, want)
        assert [g.random() for g in got_rngs] == [g.random() for g in want_rngs]
        if done_logit == -50.0:  # no episode ends early, so every lane truncates
            assert got["truncated"].all() and np.all(got["steps"] == max_ep_len)


class TestBatchProperties:
    @pytest.mark.parametrize(
        "kw", [{"p_infer": 0.1, "policy": "step"}, {"p_infer": 0.2, "mc_samples": 3}, {"p_infer": 0.1, "policy": "episode"}]
    )
    def test_lane_subset_matches_full_batch(self, kw):
        # Draws depend only on the lane's own generator, so a lane's episode is
        # the same alone or in company; returns agree up to matmul rounding,
        # which depends on the row count.
        model = make_model(80, done_logit=-2.0)
        cfg = cfg_for(model, max_ep_len=30, **kw)
        L = 12
        W, b = _controllers(model, L)
        full = rollout_batch(cfg, linear_policy(W, b), [rng_stream(81, "subset", i) for i in range(L)], STARTS)
        subset = np.array([1, 4, 5, 10])
        part_policy = linear_policy(W[subset], b[subset])
        part = rollout_batch(cfg, part_policy, [rng_stream(81, "subset", i) for i in subset], STARTS)
        assert np.array_equal(part["steps"], full["steps"][subset])
        assert np.allclose(part["returns"], full["returns"][subset], rtol=0.0, atol=1e-9)
        for lane in subset:
            alone_policy = linear_policy(W[lane : lane + 1], b[lane : lane + 1])
            alone = rollout_batch(cfg, alone_policy, [rng_stream(81, "subset", lane)], STARTS)
            assert alone["steps"][0] == full["steps"][lane]
            assert alone["returns"][0] == pytest.approx(full["returns"][lane], rel=0.0, abs=1e-9)

    def test_lane_order_is_irrelevant(self):
        model = make_model(82, done_logit=-2.0)
        cfg = cfg_for(model, p_infer=0.1, policy="step", max_ep_len=30)
        L = 8
        W, b = _controllers(model, L)
        perm = rng_stream(83, "perm").permutation(L)
        out = rollout_batch(cfg, linear_policy(W, b), [rng_stream(84, "order", i) for i in range(L)], STARTS)
        shuffled_policy = linear_policy(W[perm], b[perm])
        shuffled = rollout_batch(cfg, shuffled_policy, [rng_stream(84, "order", i) for i in perm], STARTS)
        assert np.array_equal(shuffled["steps"], out["steps"][perm])
        assert np.allclose(shuffled["returns"], out["returns"][perm], rtol=0.0, atol=1e-9)


class TestRolloutBoundaries:
    def _args(self, L=3):
        model = make_model(90)
        W, b = _controllers(model, L)
        return model, linear_policy(W, b), [rng_stream(91, "bounds", i) for i in range(L)]

    def test_linear_policy_shapes_rejected(self):
        # Weights and biases that disagree on the lanes or the action width,
        # or weights that are not one matrix per lane, are refused.
        W, b = _controllers(make_model(90), 3)
        for W_bad, b_bad in ((W[:2], b), (W, b[:, :1]), (W[0], b[0]), (W, b[:, :, None])):
            with pytest.raises(ValueError, match="disagree"):
                linear_policy(W_bad, b_bad)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (4, 2), (3, 2, 1)])
    def test_policy_output_shape_rejected(self, shape):
        # A policy must give one action_dim row per active lane.
        model, _, rngs = self._args()
        with pytest.raises(ValueError, match="policy"):
            rollout_batch(cfg_for(model), lambda lanes, Z, H, C: np.zeros(shape), rngs, STARTS)

    def test_no_lanes_rejected(self):
        model, policy, _ = self._args()
        with pytest.raises(ValueError, match="lane"):
            rollout_batch(cfg_for(model), policy, [], STARTS)

    @pytest.mark.parametrize("shape", [(5,), (5, 4), (2, 5, 3), (0, 3), (0,)])
    def test_starts_shape_rejected(self, shape):
        # An empty or misshapen start pool is refused.
        model, policy, rngs = self._args()
        with pytest.raises(ValueError, match="starts"):
            rollout_batch(cfg_for(model), policy, rngs, np.zeros(shape))


class TestRunLanes:
    """``run_lanes`` driven by a scripted transition, with no world model.

    Column 0 of each lane's latent holds its lane index and column 0 of its
    hidden state the steps it has taken, so every call shows which lanes'
    rows it was given and in what order.
    """

    @pytest.mark.parametrize(
        "end_at,max_len",
        [
            ([3, 1, 5, 2, 7, 5], 5),  # lanes 2 and 5 end at the cap, lane 4 is cut
            ([2, 3, 1], 10),  # every lane ends before the cap
            ([4, 4], 1),
        ],
    )
    def test_scripted_lanes(self, end_at, max_len):
        end_at = np.array(end_at)
        L, n, d = len(end_at), 3, 2
        model = SimpleNamespace(hidden_dim=d, action_dim=1)
        taken = np.zeros(L, dtype=np.int64)
        calls = {"policy": [], "transition": []}

        def policy(lanes, Z, H, C):
            calls["policy"].append(lanes.tolist())
            assert np.array_equal(Z[:, 0], lanes)
            assert np.array_equal(H[:, 0], taken[lanes]) and np.array_equal(C, H)
            return 0.5 * Z[:, :1]

        def transition(lanes, X, H, C):
            calls["transition"].append(lanes.tolist())
            assert np.array_equal(X, np.concatenate([X[:, :n], 0.5 * X[:, :1]], axis=1))
            assert np.array_equal(X[:, 0], lanes)
            taken[lanes] += 1
            return H + 1.0, C + 1.0, X[:, :n], lanes + 1.0, taken[lanes] == end_at[lanes]

        Z = np.repeat(np.arange(L, dtype=np.float64)[:, None], n, axis=1)
        returns, steps, truncated = run_lanes(model, policy, transition, Z, max_len)

        want_steps = np.minimum(end_at, max_len)
        want_lanes = [np.flatnonzero(want_steps > t).tolist() for t in range(want_steps.max())]
        assert calls == {"policy": want_lanes, "transition": want_lanes}
        assert np.array_equal(taken, want_steps)
        assert np.array_equal(steps, want_steps)
        assert np.array_equal(truncated, end_at > max_len)
        assert np.array_equal(returns, (np.arange(L) + 1.0) * want_steps)
