import json

import numpy as np
import pytest

from dreamrand.dream import (
    DreamConfig,
    DreamDoneError,
    DreamEnv,
    RandomizationPolicy,
    mask_hash,
    rollout_batch,
    write_trace,
)
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


def run_episode(env, rng, action=None):
    z, h = env.reset(rng)
    total, steps, done = 0.0, 0, False
    while not done:
        a = np.zeros(env.action_dim) if action is None else action
        z, r, done, h = env.step(a, rng)
        total += r
        steps += 1
    return total, steps


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
        env = DreamEnv(cfg_for(make_model()), STARTS)
        _, h = env.reset(rng_stream(1, "reset"))
        assert np.all(h == 0.0)
        assert np.all(env.state.c == 0.0)

    def test_dataset_starts_membership(self):
        starts = rng_stream(3, "starts").normal(size=(7, 3))
        env = DreamEnv(cfg_for(make_model()), starts)
        rng = rng_stream(4, "starts-draw")
        for _ in range(50):
            z, _ = env.reset(rng)
            assert any(np.array_equal(z, s) for s in starts)

    def test_dataset_starts_empty_pool_rejected(self):
        # Refused when the dream is built, not at its first reset.
        for empty in (np.zeros((0, 3)), []):
            with pytest.raises(ValueError, match="starts"):
                DreamEnv(cfg_for(make_model()), empty)

    def test_dataset_starts_integer_pool_as_float(self):
        starts = np.arange(6).reshape(2, 3)
        env = DreamEnv(cfg_for(make_model()), starts)
        assert env.starts.dtype == np.float64
        z, _ = env.reset(rng_stream(5, "int-starts"))
        assert z.dtype == np.float64
        assert any(np.array_equal(z, s) for s in starts)

    def test_step_after_done_rejected(self):
        env = DreamEnv(cfg_for(make_model(done_logit=50.0)), STARTS)
        rng = rng_stream(6, "done")
        env.reset(rng)
        _, _, done, _ = env.step(np.zeros(2), rng)
        assert done
        with pytest.raises(DreamDoneError):
            env.step(np.zeros(2), rng)

    def test_episode_never_exceeds_max_len(self):
        env = DreamEnv(cfg_for(make_model(done_logit=-50.0), max_ep_len=17), STARTS)
        rng = rng_stream(7, "maxlen")
        _, steps = run_episode(env, rng)
        assert steps == 17
        assert env.state.truncated

    def test_termination_frequency_matches_dhat(self):
        env = DreamEnv(cfg_for(make_model(done_logit=0.0), max_ep_len=10_000, p_infer=0.0, policy="off"), STARTS)
        rng = rng_stream(8, "bern")
        lengths = []
        for _ in range(200):
            env.reset(rng)
            done = False
            t = 0
            while not done:
                _, _, done, _ = env.step(np.zeros(2), rng)
                t += 1
            lengths.append(t)
        # done head at logit 0 -> per-step termination probability 1/2
        assert np.mean(lengths) == pytest.approx(2.0, abs=0.25)

    def test_off_policy_matches_maskfree_rollout(self):
        model = make_model(9)
        env_off = DreamEnv(cfg_for(model, p_infer=0.0, policy="off"), STARTS)
        env_step = DreamEnv(cfg_for(model, p_infer=0.0, policy="step"), STARTS)
        a = np.array([0.3, -0.2])
        r1 = []
        rng = rng_stream(10, "off")
        z, _ = env_off.reset(rng)
        for _ in range(5):
            out = env_off.step(a, rng)
            r1.append(out)
            if out[2]:
                break
        rng = rng_stream(10, "off")
        z2, _ = env_step.reset(rng)
        assert np.array_equal(z, z2)
        for want in r1:
            got = env_step.step(a, rng)
            assert np.array_equal(want[0], got[0]) and want[1] == got[1] and want[2] == got[2]

    def test_mask_counting_by_policy(self):
        model = make_model(11, done_logit=-50.0)
        for policy, expected in (("off", 0), ("episode", 1), ("step", 20)):
            env = DreamEnv(cfg_for(model, p_infer=0.1, policy=policy, max_ep_len=20), STARTS)
            rng = rng_stream(12, "count", policy)
            run_episode(env, rng)
            assert env.masks_sampled == expected

    def test_disjoint_mask_sequences_across_seeds(self):
        model = make_model(13, done_logit=-50.0)
        collisions = 0
        for pair in range(100):
            seqs = []
            for side in range(2):
                env = DreamEnv(cfg_for(model, p_infer=0.1, policy="step", max_ep_len=8), STARTS)
                env.start_trace()
                run_episode(env, rng_stream(14, "disjoint", pair, side))
                seqs.append(tuple(rec["mask"] for rec in env.trace))
            collisions += seqs[0] == seqs[1]
        assert collisions == 0

    def test_transition_is_pure(self):
        import copy

        model = make_model(15)
        env = DreamEnv(cfg_for(model, p_infer=0.2, policy="step"), STARTS)
        env.reset(rng_stream(16, "pure"))
        snapshot = copy.deepcopy(env.state)
        out1 = env.step(np.array([0.1, 0.2]), rng_stream(17, "pure-step"))
        env.state = snapshot
        out2 = env.step(np.array([0.1, 0.2]), rng_stream(17, "pure-step"))
        assert np.array_equal(out1[0], out2[0]) and out1[1:3] == out2[1:3]


class TestMcStep:
    @pytest.mark.parametrize("mc", [1, 4, 10])
    def test_identity_with_step_at_p_zero(self, mc):
        model = make_model(20)
        a = np.array([0.5, -0.5])
        env_plain = DreamEnv(cfg_for(model, p_infer=0.0, policy="step"), STARTS)
        env_mc = DreamEnv(cfg_for(model, p_infer=0.0, policy="step", mc_samples=mc), STARTS)
        rng1, rng2 = rng_stream(21, "mc"), rng_stream(21, "mc")
        z1, _ = env_plain.reset(rng1)
        z2, _ = env_mc.reset(rng2)
        assert np.array_equal(z1, z2)
        for _ in range(5):
            o1 = env_plain.step(a, rng1)
            o2 = env_mc.step(a, rng2)
            assert np.array_equal(o1[0], o2[0])
            assert o1[1] == o2[1] and o1[2] == o2[2]
            assert np.array_equal(o1[3], o2[3])
            if o1[2]:
                break

    def test_dhat_variance_shrinks_with_samples(self):
        model = make_model(24, done_logit=0.0)
        model.w_done[:] = rng_stream(24, "wd").normal(size=model.hidden_dim)
        a = np.array([0.2, 0.1])
        variances = {}
        for mc in (1, 4, 16):
            cfg = cfg_for(model, p_infer=0.2, mc_samples=mc, max_ep_len=3)
            vals = []
            for rep in range(600):
                env = DreamEnv(cfg, STARTS)
                env.start_trace()
                env.reset(rng_stream(25, "mc-var", "reset"))  # same start every rep
                env.step(a, rng_stream(25, "mc-var", mc, rep))
                vals.append(env.trace[-1]["d_hat"])
            variances[mc] = float(np.var(vals))
        for mc in (4, 16):
            ratio = variances[1] / (variances[mc] * mc)
            assert 1.0 / 1.5 <= ratio <= 1.5


class TestVariants:
    def test_identical_ensemble_members_match_single_model(self):
        model = make_model(30)
        twin = model.copy()
        a = np.array([0.1, -0.1])
        env_single = DreamEnv(cfg_for(model, p_infer=0.0, policy="step"), STARTS)
        env_pair = DreamEnv(cfg_for(model, ensemble=[model, twin], p_infer=0.0, policy="step"), STARTS)
        rng1, rng2 = rng_stream(31, "ens"), rng_stream(31, "ens")
        z1 = env_single.reset(rng1)[0]
        z2 = env_pair.reset(rng2)[0]
        # the ensemble env consumes one extra draw (member index), so align manually
        assert np.array_equal(z1, z2)

    def test_distinct_ensemble_members_give_different_rollouts(self):
        m1, m2 = make_model(32, done_logit=-50.0), make_model(33, done_logit=-50.0)
        cfg_e = cfg_for(m1, ensemble=[m1, m2], p_infer=0.0, policy="step", max_ep_len=10)
        cfg_s = cfg_for(m1, p_infer=0.0, policy="off", max_ep_len=10)
        a = np.array([0.4, 0.4])
        env_e, env_s = DreamEnv(cfg_e, STARTS), DreamEnv(cfg_s, STARTS)
        env_e.reset(rng_stream(34, "ens2"))
        env_s.reset(rng_stream(34, "ens2"))
        ze = [env_e.step(a, rng_stream(35, "e", t))[0] for t in range(5)]
        zs = [env_s.step(a, rng_stream(35, "e", t))[0] for t in range(5)]
        assert not all(np.allclose(x, y) for x, y in zip(ze, zs))

    def test_noise_sigma_zero_identical_to_plain(self):
        model = make_model(36)
        a = np.array([0.0, 0.0])
        env_a = DreamEnv(cfg_for(model, p_infer=0.0, policy="off", noise_sigma=0.0), STARTS)
        env_b = DreamEnv(cfg_for(model, p_infer=0.0, policy="off"), STARTS)
        r1, r2 = rng_stream(37, "noise"), rng_stream(37, "noise")
        env_a.reset(r1)
        env_b.reset(r2)
        for _ in range(4):
            o1, o2 = env_a.step(a, r1), env_b.step(a, r2)
            assert np.array_equal(o1[0], o2[0])
            if o1[2] or o2[2]:
                break

    @pytest.mark.parametrize("sigma", [1.0, 0.1])
    def test_noise_std_measured(self, sigma):
        # Paired single steps from identical streams: the latent difference
        # between the noisy and plain variant is exactly the injected noise.
        model = make_model(38, done_logit=-50.0)
        cfg_noisy = cfg_for(model, p_infer=0.0, policy="off", noise_sigma=sigma, max_ep_len=10)
        cfg_plain = cfg_for(model, p_infer=0.0, policy="off", max_ep_len=10)
        a = np.array([0.1, 0.1])
        deltas = []
        for rep in range(4000):
            noisy, plain = DreamEnv(cfg_noisy, STARTS), DreamEnv(cfg_plain, STARTS)
            noisy.reset(rng_stream(39, "noise-std", rep))
            plain.reset(rng_stream(39, "noise-std", rep))
            z_noisy = noisy.step(a, rng_stream(39, "noise-step", rep))[0]
            z_plain = plain.step(a, rng_stream(39, "noise-step", rep))[0]
            deltas.append(z_noisy - z_plain)
        measured = float(np.std(np.concatenate(deltas)))
        assert abs(measured - sigma) / sigma < 0.05


class TestTrace:
    def test_trace_records_and_writes(self, tmp_path):
        env = DreamEnv(cfg_for(make_model(40, done_logit=-50.0), p_infer=0.1, policy="step", max_ep_len=6), STARTS)
        env.start_trace()
        rng = rng_stream(41, "trace")
        run_episode(env, rng, action=np.array([0.1, 0.2]))
        assert len(env.trace) == 6
        rec = env.trace[0]
        assert set(rec) >= {"t", "z_hat", "action", "r_hat", "d_hat", "mask"}
        assert rec["mask"] is not None and len(rec["mask"]) == 12
        path = tmp_path / "trace.jsonl"
        write_trace(env.trace, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[0])["t"] == 1


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
        model = make_model(51)
        kw = dict(kw)
        members = kw.pop("members", 1)
        if members > 1:
            kw["ensemble"] = [model] + [make_model(60 + i) for i in range(members - 1)]
        cfg = cfg_for(model, max_ep_len=12, **kw)
        L = 4
        f_dim = model.n + model.hidden_dim
        W, b = self._lane_setup(model, L, f_dim)
        out = rollout_batch(cfg, W, b, [rng_stream(52, "lane", i) for i in range(L)], STARTS)
        for lane in range(L):
            env = DreamEnv(cfg_for(model, max_ep_len=12, **kw), STARTS)
            rng = rng_stream(52, "lane", lane)
            z, h = env.reset(rng)
            total, steps, done = 0.0, 0, False
            c = env.state.c
            while not done:
                feats = np.concatenate([z, h])
                a = np.tanh(W[lane] @ feats + b[lane])
                z, r, done, h = env.step(a, rng)
                total += r
                steps += 1
            assert steps == out["steps"][lane]
            assert total == pytest.approx(out["returns"][lane], abs=1e-9)

    def test_repeatable(self):
        model = make_model(53)
        cfg = cfg_for(model, max_ep_len=10, p_infer=0.1, policy="step")
        L = 6
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        a = rollout_batch(cfg, W, b, [rng_stream(54, "r", i) for i in range(L)], STARTS)
        b_ = rollout_batch(cfg, W, b, [rng_stream(54, "r", i) for i in range(L)], STARTS)
        assert np.array_equal(a["returns"], b_["returns"])
        assert a["masks_sampled"] == b_["masks_sampled"]

    def test_mask_accounting(self):
        model = make_model(55, done_logit=-50.0)  # no early termination
        L = 5
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        lanes = lambda: [rng_stream(56, "acct", i) for i in range(L)]
        step_out = rollout_batch(cfg_for(model, p_infer=0.1, policy="step", max_ep_len=9), W, b, lanes(), STARTS)
        assert step_out["masks_sampled"] == int(step_out["steps"].sum()) == L * 9
        ep_out = rollout_batch(cfg_for(model, p_infer=0.1, policy="episode", max_ep_len=9), W, b, lanes(), STARTS)
        assert ep_out["masks_sampled"] == L
        off_out = rollout_batch(cfg_for(model, p_infer=0.0, policy="off", max_ep_len=9), W, b, lanes(), STARTS)
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
        # At p_infer = 0 no mask is drawn, so none is counted, in the batch
        # and in the one-lane view alike.
        kw = dict(kw)
        model = make_model(55, done_logit=-50.0)
        if kw.pop("members", 1) > 1:
            kw["ensemble"] = [model, make_model(56, done_logit=-50.0)]
        cfg = cfg_for(model, p_infer=0.0, max_ep_len=9, **kw)
        L = 4
        W, b = self._lane_setup(model, L, model.n + model.hidden_dim)
        out = rollout_batch(cfg, W, b, [rng_stream(57, "p0", i) for i in range(L)], STARTS)
        assert int(out["steps"].sum()) == L * 9
        assert out["masks_sampled"] == 0
        env = DreamEnv(cfg, STARTS)
        run_episode(env, rng_stream(57, "p0-env"))
        assert env.state.t == 9
        assert env.masks_sampled == 0

    def test_include_c_changes_features(self):
        model = make_model(57, done_logit=-50.0)
        cfg = cfg_for(model, p_infer=0.0, policy="off", max_ep_len=8)
        L = 3
        f_zh = model.n + model.hidden_dim
        f_zhc = model.n + 2 * model.hidden_dim
        rngs = lambda: [rng_stream(58, "c", i) for i in range(L)]
        rng = rng_stream(59, "wc")
        W = rng.normal(size=(L, model.action_dim, f_zhc)) * 0.3
        b = rng.normal(size=(L, model.action_dim)) * 0.1
        out_zhc = rollout_batch(cfg, W, b, rngs(), STARTS, include_c=True)
        out_zh = rollout_batch(cfg, W[:, :, :f_zh], b, rngs(), STARTS, include_c=False)
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
        got = rollout_batch(cfg, W, b, got_rngs, STARTS, include_c=include_c)
        for key in ("returns", "steps", "truncated"):
            assert np.array_equal(got[key], want[key]), key
        assert got["masks_sampled"] == want["masks_sampled"]
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
        full = rollout_batch(cfg, W, b, [rng_stream(81, "subset", i) for i in range(L)], STARTS)
        subset = np.array([1, 4, 5, 10])
        part = rollout_batch(cfg, W[subset], b[subset], [rng_stream(81, "subset", i) for i in subset], STARTS)
        assert np.array_equal(part["steps"], full["steps"][subset])
        assert np.allclose(part["returns"], full["returns"][subset], rtol=0.0, atol=1e-9)
        for lane in subset:
            alone = rollout_batch(cfg, W[lane : lane + 1], b[lane : lane + 1], [rng_stream(81, "subset", lane)], STARTS)
            assert alone["steps"][0] == full["steps"][lane]
            assert alone["returns"][0] == pytest.approx(full["returns"][lane], rel=0.0, abs=1e-9)

    def test_lane_order_is_irrelevant(self):
        model = make_model(82, done_logit=-2.0)
        cfg = cfg_for(model, p_infer=0.1, policy="step", max_ep_len=30)
        L = 8
        W, b = _controllers(model, L)
        perm = rng_stream(83, "perm").permutation(L)
        out = rollout_batch(cfg, W, b, [rng_stream(84, "order", i) for i in range(L)], STARTS)
        shuffled = rollout_batch(cfg, W[perm], b[perm], [rng_stream(84, "order", i) for i in perm], STARTS)
        assert np.array_equal(shuffled["steps"], out["steps"][perm])
        assert np.allclose(shuffled["returns"], out["returns"][perm], rtol=0.0, atol=1e-9)


class TestRolloutBoundaries:
    def _args(self, L=3, include_c=False):
        model = make_model(90)
        W, b = _controllers(model, L, include_c)
        return model, W, b, [rng_stream(91, "bounds", i) for i in range(L)]

    def test_controller_w_with_extra_lanes_rejected(self):
        model, W, b, rngs = self._args()
        W_big, _ = _controllers(model, 4)
        with pytest.raises(ValueError, match="controller_w"):
            rollout_batch(cfg_for(model), W_big, b, rngs, STARTS)

    def test_controller_w_feature_width_rejected(self):
        model, W, b, rngs = self._args()
        with pytest.raises(ValueError, match="controller_w"):
            rollout_batch(cfg_for(model), W[:, :, :-1], b, rngs, STARTS)

    def test_controller_w_without_c_rejected_when_include_c(self):
        model, W, b, rngs = self._args()
        with pytest.raises(ValueError, match="controller_w"):
            rollout_batch(cfg_for(model), W, b, rngs, STARTS, include_c=True)

    def test_controller_b_shape_rejected(self):
        model, W, b, rngs = self._args()
        with pytest.raises(ValueError, match="controller_b"):
            rollout_batch(cfg_for(model), W, b[:, :1], rngs, STARTS)

    def test_no_lanes_rejected(self):
        model, W, b, _ = self._args()
        with pytest.raises(ValueError, match="lane"):
            rollout_batch(cfg_for(model), W[:0], b[:0], [], STARTS)

    @pytest.mark.parametrize("shape", [(5,), (5, 4), (2, 5, 3), (0, 3)])
    def test_starts_shape_rejected(self, shape):
        # An empty or misshapen start pool is refused by the batch and by
        # the one-lane view alike.
        model, W, b, rngs = self._args()
        starts = np.zeros(shape)
        with pytest.raises(ValueError, match="starts"):
            rollout_batch(cfg_for(model), W, b, rngs, starts)
        with pytest.raises(ValueError, match="starts"):
            DreamEnv(cfg_for(model), starts)
