import copy

import numpy as np
import pytest

from dreamrand import storage
from dreamrand.controller import (
    CONTROLLER_VERSION,
    CmaConfig,
    CmaEs,
    ControllerParams,
    FeatureSpec,
    LeaderBoard,
    LeaderBoardEntry,
    cma_optimize,
    evaluate_real,
    linear_policy,
    load_controller,
    save_controller,
)
from dreamrand.controller import _stack_controllers  # lane-tiling reference test
from dreamrand.dream import DreamConfig, rollout_batch
from dreamrand.envs import DodgeWorld
from dreamrand.lstm import lstm_step
from dreamrand.numerics import rng_stream
from dreamrand.world_model import WorldModelParams
from reference_rollout import reference_action


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def make_controller(seed, action_dim=1, feature_dim=5, features=FeatureSpec.ZH):
    rng = rng_stream(seed, "controller")
    return ControllerParams(rng.normal(size=(action_dim, feature_dim)), rng.normal(size=action_dim), features)


def cma_minimize(f, x0, budget):
    """Ask/tell CmaEs from x0 (sigma0 0.5, the default population size) until
    the best cost reaches 1e-10 or the budget of evaluations is spent.
    Returns (best x, best cost, evaluations)."""
    es = CmaEs(x0, 0.5, 4 + int(3 * np.log(len(x0))), rng_stream(0, "cma"))
    best_x, best_f, evals = x0, f(x0), 1
    while evals < budget and best_f > 1e-10:
        xs = es.ask()
        costs = [f(x) for x in xs]
        es.tell(xs, costs)
        evals += len(xs)
        i = int(np.argmin(costs))
        if costs[i] < best_f:
            best_x, best_f = xs[i], costs[i]
    return best_x, best_f, evals


class TestCmaMinimize:
    # Known optima: both functions have minimum 0. Seed 0 reached 1e-10 in
    # 1751 evaluations on sphere-10 and 4191 on Rosenbrock-8; the budgets
    # leave about 40% headroom.
    @pytest.mark.parametrize(
        "f,x0,budget",
        [(sphere, np.ones(10), 2500), (rosenbrock, np.zeros(8), 6000)],
        ids=["sphere-10", "rosenbrock-8"],
    )
    def test_reaches_known_optimum_within_budget(self, f, x0, budget):
        x, fx, evals = cma_minimize(f, x0, budget)
        assert fx <= 1e-10
        assert evals <= budget
        assert f(x) == fx

    def test_tell_rejects_bad_dimensions(self):
        es = CmaEs(np.zeros(3), 0.5, 6, rng_stream(1, "cma-test"))
        xs = es.ask()
        with pytest.raises(ValueError):
            es.tell(xs[:, :2], np.zeros(6))
        with pytest.raises(ValueError):
            es.tell(xs, np.zeros(5))
        with pytest.raises(ValueError):
            es.tell(xs[:5], np.zeros(5))


class TestLeaderBoard:
    def test_best_breaks_ties_toward_earliest_generation(self):
        board = LeaderBoard()
        for gen, mean in ((5, 1.0), (10, 3.0), (15, 2.0), (20, 3.0), (25, 3.0)):
            board.append(LeaderBoardEntry(gen, make_controller(gen), mean, 0.1))
        assert board.best().generation == 10

    def test_empty_board_raises(self):
        with pytest.raises(ValueError):
            LeaderBoard().best()


class TestControllerIO:
    @pytest.mark.parametrize("features", [FeatureSpec.ZH, FeatureSpec.ZHC])
    def test_roundtrip_bit_exact(self, tmp_path, features):
        ctrl = make_controller(2, action_dim=2, feature_dim=7, features=features)
        path = tmp_path / "ctrl.bin"
        save_controller(ctrl, path)
        loaded = load_controller(path)
        assert loaded.w.tobytes() == ctrl.w.tobytes() and loaded.b.tobytes() == ctrl.b.tobytes()
        assert loaded.features is features

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ctrl.bin"
        save_controller(make_controller(3), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(storage.CorruptFileError):
            load_controller(path)

    @pytest.mark.parametrize("dims", [(7, 99), (1, 6), (2, 5)])
    def test_header_disagreeing_with_w_rejected(self, tmp_path, dims):
        path = tmp_path / "ctrl.bin"
        save_controller(make_controller(3), path)  # w is (1, 5)
        header, arrays = storage.read_container(path, "controller", CONTROLLER_VERSION)
        header["action_dim"], header["feature_dim"] = dims
        storage.write_container(path, "controller", CONTROLLER_VERSION, header, arrays)
        with pytest.raises(storage.CorruptFileError, match="header says"):
            load_controller(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        storage.write_container(path, "world-model", 1, {}, {"w": np.zeros((1, 5)), "b": np.zeros(1)})
        with pytest.raises(storage.VersionError):
            load_controller(path)


class TestStackControllers:
    def test_matches_member_trial_loop(self):
        # Lane member * n_trials + trial carries the member's (w, b); the
        # reference fills the lanes one at a time.
        action_dim, feature_dim, n_trials = 2, 5, 3
        flats = rng_stream(7, "stack").normal(size=(4, action_dim * (feature_dim + 1)))
        W, B = _stack_controllers(flats, action_dim, feature_dim, n_trials)
        want_w = np.empty((len(flats) * n_trials, action_dim, feature_dim))
        want_b = np.empty((len(flats) * n_trials, action_dim))
        for m, flat in enumerate(flats):
            for t in range(n_trials):
                want_w[m * n_trials + t] = flat[: action_dim * feature_dim].reshape(action_dim, feature_dim)
                want_b[m * n_trials + t] = flat[action_dim * feature_dim :]
        assert np.array_equal(W, want_w) and np.array_equal(B, want_b)


class TestCmaOptimize:
    """``cma_optimize`` on a tiny dream: n_pop = 4, n_trials = 2, two
    generations, a leader-board entry after each."""

    cma_cfg = CmaConfig(n_pop=4, n_trials=2, generations=2, eval_cadence=1, seed=5)

    def _dream(self):
        model = WorldModelParams.init(3, 2, 6, 1, rng_stream(110, "cma-model"))
        model.b_done[:] = -2.0  # episodes of a few steps, some of them truncated
        starts = rng_stream(111, "cma-starts").normal(size=(4, 3))
        return DreamConfig([model], p_infer=0.1, policy="step", max_ep_len=15), starts

    def test_same_seed_same_result(self):
        cfg, starts = self._dream()
        a, b = (cma_optimize(cfg, self.cma_cfg, starts) for _ in range(2))
        assert a.gen_stats == b.gen_stats
        assert [e.generation for e in a.leader_board.entries] == [1, 2]
        for ea, eb in zip(a.leader_board.entries, b.leader_board.entries):
            assert (ea.generation, ea.dream_mean, ea.dream_std) == (eb.generation, eb.dream_mean, eb.dream_std)
            assert np.array_equal(ea.controller.to_flat(), eb.controller.to_flat())
        assert np.array_equal(a.best_controller.to_flat(), b.best_controller.to_flat())

    def test_generation_one_fitness_independent_of_lane_order(self):
        # Generation 1 recomputed by hand: the same population and the same
        # (seed, "dream", gen, member, trial) streams, with the lanes reversed.
        cfg, starts = self._dream()
        res = cma_optimize(cfg, self.cma_cfg, starts)
        model, c = cfg.model, self.cma_cfg
        feature_dim = model.n + model.hidden_dim
        es = CmaEs(np.zeros(model.action_dim * (feature_dim + 1)), c.sigma0, c.n_pop, rng_stream(c.seed, "cma-ask"))
        W, B = _stack_controllers(es.ask(), model.action_dim, feature_dim, c.n_trials)
        lanes = [(m, t) for m in range(c.n_pop) for t in range(c.n_trials)][::-1]
        rngs = [rng_stream(c.seed, "dream", 1, m, t) for m, t in lanes]
        out = rollout_batch(cfg, linear_policy(W[::-1], B[::-1]), rngs, starts)
        fitness = out["returns"][::-1].reshape(c.n_pop, c.n_trials).mean(axis=1)
        stats = res.gen_stats[0]
        assert stats["best_fitness"] == pytest.approx(fitness.max(), rel=0.0, abs=1e-9)
        assert stats["mean_fitness"] == pytest.approx(fitness.mean(), rel=0.0, abs=1e-9)
        assert stats["env_steps"] == int(out["steps"].sum())
        assert stats["masks_sampled"] == out["masks_sampled"]

    def test_empty_start_pool_rejected(self):
        cfg, _ = self._dream()
        with pytest.raises(ValueError, match="starts"):
            cma_optimize(cfg, self.cma_cfg, np.zeros((0, 3)))


class TestBadDimensions:
    def test_controller_params(self):
        with pytest.raises(ValueError):
            ControllerParams(np.zeros(5), np.zeros(1))
        with pytest.raises(ValueError):
            ControllerParams(np.zeros((2, 5)), np.zeros(3))

    def test_from_flat(self):
        with pytest.raises(ValueError):
            ControllerParams.from_flat(np.zeros(11), action_dim=2, feature_dim=5)
        ctrl = ControllerParams.from_flat(np.arange(12.0), action_dim=2, feature_dim=5)
        assert np.array_equal(ctrl.to_flat(), np.arange(12.0))

    def test_linear_policy(self):
        # Features are [z, h], or [z, h, c] under ZHC; a feature width the
        # weights do not have is refused.
        ctrl = make_controller(4, feature_dim=5)
        zh = linear_policy(ctrl.w[None], ctrl.b[None])
        lane, z, h = np.zeros(1, dtype=np.int64), np.zeros((1, 3)), np.zeros((1, 2))
        assert zh(lane, z, h, h).shape == (1, 1)
        with pytest.raises(ValueError):
            zh(lane, z, np.zeros((1, 3)), h)
        zhc = make_controller(4, feature_dim=7, features=FeatureSpec.ZHC)
        zhc_policy = linear_policy(zhc.w[None], zhc.b[None], zhc.features)
        assert zhc_policy(lane, z, h, h).shape == (1, 1)
        with pytest.raises(ValueError):
            linear_policy(zhc.w[None], zhc.b[None])(lane, z, h, h)


class RecordingDodge(DodgeWorld):
    """DodgeWorld that records every (env, action) it is stepped with. The
    list is a class attribute, so the deep copies evaluate_real makes share
    it."""

    steps: list = []

    def step(self, action, rng):
        RecordingDodge.steps.append((self, np.array(action)))
        return super().step(action, rng)


def recorded_actions():
    """Take the recorded steps: (the actions in step order, the actions of
    each env in the order the envs first stepped)."""
    steps, RecordingDodge.steps = RecordingDodge.steps, []
    per_env = {}
    for env, action in steps:
        per_env.setdefault(id(env), []).append(action)
    return [action for _, action in steps], list(per_env.values())


def lockstep_episodes(ctrl, env, model, n_episodes, seed):
    """evaluate_real stepped by hand: each iteration takes the active
    episodes' actions by ``reference_action`` and runs one ``lstm_step``
    over their rows, then steps their envs in episode order."""
    rngs = [rng_stream(seed, "real", ep) for ep in range(n_episodes)]
    envs = [copy.deepcopy(env) for _ in range(n_episodes)]
    Z = np.stack([env_ep.reset(rng) for env_ep, rng in zip(envs, rngs)])
    H = C = np.zeros((n_episodes, model.hidden_dim))
    active = np.arange(n_episodes)
    returns = np.zeros(n_episodes)
    while len(active):
        A = len(active)
        c_feat = C if ctrl.features is FeatureSpec.ZHC else None
        acts = reference_action(np.repeat(ctrl.w[None], A, 0), np.repeat(ctrl.b[None], A, 0), Z, H, c_feat)
        H, C = lstm_step(model.lstm, np.concatenate([Z, acts], axis=1), H, C)
        out = [envs[ep].step(a, rngs[ep]) for ep, a in zip(active, acts)]
        returns[active] += [r for _, r, _ in out]
        keep = np.array([not done for _, _, done in out])
        Z = np.stack([z for z, _, _ in out])[keep]
        active, H, C = active[keep], H[keep], C[keep]
    return returns


def serial_episodes(ctrl, env, model, n_episodes, seed):
    """One episode at a time, each with a one-row ``lstm_step``."""
    returns = []
    for ep in range(n_episodes):
        rng = rng_stream(seed, "real", ep)
        env_ep = copy.deepcopy(env)
        z = env_ep.reset(rng)
        h = c = np.zeros((1, model.hidden_dim))
        total, done = 0.0, False
        while not done:
            c_feat = c if ctrl.features is FeatureSpec.ZHC else None
            a = reference_action(ctrl.w[None], ctrl.b[None], z[None], h, c_feat)[0]
            z_next, r, done = env_ep.step(a, rng)
            h, c = lstm_step(model.lstm, np.concatenate([z, a])[None], h, c)
            z = z_next
            total += r
        returns.append(total)
    return np.array(returns)


class TestEvaluateReal:
    # 16 episodes under the step cap of 60 end at several different steps,
    # so the lockstep loop drops episodes part way through.
    N_EPISODES = 16

    def _setup(self, features):
        env = RecordingDodge(n_hazards=1, max_ep_len=60)
        model = WorldModelParams.init(env.state_dim, 2, 6, env.action_dim, rng_stream(5, "real-model"))
        feature_dim = features.feature_dim(model.n, model.hidden_dim)
        return env, model, make_controller(6, feature_dim=feature_dim, features=features)

    def _evaluate(self, features):
        env, model, ctrl = self._setup(features)
        RecordingDodge.steps = []
        res = evaluate_real(ctrl, env, model, n_episodes=self.N_EPISODES, seed=7)
        return (ctrl, env, model), res, recorded_actions()

    @pytest.mark.parametrize("features", [FeatureSpec.ZH, FeatureSpec.ZHC])
    def test_matches_hand_stepped_episodes(self, features):
        # Returns and every action taken must match the lockstep oracle bit
        # for bit, so the features the controller acts on (z, h, and c for
        # ZHC) are checked, not only episode outcomes.
        setup, res, (got_actions, _) = self._evaluate(features)
        want = lockstep_episodes(*setup, self.N_EPISODES, 7)
        want_actions, _ = recorded_actions()
        assert np.array_equal(res.returns, want)
        assert res.mean == np.mean(want) and res.std == np.std(want)
        assert len(got_actions) == len(want_actions)
        assert all(np.array_equal(g, w) for g, w in zip(got_actions, want_actions))

    @pytest.mark.parametrize("features", [FeatureSpec.ZH, FeatureSpec.ZHC])
    def test_matches_episodes_run_one_at_a_time(self, features):
        # Against one episode at a time, only the cell's rounding differs
        # (its row results depend on the row count), so episode outcomes are
        # equal and actions agree to within that rounding.
        setup, res, (_, got) = self._evaluate(features)
        want = serial_episodes(*setup, self.N_EPISODES, 7)
        _, want_actions = recorded_actions()
        assert np.array_equal(res.returns, want)
        assert [len(g) for g in got] == [len(w) for w in want_actions]
        assert len({len(w) for w in want_actions}) > 1
        for g, w in zip(got, want_actions):
            assert np.allclose(g, w, rtol=0.0, atol=1e-12)

    def test_mismatched_dimensions_rejected(self):
        env, model, ctrl = self._setup(FeatureSpec.ZH)
        with pytest.raises(ValueError):
            evaluate_real(make_controller(8, feature_dim=4), env, model, 1, 0)
        with pytest.raises(ValueError):
            evaluate_real(ctrl, DodgeWorld(n_hazards=2), model, 1, 0)

    @pytest.mark.parametrize("n_episodes", [0, -1])
    def test_no_episodes_rejected(self, n_episodes):
        env, model, ctrl = self._setup(FeatureSpec.ZH)
        with pytest.raises(ValueError, match="n_episodes"):
            evaluate_real(ctrl, env, model, n_episodes, 0)
