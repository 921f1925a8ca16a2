import copy

import numpy as np
import pytest

from dreamrand import storage
from dreamrand.controller import (
    CmaEs,
    ControllerParams,
    FeatureSpec,
    LeaderBoard,
    LeaderBoardEntry,
    act,
    cma_minimize,
    evaluate_real,
    load_controller,
    save_controller,
)
from dreamrand.envs import DodgeWorld
from dreamrand.lstm import lstm_step
from dreamrand.numerics import rng_stream
from dreamrand.world_model import WorldModelParams


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def make_controller(seed, action_dim=1, feature_dim=5, features=FeatureSpec.ZH):
    rng = rng_stream(seed, "controller")
    return ControllerParams(rng.normal(size=(action_dim, feature_dim)), rng.normal(size=action_dim), features)


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
        res = cma_minimize(f, x0, sigma0=0.5, max_evals=budget, ftarget=1e-10, seed=0)
        assert res.f <= 1e-10
        assert res.evaluations <= budget
        assert f(res.x) == res.f

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

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        storage.write_container(path, "world-model", 1, {}, {"w": np.zeros((1, 5)), "b": np.zeros(1)})
        with pytest.raises(storage.VersionError):
            load_controller(path)


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

    def test_act(self):
        ctrl = make_controller(4, feature_dim=5)
        with pytest.raises(ValueError):
            act(ctrl, np.zeros(3), np.zeros(3))
        zhc = make_controller(4, feature_dim=7, features=FeatureSpec.ZHC)
        with pytest.raises(ValueError):
            act(zhc, np.zeros(3), np.zeros(2))
        assert act(zhc, np.zeros(3), np.zeros(2), np.zeros(2)).shape == (1,)


class RecordingDodge(DodgeWorld):
    """DodgeWorld that records every action it is stepped with. The list is a
    class attribute, so the deep copies evaluate_real makes share it."""

    actions: list = []

    def step(self, action, rng):
        RecordingDodge.actions.append(np.array(action))
        return super().step(action, rng)


class TestEvaluateReal:
    def _setup(self, features):
        env = RecordingDodge(n_hazards=1, max_ep_len=60)
        model = WorldModelParams.init(env.state_dim, 2, 6, env.action_dim, rng_stream(5, "real-model"))
        feature_dim = features.feature_dim(model.n, model.hidden_dim)
        return env, model, make_controller(6, feature_dim=feature_dim, features=features)

    @pytest.mark.parametrize("features", [FeatureSpec.ZH, FeatureSpec.ZHC])
    def test_matches_hand_stepped_episodes(self, features):
        # Returns and every action taken must match, so the features fed to
        # act (z, h, and c for ZHC) are checked, not only episode outcomes.
        env, model, ctrl = self._setup(features)
        RecordingDodge.actions = []
        res = evaluate_real(ctrl, env, model, n_episodes=3, seed=7)
        got_actions, RecordingDodge.actions = RecordingDodge.actions, []
        want = []
        for ep in range(3):
            rng = rng_stream(7, "real", ep)
            env_ep = copy.deepcopy(env)
            z = env_ep.reset(rng)
            h = c = np.zeros((1, model.hidden_dim))
            total, done = 0.0, False
            while not done:
                a = act(ctrl, z, h[0], c[0] if features is FeatureSpec.ZHC else None)
                z_next, r, done = env_ep.step(a, rng)
                h, c = lstm_step(model.lstm, np.concatenate([z, a])[None], h, c)
                z = z_next
                total += r
            want.append(total)
        assert np.array_equal(res.returns, want)
        assert res.mean == np.mean(want) and res.std == np.std(want)
        assert len(got_actions) == len(RecordingDodge.actions)
        assert all(np.array_equal(g, w) for g, w in zip(got_actions, RecordingDodge.actions))

    def test_mismatched_dimensions_rejected(self):
        env, model, ctrl = self._setup(FeatureSpec.ZH)
        with pytest.raises(ValueError):
            evaluate_real(make_controller(8, feature_dim=4), env, model, 1, 0)
        with pytest.raises(ValueError):
            evaluate_real(ctrl, DodgeWorld(n_hazards=2), model, 1, 0)
