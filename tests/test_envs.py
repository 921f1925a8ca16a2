import json

import numpy as np
import pytest

from dreamrand import storage
from dreamrand.envs import (
    DATASET_VERSION,
    Dataset,
    DodgeWorld,
    EpisodeDoneError,
    TrackWorld,
    Trajectory,
    collect_trajectories,
    expert_policy,
    load_dataset,
    make_env,
    random_policy,
    save_dataset,
)
from dreamrand.numerics import rng_stream


def rollout(env, policy, rng):
    z = env.reset(rng)
    total, steps, done = 0.0, 0, False
    while not done:
        z, r, done = env.step(policy(z, rng), rng)
        total += r
        steps += 1
    return total, steps


class TestDodgeWorld:
    def test_no_hazards_full_survival(self):
        env = DodgeWorld(n_hazards=0, max_ep_len=2100)
        total, steps = rollout(env, lambda z, rng: np.zeros(1), rng_stream(1, "dodge"))
        assert total == 2100.0 and steps == 2100

    def test_reward_is_one_per_step(self):
        env = DodgeWorld()
        rng = rng_stream(2, "dodge")
        total, steps = rollout(env, random_policy(1), rng)
        assert total == float(steps)

    def test_step_after_done_rejected(self):
        env = DodgeWorld(n_hazards=0, max_ep_len=3)
        rng = rng_stream(3, "dodge")
        env.reset(rng)
        for _ in range(3):
            env.step(np.zeros(1), rng)
        with pytest.raises(EpisodeDoneError):
            env.step(np.zeros(1), rng)

    def test_action_clamped(self):
        env = DodgeWorld(n_hazards=0, noise_std=0.0)
        rng = rng_stream(4, "dodge")
        env.reset(rng)
        z, _, _ = env.step(np.array([100.0]), rng)
        assert z[0] == pytest.approx(env.agent_speed)


class TestTrackWorld:
    def test_exact_200_step_finish_returns_80(self):
        # Flat noise-free track at saturated speed: one tile per 10 steps,
        # all 20 tiles in exactly 200 steps.
        env = TrackWorld(noise_std=0.0, curve_amp=0.0, accel=1.0, drag=0.0, v_max=1.0, progress_scale=0.005)
        rng = rng_stream(5, "track")
        total, steps = rollout(env, lambda z, rng: np.array([0.0, 1.0]), rng)
        assert steps == 200
        assert total == pytest.approx(80.0, abs=1e-9)

    def test_idle_agent_returns_minus_100(self):
        env = TrackWorld(noise_std=0.0)
        rng = rng_stream(6, "track")
        total, steps = rollout(env, lambda z, rng: np.zeros(2), rng)
        assert steps == 1000
        assert total == pytest.approx(-100.0)

    def test_return_identity_with_finish_time(self):
        # Whenever all tiles are crossed, the bookkeeping forces
        # return == 100 - 0.1 * episode_length.
        env = TrackWorld()
        rng = rng_stream(7, "track")
        total, steps = rollout(env, expert_policy(env), rng)
        assert steps < env.max_ep_len
        assert total == pytest.approx(100.0 - 0.1 * steps, abs=1e-9)

    def test_step_after_done_rejected(self):
        env = TrackWorld(max_ep_len=2, noise_std=0.0)
        rng = rng_stream(8, "track")
        env.reset(rng)
        env.step(np.zeros(2), rng)
        env.step(np.zeros(2), rng)
        with pytest.raises(EpisodeDoneError):
            env.step(np.zeros(2), rng)

    def test_make_env(self):
        assert isinstance(make_env("track", n_tiles=5), TrackWorld)
        assert isinstance(make_env("dodge"), DodgeWorld)
        with pytest.raises(ValueError):
            make_env("nope")


class TestExpertGap:
    @pytest.mark.parametrize("name", ["dodge", "track"])
    def test_expert_beats_random_by_wide_margin(self, name):
        env = make_env(name)
        rng_r = rng_stream(9, "gap", "random", name)
        rng_e = rng_stream(9, "gap", "expert", name)
        episodes = 100
        random_returns = [rollout(env, random_policy(env.action_dim), r)[0] for r in rng_r.spawn(episodes)]
        expert_returns = [rollout(env, expert_policy(env), r)[0] for r in rng_e.spawn(episodes)]
        random_mean = float(np.mean(random_returns))
        expert_mean = float(np.mean(expert_returns))
        assert expert_mean >= 5.0 * random_mean
        assert expert_mean >= random_mean + 50.0


class TestCollection:
    def test_counts_and_termination_pattern(self):
        env = DodgeWorld(max_ep_len=60)
        ds = collect_trajectories(env, random_policy(1), 12, 0.0, rng_stream(10, "collect"))
        assert len(ds.trajectories) == 12
        for traj in ds.trajectories:
            assert traj.d[-1] and not traj.d[:-1].any()
            assert traj.steps <= 60
            assert traj.z.shape == (traj.steps + 1, env.state_dim)

    def test_deterministic_rerun(self):
        env = TrackWorld(max_ep_len=50)
        a = collect_trajectories(env, expert_policy(env), 5, 0.9, rng_stream(11, "collect"))
        b = collect_trajectories(env, expert_policy(env), 5, 0.9, rng_stream(11, "collect"))
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.z, tb.z) and np.array_equal(ta.a, tb.a)
            assert np.array_equal(ta.r, tb.r) and np.array_equal(ta.d, tb.d)

    def test_pure_random_never_calls_expert(self):
        env = DodgeWorld(max_ep_len=30)

        def exploding(z, rng):
            raise AssertionError("expert must not be called at mix prob 0")

        collect_trajectories(env, exploding, 3, 0.0, rng_stream(12, "collect"))

    def test_mixture_probability_respected(self):
        env = DodgeWorld(max_ep_len=200, n_hazards=0)
        marker = np.array([1.0])
        calls = {"expert": 0, "total": 0}

        def counting(z, rng):
            calls["expert"] += 1
            return marker

        ds = collect_trajectories(env, counting, 10, 0.9, rng_stream(13, "collect"))
        calls["total"] = sum(t.steps for t in ds.trajectories)
        assert calls["expert"] / calls["total"] == pytest.approx(0.9, abs=0.03)

    def test_bad_args_rejected(self):
        env = DodgeWorld()
        with pytest.raises(ValueError):
            collect_trajectories(env, random_policy(1), 0, 0.0, rng_stream(0))
        with pytest.raises(ValueError):
            collect_trajectories(env, random_policy(1), 1, 1.5, rng_stream(0))


class TestDatasetIO:
    def _dataset(self, seed=14, count=6):
        env = DodgeWorld(max_ep_len=40)
        return collect_trajectories(env, random_policy(1), count, 0.0, rng_stream(seed, "ds"))

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.dataset"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded.trajectories) == len(ds.trajectories)
        assert loaded.env_name == ds.env_name
        assert np.array_equal(loaded.train_idx, ds.train_idx)
        for ta, tb in zip(ds.trajectories, loaded.trajectories):
            assert np.array_equal(ta.z, tb.z)
            assert np.array_equal(ta.a, tb.a)
            assert np.array_equal(ta.r, tb.r)
            assert np.array_equal(ta.d, tb.d)
        # byte-identical on re-save
        path2 = tmp_path / "again.dataset"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.dataset"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(storage.CorruptFileError):
            load_dataset(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.dataset"
        save_dataset(ds, path)
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head.replace(b'"version":2', b'"version":7') + b"\n" + rest)
        with pytest.raises(storage.VersionError):
            load_dataset(path)

    def test_version_1_file_rejected(self, tmp_path):
        # A file in the retired per-trajectory format (version 1): JSON header
        # line, then a uint64 step count and the z, a, r, d bytes per trajectory.
        traj = self._dataset(count=1).trajectories[0]
        head = {"container": "dataset", "version": 1, "env": "dodge", "n": traj.n, "action_dim": 1, "count": 1}
        path = tmp_path / "v1.dataset"
        path.write_bytes(
            json.dumps(head).encode() + b"\n" + np.int64(traj.steps).tobytes()
            + traj.z.tobytes() + traj.a.tobytes() + traj.r.tobytes() + traj.d.astype(np.uint8).tobytes()
        )
        with pytest.raises(storage.VersionError):
            load_dataset(path)

    @pytest.mark.parametrize("change", [1, -1])
    def test_step_counts_disagreeing_with_blocks_rejected(self, tmp_path, change):
        ds = self._dataset()
        path = tmp_path / "data.dataset"
        save_dataset(ds, path)
        header, arrays = storage.read_container(path, "dataset", DATASET_VERSION)
        arrays["steps"][-1] += change
        storage.write_container(path, "dataset", DATASET_VERSION, header, arrays)
        with pytest.raises(storage.CorruptFileError, match="step counts"):
            load_dataset(path)

    def test_empty_dataset_roundtrips(self, tmp_path):
        ds = Dataset([], np.array([], dtype=np.int64), np.array([], dtype=np.int64), "dodge")
        path = tmp_path / "empty.dataset"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.trajectories == []

    def test_merge_splits(self):
        train = self._dataset(seed=15, count=4)
        test = self._dataset(seed=16, count=2)
        merged = Dataset.from_splits(train, test)
        assert len(merged.train_trajectories()) == 4
        assert len(merged.test_trajectories()) == 2
        assert merged.starts().shape == (4, train.n)

    def test_overlapping_split_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError):
            Dataset(ds.trajectories, np.array([0, 1]), np.array([1, 2]), "dodge")


class TestTrajectoryValidation:
    def test_done_pattern_enforced(self):
        z = np.zeros((4, 2))
        a = np.zeros((3, 1))
        r = np.zeros(3)
        with pytest.raises(ValueError):
            Trajectory(z, a, r, np.array([False, False, False]))
        with pytest.raises(ValueError):
            Trajectory(z, a, r, np.array([True, False, True]))

    def test_nonfinite_rejected(self):
        z = np.zeros((3, 2))
        z[1, 0] = np.inf
        with pytest.raises(ValueError):
            Trajectory(z, np.zeros((2, 1)), np.zeros(2), np.array([False, True]))
