import numpy as np
import pytest

from dreamrand.numerics import (
    gaussian_logpdf,
    global_norm,
    log_sum_exp,
    rng_stream,
    sigmoid,
)


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_overflow_safe_shift(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)

    def test_single_element_identity(self):
        assert log_sum_exp([-3.7]) == pytest.approx(-3.7, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_shift_invariance(self):
        rng = rng_stream(7, "lse")
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 12))
            c = float(rng.normal() * 100)
            lhs = log_sum_exp(v + c)
            rhs = log_sum_exp(v) + c
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_axis_reduction_matches_scalar(self):
        rng = rng_stream(8, "lse-axis")
        m = rng.normal(size=(5, 4))
        rows = log_sum_exp(m, axis=1)
        for i in range(5):
            assert rows[i] == pytest.approx(log_sum_exp(m[i]), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
    def test_axis_equals_max_shift_form_bit_for_bit(self, k, axis):
        # The reference is the max-shift form over v.max(axis); the running
        # maximum must give the same values, infinities and nans included.
        rng = rng_stream(9, "lse-bits", k)
        shape = [7, 5, 6]
        shape[axis] = k
        v = rng.normal(size=shape) * rng.choice([0.1, 10.0, 1000.0], size=shape)
        flat = v.reshape(-1)
        picks = rng.choice(flat.size, size=min(flat.size, 40), replace=False)
        flat[picks] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0], size=picks.size)
        with np.errstate(invalid="ignore"):
            m = v.max(axis=axis, keepdims=True)
            want = (np.log(np.exp(v - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis=axis)
            got = log_sum_exp(v, axis=axis)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bits, so signed zeros and nans count


class TestGaussianLogpdf:
    def test_standard_normal_at_mean(self):
        assert gaussian_logpdf(0.0, 0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_unit_deviation(self):
        assert gaussian_logpdf(1.0, 0.0, 1.0) == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_scale_shift(self):
        expected = -0.9189385332046727 - np.log(2.0)
        assert gaussian_logpdf(0.0, 0.0, 2.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            gaussian_logpdf(0.0, 0.0, sigma)

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (2.5, 0.3), (-1.0, 4.0)])
    def test_integrates_to_one(self, mu, sigma):
        xs = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 200_001)
        density = np.exp(gaussian_logpdf(xs, mu, sigma))
        assert np.trapezoid(density, xs) == pytest.approx(1.0, abs=1e-6)


class TestRngStream:
    def test_equal_seeds_equal_streams(self):
        a = rng_stream(123, "x", 4).random(1_000_000)
        b = rng_stream(123, "x", 4).random(1_000_000)
        assert np.array_equal(a, b)

    def test_distinct_ids_diverge(self):
        a = rng_stream(123, "x", 0).random(64)
        b = rng_stream(123, "x", 1).random(64)
        c = rng_stream(123, "y", 0).random(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_and_int_ids(self):
        assert rng_stream(0, "collect").random() != rng_stream(0, "train").random()

    def test_bad_ids_rejected(self):
        with pytest.raises(TypeError):
            rng_stream(0, 1.5)
        with pytest.raises(ValueError):
            rng_stream(0, -1)


class TestSmallHelpers:
    def test_sigmoid_stable_and_correct(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(800.0) == pytest.approx(1.0)
        assert sigmoid(-800.0) == pytest.approx(0.0)
        x = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_sigmoid_equals_branch_form_bit_for_bit(self):
        # The branch form where(x >= 0, 1, t) / (1 + t), t = exp(-|x|), is
        # the reference: sigmoid must reproduce it exactly, extremes included.
        x = np.concatenate([
            rng_stream(6, "sigmoid").normal(size=20_000) * np.repeat([0.1, 1.0, 10.0, 100.0], 5_000),
            [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 800.0, -800.0, np.inf, -np.inf, np.nan],
        ])
        t = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, t) / (1.0 + t)
        assert np.array_equal(sigmoid(x), want, equal_nan=True)
        assert sigmoid(-3.0) == np.exp(-3.0) / (1.0 + np.exp(-3.0))
        assert isinstance(sigmoid(0.25), float)

    def test_global_norm(self):
        assert global_norm([np.array([3.0]), np.array([4.0])]) == pytest.approx(5.0)
