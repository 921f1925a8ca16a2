import numpy as np
import pytest

from finite_diff import finite_diff_grad


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), eps=1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant_gives_zeros(self):
        g = finite_diff_grad(lambda v: 4.2, np.zeros(5))
        assert np.all(g == 0.0)

    def test_sum_of_squares(self):
        g = finite_diff_grad(lambda v: float(np.sum(v**2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError), np.errstate(invalid="ignore", divide="ignore"):
            finite_diff_grad(lambda v: float(np.log(v[0])), np.array([0.0]))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), eps=0.0)
