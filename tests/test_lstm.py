import numpy as np
import pytest

from dreamrand.lstm import (
    GATE_I,
    LstmWeights,
    lstm_backward,
    lstm_forward,
    lstm_step,
    mask_uniform_count,
    masks_from_uniforms,
    sample_mask_set,
)
from dreamrand.numerics import finite_diff_grad, pack_arrays, rng_stream, unpack_arrays


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_sequence(weights, xs, masks):
    """Straight-line scalar-loop re-implementation of the masked update,
    independent of the vectorized production code. ``masks[t]`` is the
    step's (sx, sh) pair."""
    d, r = weights.hidden_dim, weights.input_dim
    h = [0.0] * d
    c = [0.0] * d
    out = []
    for t, x in enumerate(xs):
        sx, sh = masks[t]
        pre = np.zeros((4, d))
        for g in range(4):
            for i in range(d):
                acc = weights.b[g][i]
                for j in range(r):
                    acc += weights.w_x[g][i][j] * (x[j] * sx[g][j])
                for j in range(d):
                    acc += weights.w_h[g][i][j] * (h[j] * sh[g][j])
                pre[g][i] = acc
        new_c = [
            _sigmoid(pre[0][i]) * np.tanh(pre[2][i]) + _sigmoid(pre[1][i]) * c[i]
            for i in range(d)
        ]
        new_h = [_sigmoid(pre[3][i]) * np.tanh(new_c[i]) for i in range(d)]
        h, c = new_h, new_c
        out.append((np.array(h), np.array(c)))
    return out


class TestMaskSampling:
    def test_p_zero_gives_no_masks(self):
        assert sample_mask_set(0.0, 6, 9) == (None, None)

    def test_p_zero_consumes_no_draws(self):
        rng_a = rng_stream(3, "mask")
        rng_b = rng_stream(3, "mask")
        sample_mask_set(0.0, 6, 9, rng=rng_a)
        assert rng_a.random() == rng_b.random()

    def test_action_entries_always_kept(self):
        rng = rng_stream(11, "mask-action")
        r = 5
        for _ in range(200):
            sx, _ = sample_mask_set(0.9, r, 4, action_dims={r - 1}, rng=rng)
            assert np.all(sx[:, r - 1] == 1.0)

    def test_drop_fraction_near_p(self):
        rng = rng_stream(12, "mask-frac")
        fracs = []
        for _ in range(100):
            _, sh = sample_mask_set(0.5, 4, 1000, rng=rng)
            fracs.append(float(np.mean(sh[GATE_I] == 0.0)))
        assert 0.47 <= float(np.mean(fracs)) <= 0.53

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_bad_rate_rejected(self, p):
        with pytest.raises(ValueError):
            sample_mask_set(p, 4, 4, rng=rng_stream(0))

    def test_bad_action_dims_rejected(self):
        with pytest.raises(ValueError):
            sample_mask_set(0.1, 4, 4, action_dims={4}, rng=rng_stream(0))

    def test_inverted_scaling(self):
        rng = rng_stream(13, "mask-scale")
        sx, _ = sample_mask_set(0.2, 8, 8, action_dims=(6, 7), rng=rng)
        kept = sx[:, :6] != 0.0
        assert kept.any() and not kept.all()
        np.testing.assert_allclose(sx[:, :6][kept], 1.0 / 0.8)

    def test_scale_rate_override(self):
        rng = rng_stream(14, "mask-rate")
        _, sh = sample_mask_set(0.5, 6, 6, rng=rng, scale_rate=0.0)
        assert set(np.unique(sh)) <= {0.0, 1.0}

    def test_batch_masks_distinct(self):
        # Mask collision between sequences in a batch is vanishingly rare.
        rng = rng_stream(15, "mask-distinct")
        keys = set()
        for _ in range(64):
            sx, sh = sample_mask_set(0.05, 8, 32, rng=rng)
            keys.add(sx.tobytes() + sh.tobytes())
        assert len(keys) == 64


class TestMasksFromUniforms:
    @pytest.mark.parametrize(
        "p,action_dims,scale_rate",
        [(0.3, (4, 5), None), (0.05, (), None), (0.2, (5,), 0.0), (0.1, (4, 5), 0.4), (0.0, (4, 5), None), (0.0, (5,), 0.25)],
    )
    def test_equals_sequential_sample_mask_set(self, p, action_dims, scale_rate):
        r, d, count = 6, 7, 5
        rng_seq, rng_block = rng_stream(60, "helper", str(p)), rng_stream(60, "helper", str(p))
        masks = [sample_mask_set(p, r, d, action_dims=action_dims, rng=rng_seq, scale_rate=scale_rate) for _ in range(count)]
        u = rng_block.random((count, mask_uniform_count(p, r, d)))
        sx, sh = masks_from_uniforms(u, p, r, d, action_dims, scale_rate)
        if p == 0.0:
            assert sx is None and sh is None
            assert all(m == (None, None) for m in masks)
        else:
            assert sx.shape == (count, 4, r) and sh.shape == (count, 4, d)
            assert np.array_equal(sx, np.stack([m[0] for m in masks]))
            assert np.array_equal(sh, np.stack([m[1] for m in masks]))
        assert rng_seq.random() == rng_block.random()  # both generators end in the same state

    def test_p_zero_consumes_no_draws(self):
        assert mask_uniform_count(0.0, 6, 7) == 0
        rng = rng_stream(61, "helper-p0")
        for _ in range(3):
            sample_mask_set(0.0, 6, 7, rng=rng)
        assert rng.random() == rng_stream(61, "helper-p0").random()

    def test_leading_dims_and_bad_width(self):
        u = rng_stream(62, "helper-dims").random((2, 3, mask_uniform_count(0.2, 4, 5)))
        sx, sh = masks_from_uniforms(u, 0.2, 4, 5, (3,))
        assert sx.shape == (2, 3, 4, 4) and sh.shape == (2, 3, 4, 5)
        assert np.all(sx[..., 3] == 1.0)
        with pytest.raises(ValueError):
            masks_from_uniforms(u[..., :-1], 0.2, 4, 5)

    @pytest.mark.parametrize("action_dims", [(4,), (-1,)])
    def test_action_dims_out_of_range_rejected(self, action_dims):
        u = rng_stream(63, "helper-action").random((2, mask_uniform_count(0.2, 4, 5)))
        with pytest.raises(ValueError, match="action_dims"):
            masks_from_uniforms(u, 0.2, 4, 5, action_dims)


def _ones_masks(rows, r, d):
    return np.ones((rows, 4, r)), np.ones((rows, 4, d))


class TestLstmStep:
    def test_zero_weights_zero_output(self):
        w = LstmWeights(np.zeros((4, 3, 2)), np.zeros((4, 3, 3)), np.zeros((4, 3)))
        h, c = lstm_step(w, np.array([[1.0, -2.0]]), np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_identity_mask_matches_unmasked(self):
        rng = rng_stream(21, "step")
        w = LstmWeights.init(5, 4, rng)
        x = rng.normal(size=(3, 4))
        h0, c0 = rng.normal(size=(3, 5)) * 0.1, rng.normal(size=(3, 5)) * 0.1
        h, c = lstm_step(w, x, h0, c0)
        h1, c1 = lstm_step(w, x, h0, c0, *_ones_masks(3, 4, 5))
        assert np.array_equal(h, h1) and np.array_equal(c, c1)
        hs, _ = lstm_forward(w, x[None], h0=h0, c0=c0)
        np.testing.assert_allclose(h, hs[0], atol=1e-12)

    def test_matches_straight_line_reference(self):
        rng = rng_stream(22, "step-ref")
        w = LstmWeights.init(4, 3, rng)
        masks = [sample_mask_set(0.5, 3, 4, rng=rng) for _ in range(6)]
        xs = rng.normal(size=(6, 3))
        ref = reference_lstm_sequence(w, xs, masks)
        h, c = np.zeros((1, 4)), np.zeros((1, 4))
        for t in range(6):
            sx, sh = masks[t]
            h, c = lstm_step(w, xs[t][None], h, c, sx[None], sh[None])
            np.testing.assert_allclose(h[0], ref[t][0], atol=1e-12)
            np.testing.assert_allclose(c[0], ref[t][1], atol=1e-12)

    def test_deterministic(self):
        rng = rng_stream(23, "step-det")
        w = LstmWeights.init(4, 3, rng)
        sx, sh = sample_mask_set(0.3, 3, 4, rng=rng)
        x = rng.normal(size=(1, 3))
        zeros = np.zeros((1, 4))
        a = lstm_step(w, x, zeros, zeros, sx[None], sh[None])
        b = lstm_step(w, x, zeros, zeros, sx[None], sh[None])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dimension_mismatch_rejected(self):
        rng = rng_stream(24, "step-dim")
        w = LstmWeights.init(4, 3, rng)
        zeros = np.zeros((2, 4))
        with pytest.raises(ValueError):
            lstm_step(w, np.zeros((2, 5)), zeros, zeros)
        with pytest.raises(ValueError):
            lstm_step(w, np.zeros((2, 3)), np.zeros((2, 5)), zeros)
        with pytest.raises(ValueError):
            lstm_step(w, np.zeros((2, 3)), zeros, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            lstm_step(w, np.zeros(3), np.zeros(4), np.zeros(4))

    def test_expectation_preserved_at_preactivation(self):
        # Mean masked-and-rescaled pre-activation over many masks matches the
        # unmasked pre-activation (inverted-dropout identity), here at p=0.3
        # with a reduced draw count; the acceptance suite runs the full 1e5.
        rng = rng_stream(25, "step-exp")
        d, r = 8, 6
        w_xi = rng.uniform(0.5, 1.5, size=(d, r))
        w_hi = rng.uniform(0.5, 1.5, size=(d, d))
        x = rng.uniform(0.5, 1.5, size=r)
        h = rng.uniform(0.5, 1.5, size=d)
        target = w_xi @ x + w_hi @ h
        acc = np.zeros(d)
        draws = 20_000
        for _ in range(draws):
            sx, sh = sample_mask_set(0.3, r, d, rng=rng)
            acc += w_xi @ (x * sx[0]) + w_hi @ (h * sh[0])
        np.testing.assert_allclose(acc / draws, target, rtol=0.02)


def _bptt(w, xs, sx, sh, upstream):
    """Gradients of sum(h_t * upstream_t) for one sequence (B = 1) with one
    mask set held over all steps."""
    if sx is not None:
        sx, sh = sx[None], sh[None]
    _, cache = lstm_forward(w, xs[:, None, :], sx, sh)
    return lstm_backward(w, cache, upstream[:, None, :])


class TestBptt:
    def _loss_pieces(self, seed, p, T=5, d=8, r=6):
        rng = rng_stream(seed, "bptt")
        w = LstmWeights.init(d, r, rng)
        xs = rng.normal(size=(T, r))
        sx, sh = sample_mask_set(p, r, d, action_dims=(r - 1,), rng=rng)
        upstream = rng.normal(size=(T, d))
        return w, xs, sx, sh, upstream

    def test_zero_upstream_zero_grads(self):
        w, xs, sx, sh, _ = self._loss_pieces(31, 0.3)
        g = _bptt(w, xs, sx, sh, np.zeros((5, w.hidden_dim)))
        for a in (g.w_x, g.w_h, g.b, g.xs, g.h0, g.c0):
            assert np.all(a == 0.0)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_matches_finite_differences(self, p):
        w, xs, sx, sh, upstream = self._loss_pieces(32, p)
        templates = [w.w_x, w.w_h, w.b]

        def loss_of(vec):
            w2 = LstmWeights(*unpack_arrays(vec, templates))
            hs, _ = lstm_forward(w2, xs[:, None, :], None if sx is None else sx[None], None if sh is None else sh[None])
            return float(np.sum(hs[:, 0, :] * upstream))

        numeric = unpack_arrays(finite_diff_grad(loss_of, pack_arrays(templates)), templates)
        g = _bptt(w, xs, sx, sh, upstream)
        for got, want in zip([g.w_x, g.w_h, g.b], numeric):
            err = np.abs(got - want)
            tol = 1e-4 * np.maximum(np.abs(want), np.abs(got)) + 1e-8
            assert np.all(err <= tol)

    def test_input_gradient_matches_finite_differences(self):
        w, xs, sx, sh, upstream = self._loss_pieces(33, 0.5)

        def loss_of(flat_xs):
            hs, _ = lstm_forward(w, flat_xs.reshape(xs.shape)[:, None, :], sx[None], sh[None])
            return float(np.sum(hs[:, 0, :] * upstream))

        numeric = finite_diff_grad(loss_of, xs.ravel()).reshape(xs.shape)
        g = _bptt(w, xs, sx, sh, upstream)
        np.testing.assert_allclose(g.xs[:, 0, :], numeric, atol=1e-7, rtol=1e-4)

    def test_dropped_input_column_gets_zero_grad(self):
        rng = rng_stream(34, "bptt-drop")
        d, r, T = 6, 5, 4
        w = LstmWeights.init(d, r, rng)
        j = 2
        sx, sh = np.full((4, r), 1.0 / 0.6), np.full((4, d), 1.0 / 0.6)
        sx[:, j] = 0.0
        xs = rng.normal(size=(T, r))
        upstream = rng.normal(size=(T, d))
        g = _bptt(w, xs, sx, sh, upstream)
        assert np.all(g.w_x[:, :, j] == 0.0)
        assert np.any(g.w_x[:, :, j - 1] != 0.0)

    @pytest.mark.parametrize("per_step", [False, True])
    def test_all_ones_masks_match_no_masks_bit_for_bit(self, per_step):
        # An all-ones mask block and None (the unmasked cell) give identical
        # forward and backward passes, so a p=0 training run that passes no
        # masks equals one that multiplies by ones.
        T, B, d, r = 6, 3, 5, 4
        rng = rng_stream(36, "ones-vs-none")
        w = LstmWeights.init(d, r, rng)
        xs = rng.normal(size=(T, B, r))
        upstream = rng.normal(size=(T, B, d))
        lead = (T, B) if per_step else (B,)
        hs_none, cache_none = lstm_forward(w, xs)
        hs_ones, cache_ones = lstm_forward(w, xs, np.ones(lead + (4, r)), np.ones(lead + (4, d)))
        assert np.array_equal(hs_none, hs_ones)
        g_none = lstm_backward(w, cache_none, upstream)
        g_ones = lstm_backward(w, cache_ones, upstream)
        for name in ("w_x", "w_h", "b", "xs", "h0", "c0"):
            assert np.array_equal(getattr(g_none, name), getattr(g_ones, name)), name


def _gradcheck_ok(got, want):
    err = np.abs(got - want)
    return bool(np.all(err <= 1e-4 * np.maximum(np.abs(want), np.abs(got)) + 1e-8))


class TestBatchedPasses:
    """lstm_forward/lstm_backward at B > 1 against finite differences and
    against a step-by-step lstm_step loop."""

    T, B, d, r = 4, 3, 5, 4

    def _case(self, seed, masks, states):
        T, B, d, r = self.T, self.B, self.d, self.r
        rng = rng_stream(seed, "batched")
        w = LstmWeights.init(d, r, rng)
        xs = rng.normal(size=(T, B, r))
        lead = (B,) if masks == "sequence" else (T, B)
        count = mask_uniform_count(0.4, r, d)
        sx, sh = masks_from_uniforms(rng.random(lead + (count,)), 0.4, r, d, (r - 1,))
        upstream = rng.normal(size=(T, B, d))
        if states:
            h0, c0 = rng.normal(size=(B, d)) * 0.5, rng.normal(size=(B, d)) * 0.5
            d_h_final, d_c_final = rng.normal(size=(B, d)), rng.normal(size=(B, d))
        else:
            h0 = c0 = d_h_final = d_c_final = None
        return w, xs, sx, sh, upstream, h0, c0, d_h_final, d_c_final

    @pytest.mark.parametrize("masks,states", [("sequence", False), ("step", False), ("sequence", True)])
    def test_matches_finite_differences(self, masks, states):
        w, xs, sx, sh, upstream, h0, c0, dhf, dcf = self._case(80, masks, states)
        zeros = np.zeros((self.B, self.d))
        h0_, c0_ = (zeros, zeros) if h0 is None else (h0, c0)

        def loss(w2=w, xs2=xs, h02=h0_, c02=c0_):
            hs, cache = lstm_forward(w2, xs2, sx, sh, h02, c02)
            total = float(np.sum(hs * upstream))
            if dhf is not None:
                total += float(np.sum(hs[-1] * dhf) + np.sum(cache.cs[-1] * dcf))
            return total

        _, cache = lstm_forward(w, xs, sx, sh, h0, c0)
        g = lstm_backward(w, cache, upstream, dhf, dcf)
        templates = [w.w_x, w.w_h, w.b]
        numeric = unpack_arrays(
            finite_diff_grad(lambda v: loss(w2=LstmWeights(*unpack_arrays(v, templates))), pack_arrays(templates)),
            templates,
        )
        numeric.append(finite_diff_grad(lambda v: loss(xs2=v), xs))
        numeric.append(finite_diff_grad(lambda v: loss(h02=v), h0_))
        numeric.append(finite_diff_grad(lambda v: loss(c02=v), c0_))
        for name, got, want in zip(("w_x", "w_h", "b", "xs", "h0", "c0"), (g.w_x, g.w_h, g.b, g.xs, g.h0, g.c0), numeric):
            assert got.shape == want.shape, name
            assert _gradcheck_ok(got, want), name

    def test_forward_matches_step_loop(self):
        T, B, d, r = self.T, self.B, self.d, self.r
        rng = rng_stream(81, "batched-step")
        w = LstmWeights.init(d, r, rng)
        xs = rng.normal(size=(T, B, r))
        sx, sh = masks_from_uniforms(rng.random((T, B, mask_uniform_count(0.3, r, d))), 0.3, r, d, (r - 1,))
        h0, c0 = rng.normal(size=(B, d)) * 0.5, rng.normal(size=(B, d)) * 0.5
        hs, cache = lstm_forward(w, xs, sx, sh, h0, c0)
        h, c = h0, c0
        for t in range(T):
            h, c = lstm_step(w, xs[t], h, c, sx[t], sh[t])
            np.testing.assert_allclose(hs[t], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache.cs[t + 1], c, rtol=0, atol=1e-12)

    def test_mask_shape_mismatch_rejected(self):
        w, xs, sx, sh, *_ = self._case(82, "step", False)
        with pytest.raises(ValueError):
            lstm_forward(w, xs[:-1], sx, sh)
        with pytest.raises(ValueError):
            lstm_forward(w, xs, sx, sh[..., :-1])


class TestWeights:
    def test_init_shapes_and_forget_bias(self):
        w = LstmWeights.init(7, 4, rng_stream(41, "w"))
        assert w.w_x.shape == (4, 7, 4) and w.w_h.shape == (4, 7, 7)
        assert np.all(w.b[1] == 1.0)
        assert np.all(np.abs(w.w_x) <= 1 / 2.0)

    def test_nonfinite_rejected(self):
        bad = np.zeros((4, 3, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LstmWeights(bad, np.zeros((4, 3, 3)), np.zeros((4, 3)))
