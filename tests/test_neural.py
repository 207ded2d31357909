import numpy as np
import pytest

from conftest import PerArrayAdam, per_array_adam_step, per_array_backward
from coxmix.neural import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, GRAD_CLIP_NORM, HeadParams,
    MlpParams, NeuralError, _flatten, adam_step, backward, forward, heads_forward,
    init_params, log_softmax,
)


def tiny_net(seed=0, dims=(3, 4), k=2):
    return init_params(dims, k, seed)


def nan_grads(params, heads):
    """Gradient arrays in ``_flatten`` order, all NaN: an array that
    ``backward`` leaves unwritten stays NaN."""
    return [np.full_like(a, np.nan) for a in _flatten(params, heads)]


class TestInit:
    def test_deterministic(self):
        p1, h1 = tiny_net(seed=5)
        p2, h2 = tiny_net(seed=5)
        for a, b in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(h1.f_w, h2.f_w)
        p3, _ = tiny_net(seed=6)
        assert np.any(p1.weights[0] != p3.weights[0])

    def test_glorot_bounds_and_zero_bias(self):
        p, h = init_params((10, 20), 3, seed=0)
        bound = np.sqrt(6.0 / 30)
        assert np.all(np.abs(p.weights[0]) <= bound)
        np.testing.assert_array_equal(p.biases[0], 0.0)
        np.testing.assert_array_equal(h.f_b, 0.0)

    def test_identity_encoder(self):
        p, h = init_params((4,), 2, seed=0)
        assert p.weights == []
        x = np.random.default_rng(0).normal(size=(5, 4))
        rep, cache = forward(p, x)
        np.testing.assert_array_equal(rep, x)
        assert cache == []

    def test_bad_dims(self):
        with pytest.raises(NeuralError):
            init_params((0, 3), 2, seed=0)
        with pytest.raises(NeuralError):
            init_params((3,), 0, seed=0)


class TestForward:
    def test_hand_relu(self):
        p = MlpParams(weights=[np.array([[1.0, -1.0], [2.0, 0.5]])],
                      biases=[np.array([0.0, 1.0])], layer_dims=(2, 2))
        x = np.array([[1.0, 1.0]])
        rep, cache = forward(p, x)
        # pre-activation: [1+2, -1+0.5+1] = [3, 0.5]; ReLU keeps both
        np.testing.assert_allclose(rep, [[3.0, 0.5]])
        x2 = np.array([[-1.0, 0.0]])
        rep2, _ = forward(p, x2)
        # pre-activation: [-1, 2]; ReLU clips the first
        np.testing.assert_allclose(rep2, [[0.0, 2.0]])

    def test_shape_mismatch(self):
        p, _ = tiny_net(dims=(3, 4))
        with pytest.raises(NeuralError):
            forward(p, np.zeros((2, 5)))

    def test_heads_affine(self):
        h = HeadParams(f_w=np.array([[2.0], [0.0]]), f_b=np.array([1.0]),
                       g_w=np.array([[0.0], [3.0]]), g_b=np.array([-1.0]))
        f, g = heads_forward(h, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(f, [[3.0]])
        np.testing.assert_allclose(g, [[5.0]])


class TestSoftmax:
    def test_hand_value(self):
        out = log_softmax(np.array([[np.log(3.0), 0.0]]))[1]
        np.testing.assert_allclose(out, [[0.75, 0.25]], rtol=1e-12)

    def test_shift_invariance_and_stability(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(log_softmax(z)[1], log_softmax(z + 1000.0)[1])
        big = log_softmax(np.array([[1e4, 0.0]]))[1]
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big.sum(), 1.0)


class TestBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        p, h = init_params((3, 5, 4), 2, seed=1)
        x = rng.normal(size=(6, 3))
        target_f = rng.normal(size=(6, 2))
        target_g = rng.normal(size=(6, 2))

        def loss():
            rep, cache = forward(p, x)
            f, g = heads_forward(h, rep)
            val = 0.5 * np.sum((f - target_f) ** 2) + 0.5 * np.sum((g - target_g) ** 2)
            return val, cache, rep, f - target_f, g - target_g

        grads = nan_grads(p, h)
        backward(p, h, *loss()[1:], grads)
        eps = 1e-6
        for arr, grad in zip(_flatten(p, h), grads, strict=True):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in range(min(arr.size, 8)):
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss()[0]
                arr[idx] = orig - eps
                dn = loss()[0]
                arr[idx] = orig
                np.testing.assert_allclose(grad[idx], (up - dn) / (2 * eps),
                                           rtol=1e-5, atol=1e-8)
                it.iternext()

    def test_gradient_shape_checked(self):
        p, h = tiny_net()
        x = np.zeros((2, 3))
        rep, cache = forward(p, x)
        with pytest.raises(NeuralError):
            backward(p, h, cache, rep, np.zeros((2, 5)), np.zeros((2, 5)), nan_grads(p, h))


class TestBackwardOracle:
    @pytest.mark.parametrize("dims", [(5, 7), (5, 7, 6), (5,)],
                             ids=["one_layer", "two_layers", "identity"])
    def test_matches_per_array_oracle(self, dims):
        # backward's in-place products and reductions give the oracle's bits,
        # in every array of its NaN-filled output
        p, h = init_params(dims, 3, seed=2)
        rng = np.random.default_rng(6)
        rep, cache = forward(p, rng.normal(size=(41, 5)))
        d_f, d_g = rng.normal(size=(2, 41, 3))
        want = per_array_backward(p, h, cache, rep, d_f, d_g)
        got = nan_grads(p, h)
        assert backward(p, h, cache, rep, d_f, d_g, got) is None
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("dims", [(5, 7, 6), (5,)], ids=["two_layers", "identity"])
    def test_out_views_get_the_oracle_bits(self, dims):
        # fit's path: backward writes into AdamState's gradient views
        rng = np.random.default_rng(6)
        p, h = init_params(dims, 3, seed=2)
        state = AdamState.create(p, h, lr=0.01)
        for scale in (1e-3, 1e3):  # unclipped, then clipped in place
            rep, cache = forward(p, rng.normal(size=(41, 5)))
            d_f, d_g = scale * rng.normal(size=(2, 41, 3))
            want = per_array_backward(p, h, cache, rep, d_f, d_g)
            state.grad[:] = np.nan
            backward(p, h, cache, rep, d_f, d_g, state.grads)
            for view, b in zip(state.grads, want, strict=True):
                assert np.array_equal(view, b)
            assert np.array_equal(state.grad, np.concatenate([b.ravel() for b in want]))
            adam_step(state)


class TestAdam:
    def test_three_steps_match_reference(self):
        # one scalar weight, constant unit gradient, checked against a
        # from-scratch Adam recursion
        p = MlpParams(weights=[np.array([[0.0]])], biases=[np.array([0.0])],
                      layer_dims=(1, 1))
        h = HeadParams(f_w=np.zeros((1, 1)), f_b=np.zeros(1),
                       g_w=np.zeros((1, 1)), g_b=np.zeros(1))
        lr = 0.1
        state = AdamState.create(p, h, lr)

        w_ref, m, v = 0.0, 0.0, 0.0
        for step in range(1, 4):
            state.grads[0][...] = 1.0  # every other gradient is 0
            adam_step(state)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * 1.0
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * 1.0
            mh = m / (1 - ADAM_BETA1 ** step)
            vh = v / (1 - ADAM_BETA2 ** step)
            w_ref -= lr * mh / (np.sqrt(vh) + ADAM_EPS)
            np.testing.assert_allclose(p.weights[0][0, 0], w_ref, rtol=1e-12)

    def test_gradient_clipping(self):
        p = MlpParams(weights=[np.array([[0.0]])], biases=[np.array([0.0])],
                      layer_dims=(1, 1))
        h = HeadParams(f_w=np.zeros((1, 1)), f_b=np.zeros(1),
                       g_w=np.zeros((1, 1)), g_b=np.zeros(1))
        state = AdamState.create(p, h, lr=1.0)
        state.grads[0][...] = 1e6
        adam_step(state)
        # effective gradient was clipped to GRAD_CLIP_NORM; first Adam step
        # is -lr * sign(g) regardless of magnitude, so just check finiteness
        assert np.isfinite(p.weights[0][0, 0])
        assert GRAD_CLIP_NORM == 10.0

    def test_non_finite_gradient_raises(self):
        p, h = tiny_net()
        state = AdamState.create(p, h, lr=0.01)
        state.grads[0][...] = np.nan
        with pytest.raises(NeuralError):
            adam_step(state)

    def test_non_finite_parameter_raises(self):
        # every gradient is finite and nonzero, but an infinite rate steps to -inf
        p, h = tiny_net()
        state = AdamState.create(p, h, lr=np.inf)
        state.grad[:] = 1.0
        with pytest.raises(NeuralError, match="^non-finite parameter after update$"):
            adam_step(state)


class TestFlatAdam:
    @pytest.mark.parametrize("grad_scale", [1e-3, 1e3])
    def test_five_steps_match_per_array_oracle(self, grad_scale):
        # a 2-hidden-layer net; backprop gradients scaled below and far
        # above the clip norm
        self.check_five_steps((5, 7, 6), grad_scale)

    @pytest.mark.parametrize("grad_scale", [1e-3, 1e3])
    @pytest.mark.parametrize("dims", [(5,), (5, 150, 37)], ids=["identity", "wide"])
    def test_other_layouts_match_per_array_oracle(self, dims, grad_scale):
        # the identity encoder's vector holds the heads alone; the wide
        # net's arrays are long enough for numpy's blocked pairwise sums
        self.check_five_steps(dims, grad_scale)

    @staticmethod
    def check_five_steps(dims, grad_scale):
        p, h = init_params(dims, 3, seed=4)
        ref_arrays = [a.copy() for a in _flatten(p, h)]
        state = AdamState.create(p, h, lr=0.01)
        ref = PerArrayAdam(ref_arrays, lr=0.01)
        rng = np.random.default_rng(9)
        clipped = []
        for _ in range(5):
            x = rng.normal(size=(32, dims[0]))
            rep, cache = forward(p, x)
            f, g = heads_forward(h, rep)
            d_f, d_g = grad_scale * rng.normal(size=(2, *f.shape))
            grads = per_array_backward(p, h, cache, rep, d_f, d_g)
            clipped.append(np.sqrt(sum(np.sum(a * a) for a in grads)) > GRAD_CLIP_NORM)
            state.grad[:] = np.nan
            backward(p, h, cache, rep, d_f, d_g, state.grads)
            adam_step(state)
            per_array_adam_step(ref_arrays, grads, ref)
            for got, want in zip(_flatten(p, h), ref_arrays, strict=True):
                assert np.array_equal(got, want)
        assert all(clipped) if grad_scale > 1 else not any(clipped)

