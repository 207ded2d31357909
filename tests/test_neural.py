import numpy as np
import pytest

from conftest import PerArrayAdam, per_array_adam_step
from coxmix.neural import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, GRAD_CLIP_NORM, HeadParams,
    MlpParams, NeuralError, _flatten, adam_step, backward, forward, heads_forward,
    init_params, softmax,
)


def tiny_net(seed=0, dims=(3, 4), k=2):
    return init_params(dims, k, seed)


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
        out = softmax(np.array([[np.log(3.0), 0.0]]))
        np.testing.assert_allclose(out, [[0.75, 0.25]], rtol=1e-12)

    def test_shift_invariance_and_stability(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 1000.0))
        big = softmax(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big.sum(), 1.0)


class TestBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        p, h = init_params((3, 5, 4), 2, seed=1)
        x = rng.normal(size=(6, 3))
        target_f = rng.normal(size=(6, 2))
        target_g = rng.normal(size=(6, 2))

        def loss_and_grads():
            rep, cache = forward(p, x)
            f, g = heads_forward(h, rep)
            val = 0.5 * np.sum((f - target_f) ** 2) + 0.5 * np.sum((g - target_g) ** 2)
            return val, backward(p, h, cache, rep, f - target_f, g - target_g)

        _, (mg, hg) = loss_and_grads()
        eps = 1e-6
        for arr, grad in [(p.weights[0], mg.weights[0]), (p.weights[1], mg.weights[1]),
                          (p.biases[0], mg.biases[0]), (h.f_w, hg.f_w),
                          (h.g_w, hg.g_w), (h.f_b, hg.f_b)]:
            it = np.nditer(arr, flags=["multi_index"])
            for _ in range(min(arr.size, 8)):
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up, _ = loss_and_grads()
                arr[idx] = orig - eps
                dn, _ = loss_and_grads()
                arr[idx] = orig
                np.testing.assert_allclose(grad[idx], (up - dn) / (2 * eps),
                                           rtol=1e-5, atol=1e-8)
                it.iternext()

    def test_gradient_shape_checked(self):
        p, h = tiny_net()
        x = np.zeros((2, 3))
        rep, cache = forward(p, x)
        with pytest.raises(NeuralError):
            backward(p, h, cache, rep, np.zeros((2, 5)), np.zeros((2, 5)))


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
        g = MlpParams(weights=[np.array([[1.0]])], biases=[np.zeros(1)],
                      layer_dims=(1, 1))
        gz = HeadParams(f_w=np.zeros((1, 1)), f_b=np.zeros(1),
                        g_w=np.zeros((1, 1)), g_b=np.zeros(1))

        w_ref, m, v = 0.0, 0.0, 0.0
        for step in range(1, 4):
            adam_step(g, gz, state)
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
        huge = MlpParams(weights=[np.array([[1e6]])], biases=[np.zeros(1)],
                         layer_dims=(1, 1))
        gz = HeadParams(f_w=np.zeros((1, 1)), f_b=np.zeros(1),
                        g_w=np.zeros((1, 1)), g_b=np.zeros(1))
        adam_step(huge, gz, state)
        # effective gradient was clipped to GRAD_CLIP_NORM; first Adam step
        # is -lr * sign(g) regardless of magnitude, so just check finiteness
        assert np.isfinite(p.weights[0][0, 0])
        assert GRAD_CLIP_NORM == 10.0

    def test_non_finite_gradient_raises(self):
        p, h = tiny_net()
        state = AdamState.create(p, h, lr=0.01)
        bad = MlpParams(weights=[np.full_like(p.weights[0], np.nan)],
                        biases=[np.zeros_like(p.biases[0])],
                        layer_dims=p.layer_dims)
        gz = HeadParams(f_w=np.zeros_like(h.f_w), f_b=np.zeros_like(h.f_b),
                        g_w=np.zeros_like(h.g_w), g_b=np.zeros_like(h.g_b))
        with pytest.raises(NeuralError):
            adam_step(bad, gz, state)


class TestFlatAdam:
    @pytest.mark.parametrize("grad_scale", [1e-3, 1e3])
    def test_five_steps_match_per_array_oracle(self, grad_scale):
        # a 2-hidden-layer net; backprop gradients scaled below and far
        # above the clip norm
        p, h = init_params((5, 7, 6), 3, seed=4)
        ref_arrays = [a.copy() for a in _flatten(p, h)]
        state = AdamState.create(p, h, lr=0.01)
        ref = PerArrayAdam(ref_arrays, lr=0.01)
        rng = np.random.default_rng(9)
        clipped = []
        for _ in range(5):
            x = rng.normal(size=(32, 5))
            rep, cache = forward(p, x)
            f, g = heads_forward(h, rep)
            mg, hg = backward(p, h, cache, rep, grad_scale * rng.normal(size=f.shape),
                              grad_scale * rng.normal(size=g.shape))
            grads = _flatten(mg, hg)
            clipped.append(np.sqrt(sum(np.sum(a * a) for a in grads)) > GRAD_CLIP_NORM)
            adam_step(mg, hg, state)
            per_array_adam_step(ref_arrays, grads, ref)
            for got, want in zip(_flatten(p, h), ref_arrays, strict=True):
                assert np.array_equal(got, want)
        assert all(clipped) if grad_scale > 1 else not any(clipped)

