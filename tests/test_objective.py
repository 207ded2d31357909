import numpy as np
import pytest

from coxmix.neural import log_softmax
from coxmix.objective import ObjectiveError, partial_log_likelihood, q_hat


def fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


class TestPartialLikelihood:
    def test_hand_value_three_events(self):
        # f = 0, times 1 < 2 < 3, all events:
        # log(1/3) + log(1/2) + log(1) = -log 6
        val, grad = partial_log_likelihood([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1, 1, 1])
        np.testing.assert_allclose(val, -np.log(6.0), rtol=1e-12)
        # gradient: delta_i - sum over event times <= t_i of d/S
        np.testing.assert_allclose(grad, [1 - 1 / 3, 1 - 1 / 3 - 1 / 2,
                                          1 - 1 / 3 - 1 / 2 - 1], rtol=1e-12)

    def test_hand_value_with_censoring(self):
        # event at 1 (risk set of 3), censored at 2, event at 3 (risk set 1)
        val, _ = partial_log_likelihood([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_allclose(val, np.log(1 / 3) + np.log(1.0), rtol=1e-12)

    def test_breslow_ties_share_denominator(self):
        # two tied events among 3 at risk: 2*f - 2*log(3) at f = 0
        val, _ = partial_log_likelihood([0.0, 0.0, 0.0], [1.0, 1.0, 2.0], [1, 1, 0])
        np.testing.assert_allclose(val, -2 * np.log(3.0), rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        t = rng.exponential(1, 30)
        e = (rng.random(30) < 0.6).astype(int)
        f = rng.normal(0, 1, 30)
        v1, g1 = partial_log_likelihood(f, t, e)
        v2, g2 = partial_log_likelihood(f + 100.0, t, e)
        np.testing.assert_allclose(v1, v2, rtol=1e-9)
        np.testing.assert_allclose(g1, g2, atol=1e-9)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n = 25
            t = rng.integers(1, 10, n).astype(float)  # include ties
            e = (rng.random(n) < 0.7).astype(int)
            if e.sum() == 0:
                continue
            f = rng.normal(0, 1, n)
            _, grad = partial_log_likelihood(f, t, e)
            num = fd_grad(lambda ff: partial_log_likelihood(ff, t, e)[0], f)
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)

    def test_large_hazards_stay_finite(self):
        f = np.array([40.0, -40.0, 45.0, 0.0])
        val, grad = partial_log_likelihood(f, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert np.isfinite(val)
        assert np.all(np.isfinite(grad))

    def test_no_events(self):
        val, grad = partial_log_likelihood([1.0, 2.0], [1.0, 2.0], [0, 0])
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0.0)


def gating_cross_entropy(gamma, logits):
    """q_hat's gating term alone, as (log-likelihood, gradient wrt logits =
    gamma - softmax): on a batch with no events the partial likelihood adds
    exact zeros."""
    n = gamma.shape[0]
    loss, _, d_g = q_hat(np.arange(1.0, n + 1), np.zeros(n, dtype=int), gamma,
                         np.zeros(n, dtype=int), np.zeros(gamma.shape), log_softmax(logits))
    return -loss, -d_g


class TestGatingCrossEntropy:
    def test_closed_form(self):
        gamma = np.array([[0.75, 0.25]])
        logits = np.array([[np.log(3.0), 0.0]])  # softmax = [0.75, 0.25]
        val, grad = gating_cross_entropy(gamma, logits)
        np.testing.assert_allclose(val, 0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        gamma = rng.dirichlet(np.ones(3), size=6)
        logits = rng.normal(0, 1, (6, 3))
        _, grad = gating_cross_entropy(gamma, logits)
        num = np.zeros_like(logits)
        eps = 1e-6
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                num[i, j] = (gating_cross_entropy(gamma, up)[0]
                             - gating_cross_entropy(gamma, dn)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)

    def test_rejects_off_simplex(self):
        with pytest.raises(ObjectiveError):
            gating_cross_entropy(np.array([[0.6, 0.6]]), np.zeros((1, 2)))


class TestQHat:
    def test_single_cluster_collapses_to_cox(self):
        rng = np.random.default_rng(3)
        n = 20
        t = rng.exponential(1, n)
        e = np.ones(n, dtype=int)
        f = rng.normal(0, 1, (n, 1))
        gamma = np.ones((n, 1))
        zeta = np.zeros(n, dtype=int)
        logits = rng.normal(0, 1, (n, 1))
        loss, d_f, d_g = q_hat(t, e, gamma, zeta, f, log_softmax(logits))
        pl, pl_grad = partial_log_likelihood(f[:, 0], t, e)
        # single-cluster gating is exactly 0 (softmax of one logit is 1)
        np.testing.assert_allclose(loss, -pl, rtol=1e-12)
        np.testing.assert_allclose(d_f[:, 0], -pl_grad, rtol=1e-12)
        np.testing.assert_allclose(d_g, 0.0, atol=1e-12)

    def test_two_cluster_manual_split(self):
        rng = np.random.default_rng(4)
        n = 30
        t = rng.exponential(1, n)
        e = (rng.random(n) < 0.8).astype(int)
        f = rng.normal(0, 1, (n, 2))
        logits = rng.normal(0, 1, (n, 2))
        zeta = (rng.random(n) < 0.5).astype(int)
        gamma = np.column_stack([1.0 - zeta, zeta]).astype(float)
        loss, d_f, d_g = q_hat(t, e, gamma, zeta, f, log_softmax(logits))

        expect = 0.0
        for k in range(2):
            rows = np.flatnonzero(zeta == k)
            val, _ = partial_log_likelihood(f[rows, k], t[rows], e[rows])
            expect += val
        expect += gating_cross_entropy(gamma, logits)[0]
        np.testing.assert_allclose(loss, -expect, rtol=1e-12)
        # rows only receive gradient in their assigned column
        for k in range(2):
            other = np.flatnonzero(zeta != k)
            np.testing.assert_array_equal(d_f[other, k], 0.0)

    def test_starved_cluster_skipped(self):
        t = np.array([1.0, 2.0, 3.0])
        e = np.array([1, 1, 1])
        f = np.zeros((3, 2))
        logits = np.zeros((3, 2))
        gamma = np.full((3, 2), 0.5)
        zeta = np.array([0, 0, 0])  # cluster 1 empty
        loss, d_f, _ = q_hat(t, e, gamma, zeta, f, log_softmax(logits))
        assert np.isfinite(loss)
        np.testing.assert_array_equal(d_f[:, 1], 0.0)

    def test_full_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        n, k = 18, 3
        t = rng.integers(1, 8, n).astype(float)
        e = (rng.random(n) < 0.7).astype(int)
        gamma = rng.dirichlet(np.ones(k), size=n)
        zeta = rng.integers(0, k, n)
        f = rng.normal(0, 1, (n, k))
        logits = rng.normal(0, 1, (n, k))
        _, d_f, d_g = q_hat(t, e, gamma, zeta, f, log_softmax(logits))
        eps = 1e-6
        for (arr, grad) in [(f, d_f), (logits, d_g)]:
            num = np.zeros_like(arr)
            for i in range(n):
                for j in range(k):
                    up = arr.copy()
                    dn = arr.copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    if arr is f:
                        lu = q_hat(t, e, gamma, zeta, up, log_softmax(logits))[0]
                        ld = q_hat(t, e, gamma, zeta, dn, log_softmax(logits))[0]
                    else:
                        lu = q_hat(t, e, gamma, zeta, f, log_softmax(up))[0]
                        ld = q_hat(t, e, gamma, zeta, f, log_softmax(dn))[0]
                    num[i, j] = (lu - ld) / (2 * eps)
            np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: partial_log_likelihood([np.nan, 0.0], [1.0, 2.0], [1, 0]),
                 "non-finite log hazards", id="nan_log_hazard"),
])
def test_named_errors(call, message):
    with pytest.raises(ObjectiveError, match=message):
        call()
