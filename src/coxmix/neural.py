"""Dense feed-forward encoder with two linear output heads (per-cluster
log hazard ratios and gating logits), exact backpropagation, and an Adam
optimizer. Implemented directly in numpy; no autodiff framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 10.0  # partial-likelihood gradients can spike on tiny risk sets


class NeuralError(ValueError):
    pass


@dataclass
class MlpParams:
    """Hidden-layer weights/biases of the encoder. Empty lists mean the
    encoder is the identity (linear model variant)."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    layer_dims: tuple = ()


@dataclass
class HeadParams:
    """Affine heads on the encoded representation: f (log hazards per
    cluster) and g (gating logits)."""

    f_w: np.ndarray
    f_b: np.ndarray
    g_w: np.ndarray
    g_b: np.ndarray


def init_params(layer_dims, n_clusters, seed):
    """Glorot-uniform weights, zero biases, deterministic given seed.

    layer_dims is [d, h1, ..., h]; a single entry [d] gives the identity
    encoder with heads acting on raw features.
    """
    if any(d <= 0 for d in layer_dims) or n_clusters < 1:
        raise NeuralError("dimensions must be positive")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(glorot(d_in, d_out))
        biases.append(np.zeros(d_out))
    h = layer_dims[-1]
    heads = HeadParams(
        f_w=glorot(h, n_clusters), f_b=np.zeros(n_clusters),
        g_w=glorot(h, n_clusters), g_b=np.zeros(n_clusters),
    )
    return MlpParams(weights=weights, biases=biases, layer_dims=tuple(layer_dims)), heads


def forward(params, x):
    """Encode a batch: returns (representation, cache for backward).

    Hidden activation is ReLU. The cache holds each hidden layer's input;
    backward takes a layer's ReLU mask from the next layer's input, or from
    the representation for the last layer.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise NeuralError(
            f"input has {x.shape[-1] if x.ndim == 2 else '?'} features, "
            f"encoder expects {params.layer_dims[0]}")
    cache = []
    a = x
    for w, b in zip(params.weights, params.biases):
        cache.append(a)
        z = a @ w
        z += b
        a = np.maximum(z, 0.0, out=z)  # in place: one new array per layer
    return a, cache


NUMPY_ORDER_K = 8  # from this many clusters on, numpy reduces max and add in another order


def over_clusters(ufunc, a, accumulate=False):
    """``ufunc.reduce(a, axis=1)``, or ``ufunc.accumulate`` when
    ``accumulate``, of an (N, K) array with the same bits, as K - 1 calls of
    ``ufunc`` (np.add or np.maximum) on its columns: numpy's own loop over a
    3-wide last axis takes several times as long. numpy's add reduction
    starts from 0, so -0.0 sums to +0.0 and the sum chain starts from
    ``a[:, 0] + 0``. From NUMPY_ORDER_K columns on (and at K = 0) numpy
    reduces in another order, so there its own reduction runs; it
    accumulates in column order at every K."""
    k = a.shape[1]
    if accumulate:
        out = np.empty_like(a)
        out[:, :1] = a[:, :1]
        for j in range(1, k):
            ufunc(out[:, j - 1], a[:, j], out=out[:, j])
        return out
    if not 0 < k < NUMPY_ORDER_K:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0] + 0 if ufunc is np.add else a[:, 0].copy()
    for j in range(1, k):
        ufunc(out, a[:, j], out=out)
    return out


def log_softmax(logits):
    """Row log-softmax and softmax of (N, K) logits z, (z - log sum e^z,
    e^z / sum e^z), from one exponential of z shifted by its row max."""
    z = logits - over_clusters(np.maximum, logits)[:, None]
    e = np.exp(z)
    total = over_clusters(np.add, e)[:, None]
    return z - np.log(total), e / total


def heads_forward(heads, rep):
    """Affine heads: (log_hazards, gating_logits), each (N, K)."""
    f = rep @ heads.f_w
    f += heads.f_b
    g = rep @ heads.g_w
    g += heads.g_b
    return f, g


def backward(params, heads, cache, rep, d_log_hazards, d_gating_logits):
    """Exact gradients of a scalar loss given its gradients wrt the two
    head outputs. Returns (mlp gradients, head gradients) mirroring the
    parameter structures."""
    d_log_hazards = np.asarray(d_log_hazards, dtype=float)
    d_gating_logits = np.asarray(d_gating_logits, dtype=float)
    if d_log_hazards.shape != (rep.shape[0], heads.f_w.shape[1]):
        raise NeuralError("upstream gradient shape mismatch")
    head_grads = HeadParams(
        f_w=rep.T @ d_log_hazards, f_b=np.add.reduce(d_log_hazards, axis=0),
        g_w=rep.T @ d_gating_logits, g_b=np.add.reduce(d_gating_logits, axis=0),
    )
    gw, gb = [], []
    layers = list(zip(cache, [*cache[1:], rep], params.weights))
    if layers:
        da = d_log_hazards @ heads.f_w.T
        da += d_gating_logits @ heads.g_w.T
    for i in reversed(range(len(layers))):
        a_in, a_out, w = layers[i]
        dz = np.multiply(da, a_out > 0, out=da)  # relu(z) > 0 exactly where z > 0
        gw.append(a_in.T @ dz)
        gb.append(np.add.reduce(dz, axis=0))
        if i:  # the input features take no gradient
            da = dz @ w.T
    mlp_grads = MlpParams(
        weights=gw[::-1], biases=gb[::-1], layer_dims=params.layer_dims)
    return mlp_grads, head_grads


def _flatten(params, heads):
    return [*params.weights, *params.biases, heads.f_w, heads.f_b, heads.g_w, heads.g_b]


@dataclass
class AdamState:
    """The parameters as one contiguous vector ``theta``, with the first
    and second moment accumulators over it; ``bounds`` holds each array's
    (start, stop) in it, in ``_flatten`` order."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    bounds: tuple

    @classmethod
    def create(cls, params, heads, lr):
        """Copy the parameters into one vector and rebind every array of
        ``params`` and ``heads`` to its view into it."""
        arrs = _flatten(params, heads)
        theta = np.concatenate([a.ravel() for a in arrs])
        stops = np.cumsum([a.size for a in arrs]).tolist()
        bounds = tuple(zip([0, *stops[:-1]], stops))
        views = [theta[lo:hi].reshape(a.shape) for a, (lo, hi) in zip(arrs, bounds)]
        n = len(params.weights)
        params.weights, params.biases = views[:n], views[n:2 * n]
        heads.f_w, heads.f_b, heads.g_w, heads.g_b = views[2 * n:]
        return cls(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                   step=0, lr=lr, bounds=bounds)


def adam_step(mlp_grads, head_grads, state):
    """In-place Adam update of ``state.theta`` with bias correction, after
    clipping the global gradient norm at GRAD_CLIP_NORM. Raises on
    non-finite gradients or parameters.

    The norm's square is summed array by array, each array's share one
    reduction over its slice of a single squared vector: the bits of
    ``np.sum(a * a)`` per array, without a temporary per array."""
    g = np.concatenate([a.ravel() for a in _flatten(mlp_grads, head_grads)])
    sq = g * g
    total = np.sqrt(sum(float(np.add.reduce(sq[lo:hi])) for lo, hi in state.bounds))
    if not np.isfinite(total):
        raise NeuralError("non-finite gradient; training aborted")
    if total > GRAD_CLIP_NORM:
        g *= GRAD_CLIP_NORM / total

    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1 - ADAM_BETA2) * g * g
    state.theta -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    if not np.isfinite(state.theta).all():
        raise NeuralError("non-finite parameter after update")
