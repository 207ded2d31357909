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


def softmax(logits):
    """Row softmax with max-subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def heads_forward(heads, rep):
    """Affine heads: (log_hazards, gating_logits), each (N, K)."""
    return rep @ heads.f_w + heads.f_b, rep @ heads.g_w + heads.g_b


def backward(params, heads, cache, rep, d_log_hazards, d_gating_logits):
    """Exact gradients of a scalar loss given its gradients wrt the two
    head outputs. Returns (mlp gradients, head gradients) mirroring the
    parameter structures."""
    d_log_hazards = np.asarray(d_log_hazards, dtype=float)
    d_gating_logits = np.asarray(d_gating_logits, dtype=float)
    if d_log_hazards.shape != (rep.shape[0], heads.f_w.shape[1]):
        raise NeuralError("upstream gradient shape mismatch")
    head_grads = HeadParams(
        f_w=rep.T @ d_log_hazards, f_b=d_log_hazards.sum(axis=0),
        g_w=rep.T @ d_gating_logits, g_b=d_gating_logits.sum(axis=0),
    )
    da = d_log_hazards @ heads.f_w.T + d_gating_logits @ heads.g_w.T
    gw, gb = [], []
    for a_in, a_out, w in zip(reversed(cache), reversed([*cache[1:], rep]),
                              reversed(params.weights)):
        dz = da * (a_out > 0)  # relu(z) > 0 exactly where z > 0
        gw.append(a_in.T @ dz)
        gb.append(dz.sum(axis=0))
        da = dz @ w.T
    mlp_grads = MlpParams(
        weights=gw[::-1], biases=gb[::-1], layer_dims=params.layer_dims)
    return mlp_grads, head_grads


def _flatten(params, heads):
    return [*params.weights, *params.biases, heads.f_w, heads.f_b, heads.g_w, heads.g_b]


@dataclass
class AdamState:
    """The parameters as one contiguous vector ``theta``, with the first
    and second moment accumulators over it."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float

    @classmethod
    def create(cls, params, heads, lr):
        """Copy the parameters into one vector and rebind every array of
        ``params`` and ``heads`` to its view into it."""
        arrs = _flatten(params, heads)
        theta = np.concatenate([a.ravel() for a in arrs])
        parts = np.split(theta, np.cumsum([a.size for a in arrs])[:-1])
        views = [part.reshape(a.shape) for a, part in zip(arrs, parts)]
        n = len(params.weights)
        params.weights, params.biases = views[:n], views[n:2 * n]
        heads.f_w, heads.f_b, heads.g_w, heads.g_b = views[2 * n:]
        return cls(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                   step=0, lr=lr)


def adam_step(mlp_grads, head_grads, state):
    """In-place Adam update of ``state.theta`` with bias correction, after
    clipping the global gradient norm at GRAD_CLIP_NORM. Raises on
    non-finite gradients or parameters."""
    grads = _flatten(mlp_grads, head_grads)
    total = np.sqrt(sum(float(np.sum(a * a)) for a in grads))
    if not np.isfinite(total):
        raise NeuralError("non-finite gradient; training aborted")
    g = np.concatenate([a.ravel() for a in grads])
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
    if not np.all(np.isfinite(state.theta)):
        raise NeuralError("non-finite parameter after update")
