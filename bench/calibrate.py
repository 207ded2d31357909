"""A fixed reference computation, timed next to every benchmark iteration.

The shared host this benchmark runs on slows the same iteration by up to
half, for stretches from seconds to minutes, and CPU time moves with wall
time, so the slowdown is in the processor, not in scheduling. A slow stretch
slows this kernel too. Dividing an iteration's wall time by the mean time of
the kernel runs just before and just after it cancels most of the host's
state and leaves the program's cost, in units of this kernel.

The kernel mixes the kinds of work the library does: interpreter loops
(Kaplan-Meier, the CLI, CSV), pairwise broadcasting over large arrays
(concordance, AUC), small dense matrix products with elementwise maths (the
encoder), sorting with cumulative sums (Breslow, risk sets) and many numpy
calls on short arrays (spline evaluation, per-minibatch work in small fits).
It uses numpy alone, never coxmix, and its inputs are fixed, so a change to
the library never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# median time of one kernel run between benchmark iterations on the 2-vCPU
# host of the first baseline; turns a time over the kernel's back into
# seconds on that host
REFERENCE_S = 0.43

_RNG = np.random.default_rng(20210115)
_PAIRS_A = _RNG.random(128)
_PAIRS_B = _RNG.random(4000)
_X = _RNG.standard_normal((4000, 20))
_W1 = _RNG.standard_normal((20, 100)) * 0.1
_W2 = _RNG.standard_normal((100, 3)) * 0.1
_T = _RNG.exponential(1.0, 100_000)
_LOOP = [float(v) for v in _RNG.random(20_000)]
_GRID = np.sort(_RNG.random(200))
_CURVE = np.cumsum(_RNG.random(200))


def _interpreter():
    s, acc = 1.0, 0.0
    for _ in range(60):
        for v in _LOOP:
            s *= 1.0 - v * 1e-5
            acc += s if v > 0.5 else -s
    return acc


def _pairs():
    total = 0.0
    for _ in range(48):
        less = _PAIRS_A[:, None] < _PAIRS_B[None, :]
        ties = _PAIRS_A[:, None] == _PAIRS_B[None, :]
        total += float(np.sum(less + 0.5 * ties))
    return total


def _dense():
    total = 0.0
    for _ in range(24):
        h = np.tanh(_X @ _W1)
        out = h @ _W2
        total += float(np.sum(np.exp(out - out.max(axis=1, keepdims=True))))
    return total


def _sort_scan():
    total = 0.0
    for _ in range(5):
        order = np.argsort(-_T, kind="stable")
        total += float(np.cumsum(np.exp(_T[order] * 0.01))[-1])
    return total


def _small_calls():
    total = 0.0
    for i in range(5000):
        x = _GRID[i % 50:i % 50 + 150]
        y = np.interp(x, _GRID, _CURVE)
        idx = np.searchsorted(_GRID, x)
        total += float(np.sum(np.exp(-np.cumsum(y))) + idx[-1])
    return total


def kernel():
    """Run the reference computation once; returns a checksum."""
    return _interpreter() + _pairs() + _dense() + _sort_scan() + _small_calls()


def timed():
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def first_timing():
    """Warm the kernel up (first touch of its arrays and code), then time
    it; returns a list holding that one time, for the run to extend."""
    kernel()
    kernel()
    return [timed()]
