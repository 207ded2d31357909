"""Cubic-spline smoothing of step baseline survival curves.

The Breslow estimator yields a step function, which has no density; the
posterior over mixture components for an uncensored observation needs one.
A monotone piecewise-cubic Hermite spline (Fritsch & Carlson, SIAM J. Numer.
Anal. 1980) through the step curve's knots supplies a differentiable survival
estimate, with constant-hazard extrapolation past the last knot. Its knot
slopes follow scipy's PCHIP rule: inside, the weighted harmonic mean of the
adjacent secants of Fritsch & Butland (SIAM J. Sci. Stat. Comput. 1984), 0
where they differ in sign or one is 0; at each end, a one-sided three-point
estimate kept shape-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS_SURVIVAL = 1e-10  # lower clamp for evaluated survival values
EPS_DENSITY = 1e-10   # floor for the implied event density
MAX_KNOTS = 100       # knots kept by fit_spline; more make the cubic oscillate


@dataclass(frozen=True)
class SplineSurvivalCurve:
    """Monotone cubic through (time, survival) knots, so the evaluated
    survival never increases between knots. Beyond the last knot the curve
    decays exponentially at ``tail_hazard``, the average hazard over the
    final inter-knot interval. The knots and values are the whole curve:
    the tail and the cubic are derived from them.
    """

    knots: np.ndarray
    values: np.ndarray
    tail_hazard: float = field(init=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)  # see _pchip_coef

    def __post_init__(self):
        if len(self.knots) >= 2:
            s_prev, s_last = np.maximum(self.values[-2:], EPS_SURVIVAL)
            tail = max((np.log(s_prev) - np.log(s_last)) / (self.knots[-1] - self.knots[-2]), 0.0)
            coef = _pchip_coef(self.knots, self.values)
        else:  # a single knot: a flat curve, one interval of its value
            tail, coef = 0.0, np.array([[0.0], [0.0], [0.0], [self.values[0]]])
        object.__setattr__(self, "tail_hazard", float(tail))
        object.__setattr__(self, "_coef", coef)

    def __call__(self, t):
        return spline_eval(self, t)


def _pchip_coef(x, y):
    """(4, m-1) table: each interval's cubic in powers of t - its left knot,
    highest first, with the module's knot slopes d. y never increases, so no
    secants differ in sign and scipy's 3 * m0 cap on the end slopes is moot."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if y.size > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(all="ignore"):  # 0 secants are masked; tiny ones overflow to slope 0
            d[1:-1] = np.where((m[:-1] < 0) & (m[1:] < 0),
                               1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0, end)
    c = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([c / h, (m - d[:-1]) / h - c, d[:-1], y[:-1]])


def fit_spline(curve):
    """Interpolate a step survival curve with the monotone cubic, so the
    result is itself a valid survival curve.

    A knot at t=0 with survival 1 is prepended when the step curve starts
    later or is empty (the step curve is 1 there). Curves with more than
    ``MAX_KNOTS`` knots are thinned by even-rank subsampling, always keeping
    the first and last knot: uncapped interpolation through thousands of
    noisy steps oscillates. A step curve with no knot after t=0 gives a
    single-knot curve, constant at 1.
    """
    kt = np.asarray(curve.knot_times, dtype=float)
    sv = np.exp(-curve.cum_hazard)
    if kt.size == 0 or kt[0] > 0:
        kt = np.concatenate([[0.0], kt])
        sv = np.concatenate([[1.0], sv])
    if kt.size > MAX_KNOTS:
        pick = np.unique(np.round(np.linspace(0, kt.size - 1, MAX_KNOTS)).astype(int))
        kt, sv = kt[pick], sv[pick]
    return SplineSurvivalCurve(knots=kt, values=sv)


def spline_value_and_slope(s, t):
    """S(t) and dS/dt as two 1-d arrays: 1 and 0 before the first knot, the
    monotone cubic's value and slope between knots (the knot value and 0
    for a single knot), the exponential constant-hazard tail and its slope
    -tail_hazard * tail past the last knot, and NaN at a NaN time. Every
    point gets the cubic at t clipped to the knots (one interval lookup);
    the points past the last knot then get the tail, and those before the
    first knot 1 and 0. S is clipped to [EPS_SURVIVAL, 1]
    (the cubic never overshoots the knots, so this guards the floor), dS/dt
    to at most -EPS_DENSITY, so the implied event density is positive."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = s.knots[0], s.knots[-1]
    tc = np.clip(t, lo, hi)
    i = np.minimum(np.searchsorted(s.knots, tc, "right") - 1, s._coef.shape[1] - 1)
    x, (a, b, c, y0) = tc - s.knots[i], s._coef.take(i, axis=1)
    x2 = x * x  # terms summed in scipy PPoly's order, so its bits are kept
    val = y0 + c * x + b * x2 + a * (x2 * x)
    slope = c + b * x * 2 + a * x2 * 3
    after = t > hi
    tail = max(s.values[-1], EPS_SURVIVAL) * np.exp(-s.tail_hazard * (t[after] - hi))
    val[after], slope[after] = tail, -s.tail_hazard * tail
    before = t < lo
    val[before], slope[before] = 1.0, 0.0
    return np.clip(val, EPS_SURVIVAL, 1.0, out=val), np.minimum(slope, -EPS_DENSITY, out=slope)


def spline_eval(s, t):
    """Clamped spline survival value at t (scalar or array): 1 before the
    first knot, the exponential constant-hazard tail after the last, the
    monotone cubic in between; clamped as by ``spline_value_and_slope``."""
    out = spline_value_and_slope(s, t)[0]
    return float(out[0]) if np.ndim(t) == 0 else out


def density_given_cluster(ef, s0, ds0):
    """Event density at an event time for an individual with hazard ratio
    ef = exp(f), from the baseline's value s0 and slope ds0 there:
    -ef * S(t|x)/S0(t) * dS0/dt where S(t|x) = S0(t)^ef. Floored at
    EPS_DENSITY. Elementwise."""
    return np.maximum(-ef * np.power(s0, ef) / s0 * ds0, EPS_DENSITY)


def spline_to_dict(s):
    """Serializable representation: the knots and values, which round-trip
    exactly through decimal text; the tail and the cubic are rebuilt from
    them on load."""
    return {"knots": s.knots.tolist(), "values": s.values.tolist()}


def spline_from_dict(d):
    """Inverse of ``spline_to_dict``; other keys are ignored. Raises
    ValueError unless the knots are finite and strictly increase, the
    values never increase and lie in [0, 1], and the secants, tail hazard
    and coefficient table derived from them are finite (knots closer than
    a float can divide by are not)."""
    knots = np.asarray(d["knots"], dtype=float)
    values = np.asarray(d["values"], dtype=float)
    if (knots.ndim != 1 or knots.size == 0 or values.shape != knots.shape
            or not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    if not (np.all((values >= 0) & (values <= 1)) and np.all(np.diff(values) <= 0)):
        raise ValueError("spline values must lie in [0, 1] and never increase")
    with np.errstate(all="ignore"):  # an overflow is rejected below, not warned about
        s = SplineSurvivalCurve(knots=knots, values=values)
        secants = np.diff(values) / np.diff(knots)
    if not (np.all(np.isfinite(secants)) and np.isfinite(s.tail_hazard)
            and np.all(np.isfinite(s._coef))):
        raise ValueError("spline knots too close: the derived curve is not finite")
    return s
