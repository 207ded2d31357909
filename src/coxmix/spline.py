"""Cubic-spline smoothing of step baseline survival curves.

The Breslow estimator yields a step function, which has no density; the
posterior over mixture components for an uncensored observation needs one.
A degree-3 interpolating spline through the step curve's knots supplies a
differentiable survival estimate, with constant-hazard extrapolation past
the last knot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

EPS_SURVIVAL = 1e-10  # lower clamp for evaluated survival values
EPS_DENSITY = 1e-10   # floor for the implied event density
MAX_KNOTS = 100       # knots kept by fit_spline; more make the cubic oscillate


@dataclass(frozen=True)
class SplineSurvivalCurve:
    """Degree-3 interpolating spline through (time, survival) knots.

    The interpolant is a monotonicity-preserving piecewise-cubic Hermite
    spline, so the evaluated survival never increases between knots.
    Beyond the last knot the curve decays exponentially at ``tail_hazard``,
    the average hazard over the final inter-knot interval. ``is_fallback``
    marks curves built from degenerate (< 2 knot) inputs.
    """

    knots: np.ndarray
    values: np.ndarray
    tail_hazard: float
    is_fallback: bool = False
    _spline: PchipInterpolator = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self._spline is None and len(self.knots) >= 2:
            object.__setattr__(
                self, "_spline", PchipInterpolator(self.knots, self.values))

    def __call__(self, t):
        return spline_eval(self, t)

    def derivative(self, t):
        return spline_derivative(self, t)


def fit_spline(curve):
    """Interpolate a step survival curve with a degree-3 spline (a
    monotone piecewise-cubic Hermite interpolant, so the result is itself
    a valid survival curve).

    A knot at t=0 with survival 1 is prepended when the step curve starts
    later or is empty (the step curve is 1 there). Curves with more than
    ``MAX_KNOTS`` knots are thinned by even-rank subsampling, always keeping
    the first and last knot: uncapped interpolation through thousands of
    noisy steps oscillates. A step curve with no knot after t=0 produces a
    flagged constant fallback with a zero tail hazard.
    """
    kt = np.asarray(curve.knot_times, dtype=float)
    sv = np.asarray(curve.survival_values, dtype=float)
    if kt.size == 0 or kt[0] > 0:
        kt = np.concatenate([[0.0], kt])
        sv = np.concatenate([[1.0], sv])
    if kt.size > MAX_KNOTS:
        pick = np.unique(np.round(np.linspace(0, kt.size - 1, MAX_KNOTS)).astype(int))
        kt, sv = kt[pick], sv[pick]
    if kt.size < 2:  # a single knot, at t=0 after the prepend
        return SplineSurvivalCurve(knots=kt, values=sv, tail_hazard=0.0, is_fallback=True)
    s_prev = max(float(sv[-2]), EPS_SURVIVAL)
    s_last = max(float(sv[-1]), EPS_SURVIVAL)
    tail = max((np.log(s_prev) - np.log(s_last)) / (kt[-1] - kt[-2]), 0.0)
    return SplineSurvivalCurve(knots=kt, values=sv, tail_hazard=tail)


def _piecewise(s, t, nu):
    """Unclamped S(t) (nu=0) or dS/dt (nu=1) as a 1-d array: 1 or 0 before
    the first knot; between knots the monotone cubic's value or slope (the
    knot value or 0 for a single-knot fallback); past the last knot the
    exponential constant-hazard tail or its slope -tail_hazard * tail."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    lo, hi = s.knots[0], s.knots[-1]
    before = t < lo
    after = t > hi
    mid = ~(before | after)  # a NaN time lands here and evaluates to NaN
    out[before] = 1.0 - nu
    if np.any(after):
        tail = max(s.values[-1], EPS_SURVIVAL) * np.exp(-s.tail_hazard * (t[after] - hi))
        out[after] = tail if nu == 0 else -s.tail_hazard * tail
    if np.any(mid):
        if s._spline is None:  # single-knot fallback
            out[mid] = s.values[-1] if nu == 0 else 0.0
        else:
            out[mid] = s._spline(t[mid], nu)
    return out


def spline_eval(s, t):
    """Clamped spline survival value at t (scalar or array).

    1 before the first knot; exponential constant-hazard tail after the
    last knot; in between, the monotone cubic clipped to [EPS_SURVIVAL, 1]
    (the interpolant never overshoots the knot values, so the clip only
    guards the floor).
    """
    out = np.clip(_piecewise(s, t, 0), EPS_SURVIVAL, 1.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def spline_derivative(s, t):
    """Analytic derivative dS/dt, clamped to at most -EPS_DENSITY so the
    implied event density is strictly positive."""
    out = np.minimum(_piecewise(s, t, 1), -EPS_DENSITY)
    return float(out[0]) if np.ndim(t) == 0 else out


def density_given_cluster(s, log_hazard, t):
    """Event density at t for an individual with the given log hazard
    ratio, under this baseline: -exp(f) * S(t|x)/S0(t) * dS0/dt where
    S(t|x) = S0(t)^exp(f). Floored at EPS_DENSITY."""
    if not np.all(np.isfinite(log_hazard)):
        raise ValueError("non-finite log hazard")
    return event_density(np.exp(log_hazard), spline_eval(s, t), spline_derivative(s, t))


def event_density(ef, s0, ds0):
    """The density of ``density_given_cluster`` from the hazard ratio ef =
    exp(f) and the baseline's value s0 and slope ds0 at the event time:
    -ef * S0^ef / S0 * dS0/dt, floored at EPS_DENSITY. Elementwise."""
    return np.maximum(-ef * np.power(s0, ef) / s0 * ds0, EPS_DENSITY)


def spline_to_dict(s):
    """Serializable representation (knots and values round-trip exactly
    through decimal text; the cubic is refit deterministically on load)."""
    return {
        "knots": [float(v) for v in s.knots],
        "values": [float(v) for v in s.values],
        "tail_hazard": float(s.tail_hazard),
        "is_fallback": bool(s.is_fallback),
    }


def spline_from_dict(d):
    """Inverse of ``spline_to_dict``. Raises ValueError unless the knots are
    finite and strictly increase, the values are finite, never increase and
    lie in [0, 1], and the tail hazard is finite and at least 0."""
    knots = np.asarray(d["knots"], dtype=float)
    values = np.asarray(d["values"], dtype=float)
    tail = float(d["tail_hazard"])
    if (knots.ndim != 1 or knots.size == 0 or values.shape != knots.shape
            or not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    if not (np.all((values >= 0) & (values <= 1)) and np.all(np.diff(values) <= 0)):
        raise ValueError("spline values must lie in [0, 1] and never increase")
    if not 0 <= tail < np.inf:
        raise ValueError("spline tail hazard must be finite and at least 0")
    return SplineSurvivalCurve(knots=knots, values=values, tail_hazard=tail,
                               is_fallback=bool(d["is_fallback"]))
