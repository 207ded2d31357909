"""Nonparametric survival estimation: Kaplan-Meier product-limit curves,
the censoring-distribution Kaplan-Meier estimate, and the Breslow baseline
survival estimator for proportional-hazards models.

All curves are right-continuous step functions. Internally they store the
cumulative hazard and expose survival as exp(-H) so rounding can never
produce negative survival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EstimatorError(ValueError):
    pass


@dataclass(frozen=True)
class StepSurvivalCurve:
    """Right-continuous piecewise-constant survival function.

    knot_times: strictly increasing times where the curve may drop
    cum_hazard: cumulative hazard at each knot (nondecreasing)

    S(t) = exp(-cum_hazard at the largest knot <= t), and S(t) = 1 before
    the first knot.
    """

    knot_times: np.ndarray
    cum_hazard: np.ndarray

    def __post_init__(self):
        if len(self.knot_times) != len(self.cum_hazard):
            raise EstimatorError("knot/hazard length mismatch")
        if len(self.knot_times) and np.any(np.diff(self.knot_times) <= 0):
            raise EstimatorError("knot times must be strictly increasing")

    def _eval(self, t, side):
        # H is 0 before the first knot, then the hazard of the last knot passed
        h = np.concatenate([[0.0], self.cum_hazard])[
            np.searchsorted(self.knot_times, np.asarray(t, dtype=float), side=side)]
        out = np.exp(-h)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        """Evaluate S(t), right-continuous; supports scalars and arrays."""
        return self._eval(t, "right")

    def eval_left(self, t):
        """Left limit S(t-): the value just before any knot exactly at t."""
        return self._eval(t, "left")


def _deaths_by_time(times, events, groups):
    """Records sorted by group, then time, and split at each distinct
    (group, time). Returns the sort order, the sorted groups and, per
    distinct (group, time), its first sorted position and its number of
    events. Times already in order sort in microseconds."""
    time_order = np.argsort(times, kind="stable")
    order = time_order[np.argsort(groups[time_order], kind="stable")]
    t, g = times[order], groups[order]
    start = np.flatnonzero(np.r_[True, (t[1:] != t[:-1]) | (g[1:] != g[:-1])])
    return order, g, start, np.add.reduceat(events[order], start)


def _km_increments(times, events, groups, weights=None):
    """The product-limit estimate within each group: for each distinct
    event time of a group, the group, the time and the increment of -log
    survival. Ties: all events at a time share the risk set; same-time
    censored individuals stay in the risk set. ``weights``, if given, are
    non-negative integer record counts, one per record: a record of weight
    w counts as w copies of it, so the increments are those of the
    expanded records, bit for bit."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise EstimatorError("empty input")
    w = np.ones(times.size, dtype=int) if weights is None else np.asarray(weights)
    if w.shape != times.shape or w.dtype.kind not in "iu" or (w < 0).any():
        raise EstimatorError("weights must be non-negative integers, one per record")
    order, g, start, deaths = _deaths_by_time(times, events * w, groups)
    # the weight from each distinct time to the end of its group
    before = np.zeros(times.size + 1, dtype=w.dtype)
    np.cumsum(w[order], out=before[1:])
    at_risk = before[np.cumsum(np.bincount(g))[g[start]]] - before[start]
    keep = deaths > 0
    first = start[keep]
    with np.errstate(divide="ignore"):  # everyone at risk dies: H = inf
        return g[first], times[order[first]], -np.log1p(-deaths[keep] / at_risk[keep])


def kaplan_meier(times, events, *, weights=None):
    """Product-limit survival estimate with knots at distinct event times.
    ``weights`` are non-negative integer record counts (EstimatorError
    otherwise)."""
    _, knots, inc = _km_increments(times, events, np.zeros(np.size(times), dtype=int), weights)
    return StepSurvivalCurve(knot_times=knots, cum_hazard=np.cumsum(inc))


def kaplan_meier_at(times, events, groups, t, *, weights=None):
    """Product-limit survival at time t within each group 0..max(groups):
    for every k, the value kaplan_meier(times[groups == k],
    events[groups == k])(t), computed in one pass over all records.
    ``weights`` are integer record counts. Integer labels keep their type:
    numpy sorts 8- and 16-bit ones stably by radix."""
    groups = np.asarray(groups)
    groups = groups if groups.dtype.kind in "iu" else groups.astype(int)
    g, knots, inc = _km_increments(times, events, groups, weights)
    sel = knots <= t
    # bincount adds each group's increments in time order, the order of
    # kaplan_meier's cumulative sum
    return np.exp(-np.bincount(g[sel], inc[sel], minlength=int(groups.max()) + 1))


def censoring_km(times, events, *, weights=None):
    """Kaplan-Meier estimate of the censoring distribution G: the
    product-limit curve with the flipped indicator 1-event, with the
    options of kaplan_meier."""
    events = np.asarray(events, dtype=int)
    return kaplan_meier(times, 1 - events, weights=weights)


def breslow(times, events, log_hazards):
    """Breslow estimate of the baseline survival function.

    Cumulative baseline hazard jumps at each distinct event time by
    d / sum_{j in risk set} exp(log_hazard_j), where the risk set holds
    everyone with time >= that event time (Breslow tie handling: tied
    events share one denominator). Returns exp(-cumulative hazard) as a
    step curve.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    log_hazards = np.asarray(log_hazards, dtype=float)
    if times.size == 0:
        raise EstimatorError("empty input")
    if not np.all(np.isfinite(log_hazards)):
        raise EstimatorError("non-finite log hazards")
    order, _, start, deaths = _deaths_by_time(times, events, np.zeros(times.size, dtype=int))
    first = start[deaths > 0]
    # total exp-hazard of everyone with time >= each distinct time
    tail = np.cumsum(np.exp(log_hazards[order])[::-1])[::-1]
    return StepSurvivalCurve(knot_times=times[order[first]],
                             cum_hazard=np.cumsum(deaths[deaths > 0] / tail[first]))
