"""Brute-force IPCW references for the evaluation metrics.

Everything here enumerates directly: the censoring Kaplan-Meier is a
product over distinct censoring times, and concordance and AUC compare
every (case, other) pair. The cost is O(n^2) and the code shares nothing
with ``coxmix.metrics`` or ``coxmix.estimators`` beyond the documented
weight floor, so a faster library implementation can be checked against it.
"""

from __future__ import annotations

import numpy as np

from coxmix.metrics import MIN_IPCW_DENOM

_CHUNK = 512  # case rows per pair block, bounds memory at n = 16k


def censoring_survival(times, events, at, left):
    """Censoring-distribution Kaplan-Meier G at each point of ``at``.

    G(a) = prod over distinct censoring times u <= a (u < a when ``left``)
    of 1 - c_u / r_u, with c_u the records censored at u and r_u the
    records with time >= u. Same-time events stay in the risk set.
    """
    times = np.asarray(times, dtype=float)
    censored = np.asarray(events) == 0
    factors = {}
    for u in np.unique(times[censored]):
        c = np.count_nonzero(censored & (times == u))
        r = np.count_nonzero(times >= u)
        factors[u] = 1.0 - c / r
    us = np.array(list(factors), dtype=float)
    fs = np.array(list(factors.values()), dtype=float)
    out = np.empty(np.size(at))
    for i, a in enumerate(np.atleast_1d(at)):
        mask = us < a if left else us <= a
        out[i] = np.prod(fs[mask])
    return out


def _cases(times, events, horizon, g_left):
    return (np.asarray(events) == 1) & (times <= horizon) & (g_left > MIN_IPCW_DENOM)


def concordance(pi, times, events, horizon):
    """Uno's IPCW time-dependent concordance by pair enumeration."""
    g_left = censoring_survival(times, events, times, left=True)
    cases = np.flatnonzero(_cases(times, events, horizon, g_left))
    num = den = 0.0
    for lo in range(0, cases.size, _CHUNK):
        i = cases[lo:lo + _CHUNK]
        w = 1.0 / g_left[i] ** 2
        later = times[None, :] > times[i, None]
        score = (pi[i, None] < pi[None, :]) + 0.5 * (pi[i, None] == pi[None, :])
        num += float(np.sum(w * np.sum(later * score, axis=1)))
        den += float(np.sum(w * np.sum(later, axis=1)))
    return num / den


def auc(pi, times, events, horizon):
    """IPCW cumulative/dynamic AUC as a weighted Mann-Whitney statistic:
    cases weighted 1 / (n G(T-)), controls (T > horizon) unweighted, risk
    1 - pi, prediction ties counted half."""
    n = times.size
    g_left = censoring_survival(times, events, times, left=True)
    cases = np.flatnonzero(_cases(times, events, horizon, g_left))
    risk = 1.0 - pi
    r_ctrl = risk[times > horizon]
    num = 0.0
    for lo in range(0, cases.size, _CHUNK):
        i = cases[lo:lo + _CHUNK]
        w = 1.0 / (n * g_left[i])
        wins = (risk[i, None] > r_ctrl[None, :]) + 0.5 * (risk[i, None] == r_ctrl[None, :])
        num += float(np.sum(w * np.sum(wins, axis=1)))
    total_w = float(np.sum(1.0 / (n * g_left[cases])))
    return num / (total_w * r_ctrl.size)


def brier(pi, times, events, horizon):
    """IPCW Brier score, one term per record."""
    g_left = censoring_survival(times, events, times, left=True)
    g_t = float(censoring_survival(times, events, [horizon], left=False)[0])
    total = 0.0
    for p, t, e, g in zip(pi, times, events, g_left):
        if t <= horizon and e == 1 and g > MIN_IPCW_DENOM:
            total += p * p / g
        elif t > horizon and g_t > MIN_IPCW_DENOM:
            total += (1.0 - p) ** 2 / g_t
    return total / times.size
