"""Censoring-adjusted evaluation of survival predictions.

All metrics take the predicted survival probability pi_i(t) at a horizon t
and adjust for right censoring with inverse-probability-of-censoring
weights (IPCW) from a Kaplan-Meier estimate G of the censoring
distribution. G at an observed event time is always taken as a left limit
to avoid the event's own censoring contribution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from coxmix.estimators import censoring_km, kaplan_meier_at

MIN_IPCW_DENOM = 1e-4   # drop records with smaller G from IPCW sums
MIN_GROUP_SIZE = 20
DEFAULT_ECE_BINS = 20


class MetricError(ValueError):
    pass


def _count_later_above(times, ranks, at_times, above):
    """For each query q, the number of records with a time strictly after
    at_times[q] and a rank strictly above above[q] (ranks are integers in
    [0, n)).

    Records sorted by time form a merge-sort tree: the prefix of the s
    records not later than a query splits into one aligned block of 2^k
    positions per set bit k of s. Within a level the (block, rank) keys are
    sorted once, so each block count is one searchsorted. O(n log^2 n) time
    and O(n) memory.
    """
    order = np.argsort(times, kind="stable")
    ranks = ranks[order]
    n = ranks.size
    prefix = np.searchsorted(times[order], at_times, side="right")
    # queries in (prefix, above) order keep each level's searchsorted local
    q = np.lexsort((above, prefix))
    prefix, above = prefix[q], above[q]
    span = n + 1  # ranks < n, so keys block * span + rank never collide
    count = n - np.searchsorted(np.sort(ranks), above, side="right")
    pos = np.arange(n)
    for k in range(int(prefix.max(initial=0)).bit_length()):
        sel = (prefix >> k) & 1 == 1
        block = (prefix[sel] >> k) - 1
        keys = np.sort((pos >> k) * span + ranks)
        # keys of block b fill positions [b * 2^k, (b + 1) * 2^k)
        count[sel] -= ((block + 1) << k) - np.searchsorted(
            keys, block * span + above[sel], side="right")
    out = np.empty_like(count)
    out[q] = count
    return out


def _check_predictions(pi, what, probabilities):
    """MetricError unless every entry of ``pi`` is finite and, if read as
    survival ``probabilities`` (Brier, calibration, the report), in [0, 1];
    the rank metrics (concordance, AUC) take any finite score."""
    ok = (pi >= 0.0) & (pi <= 1.0) if probabilities else np.isfinite(pi)
    if not ok.all():
        problem = ("NaN predictions" if np.isnan(pi).any() else
                   "predictions outside [0, 1]" if probabilities else "infinite predictions")
        raise MetricError(f"{what} contains {problem}")


def _ipcw_inputs(surv_probs, times, events, g_curve, horizon, probabilities=False):
    """The arrays an IPCW metric scores, as (pi, times, events, g_left,
    cases): the censoring left limit G(T-) of every record and the cases,
    observed events by the horizon with G(T-) > MIN_IPCW_DENOM. Raises
    MetricError on predictions ``_check_predictions`` rejects."""
    pi = np.asarray(surv_probs, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    _check_predictions(pi, "surv_probs", probabilities)
    g_left = g_curve.eval_left(times)
    cases = (events == 1) & (times <= horizon) & (g_left > MIN_IPCW_DENOM)
    return pi, times, events, g_left, cases


def concordance_td(surv_probs, times, events, g_curve, horizon):
    """Time-dependent concordance at a horizon, IPCW-weighted (Uno).

    Comparable pairs (i, j): i has an observed event, T_i < T_j, and
    T_i <= horizon; the pair is concordant when i is predicted at higher
    risk (lower survival probability). Ties in prediction count half; ties
    in time are excluded. Pairs are counted over time-sorted records
    (Uno et al., Stat Med 2011) without forming the n x n pairs.
    """
    pi, times, _, g_left, cases = _ipcw_inputs(surv_probs, times, events, g_curve, horizon)
    ranks = np.unique(pi, return_inverse=True)[1]
    r = ranks[cases]
    # later records predicted to survive longer, and at least as long
    higher, at_least = np.split(_count_later_above(
        times, ranks, np.tile(times[cases], 2), np.concatenate([r, r - 1])), 2)
    later = times.size - np.searchsorted(np.sort(times), times[cases], side="right")
    w = 1.0 / g_left[cases] ** 2
    den = float(np.sum(w * later))
    if den == 0:
        raise MetricError("no comparable pairs at this horizon")
    return float(np.sum(w * (higher + 0.5 * (at_least - higher)))) / den


def auc_ipcw(surv_probs, times, events, g_curve, horizon):
    """IPCW-adjusted area under the ROC curve at a horizon.

    Cases are observed events with T <= horizon, weighted by
    delta / (n * G(T-)); controls are records with T > horizon
    (unweighted, per the specificity definition). Sensitivity/specificity
    are swept over the distinct predicted values and the (FPR, TPR) curve
    is integrated by trapezoid, which credits prediction ties by half.
    """
    pi, times, _, g_left, cases = _ipcw_inputs(surv_probs, times, events, g_curve, horizon)
    n = times.size
    controls = times > horizon
    if not np.any(cases) or not np.any(controls):
        raise MetricError("need at least one case and one control at this horizon")

    risk = 1.0 - pi  # higher risk = predicted earlier event
    order = np.argsort(risk[cases])
    r_case = risk[cases][order]
    # w_tail[k]: total weight of the cases from sorted position k on
    w_case = 1.0 / (n * g_left[cases][order])
    w_tail = np.append(np.cumsum(w_case[::-1])[::-1], 0.0)
    r_ctrl = np.sort(risk[controls])

    # sweep from high threshold (Se=0, FPR=0) to low (Se=1, FPR=1);
    # sensitivity is the weight of cases with risk > c, FPR the share of
    # controls with risk > c
    cs = np.concatenate([np.unique(risk)[::-1], [-np.inf]])
    se = w_tail[np.searchsorted(r_case, cs, side="right")] / w_tail[0]
    fpr = (r_ctrl.size - np.searchsorted(r_ctrl, cs, side="right")) / r_ctrl.size
    se = np.concatenate([[0.0], se])
    fpr = np.concatenate([[0.0], fpr])
    return float(np.trapezoid(se, fpr))


def calibration_bins(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS):
    """Equal-mass quantile bins of the predicted survival probability.

    Returns one (mean_predicted, km_observed, size, defined) tuple per bin:
    the mean prediction, the bin's Kaplan-Meier survival at the horizon,
    the number of records, and whether that survival is defined there. It
    is undefined when follow-up ends before the horizon with a censored
    subject and the curve has not reached zero. Predictions that are not
    probabilities (NaN, +-inf, outside [0, 1]) raise MetricError.
    """
    pi = np.asarray(surv_probs, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    _check_predictions(pi, "surv_probs", probabilities=True)
    if pi.size < n_bins:
        raise MetricError(f"need at least {n_bins} records for {n_bins} bins")

    order = np.argsort(pi, kind="stable")
    bins = np.array_split(order, n_bins)
    sizes = np.array([idx.size for idx in bins])
    in_bin = np.empty(pi.size, dtype=int)
    in_bin[order] = np.repeat(np.arange(n_bins), sizes)
    km = kaplan_meier_at(times, events, in_bin, horizon)
    # per bin: last follow-up time and the events there
    first = np.cumsum(sizes) - sizes
    t_max = np.maximum.reduceat(times[order], first)
    last_events = np.add.reduceat(
        events[order] * (times[order] == np.repeat(t_max, sizes)), first)
    # past t_max the curve is flat, so km > 0 there means S(t_max) > 0
    undefined = (horizon > t_max) & (last_events == 0) & (km > 0)
    return [(float(pi[idx].mean()), float(km[b]), int(idx.size), not undefined[b])
            for b, idx in enumerate(bins)]


def ece(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS):
    """Expected L1 calibration error at a horizon.

    Records are partitioned into equal-mass quantile bins of the predicted
    survival probability; within each bin the Kaplan-Meier survival at the
    horizon is compared to the mean prediction. Bins whose Kaplan-Meier
    estimate is undefined at the horizon (follow-up ends earlier with a
    censored subject) are skipped with a warning and the divisor reduced.
    """
    bins = calibration_bins(surv_probs, times, events, horizon, n_bins)
    gaps = [abs(km - mean) for mean, km, _, defined in bins if defined]
    if len(gaps) < len(bins):
        warnings.warn(f"ece: skipped {len(bins) - len(gaps)} bin(s) with undefined "
                      f"Kaplan-Meier at the horizon", stacklevel=2)
    if not gaps:
        raise MetricError("all calibration bins undefined at this horizon")
    return float(np.sum(gaps) / len(gaps))


def brier_ipcw(surv_probs, times, events, g_curve, horizon):
    """IPCW Brier score at a horizon:
    mean of pi^2 * 1{T<=t, event}/G(T-) + (1-pi)^2 * 1{T>t}/G(t)."""
    pi, times, events, g_left, cases = _ipcw_inputs(surv_probs, times, events, g_curve,
                                                    horizon, probabilities=True)
    g_t = g_curve(horizon)
    if g_t <= 0:
        raise MetricError("horizon beyond censoring follow-up (G(t) = 0)")
    if np.any((events == 1) & (times <= horizon) & ~cases):
        warnings.warn("brier_ipcw: dropped record(s) with near-zero censoring "
                      "weight denominator", stacklevel=2)
    late = times > horizon
    terms = np.zeros_like(pi)
    terms[cases] = pi[cases] ** 2 / g_left[cases]
    terms[late] += (1.0 - pi[late]) ** 2 / (g_t if g_t > MIN_IPCW_DENOM else np.inf)
    return float(terms.mean())


def bootstrap_se(metric_fn, n_records, n_replicates=100, seed=0):
    """Bootstrap mean and standard error of a metric, or of an array of them.

    ``metric_fn`` receives an index array (a resample of record indices
    with replacement) and must recompute everything downstream of it, the
    censoring curve included. It returns a value, or an array of values
    with NaN where one is undefined on that resample. Replicates where it
    raises are dropped. Returns (mean, se, used, defined): the mean and SE
    of each value over the replicates that define it, the number of
    replicates scored and, per value, the number that define it.
    """
    if n_records < 2:
        raise MetricError("need at least 2 records to bootstrap")
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_replicates):
        idx = rng.integers(0, n_records, size=n_records)
        try:
            values.append(metric_fn(idx))
        except MetricError:
            continue
    if not values:
        raise MetricError("all bootstrap replicates failed")
    values = np.asarray(values, dtype=float)
    stats = []
    for col in values.reshape(len(values), -1).T:
        col = col[~np.isnan(col)]
        if col.size == 0:
            stats.append((np.nan, np.nan, 0))
        else:
            stats.append((col.mean(), col.std(ddof=1) if col.size > 1 else 0.0, col.size))
    mean, se, defined = (np.reshape(v, values.shape[1:])[()] for v in zip(*stats))
    return mean, se, len(values), defined


@dataclass(frozen=True)
class MetricRow:
    metric: str
    horizon: float
    group: str
    estimate: float
    se: float
    n: int


METRIC_NAMES = ("concordance_td", "auc_ipcw", "ece", "brier_ipcw")


def _sample_metrics(surv_matrix, times, events, horizons):
    """Every metric at every horizon on one sample, all sharing one
    censoring fit: a (n_horizons, n_metrics) array, NaN where undefined."""
    g = censoring_km(times, events)
    values = np.full((len(horizons), len(METRIC_NAMES)), np.nan)
    for h_idx, horizon in enumerate(horizons):
        pi = surv_matrix[:, h_idx]
        for m_idx, name in enumerate(METRIC_NAMES):
            try:
                if name == "concordance_td":
                    values[h_idx, m_idx] = concordance_td(pi, times, events, g, horizon)
                elif name == "auc_ipcw":
                    values[h_idx, m_idx] = auc_ipcw(pi, times, events, g, horizon)
                elif name == "ece":
                    values[h_idx, m_idx] = ece(pi, times, events, horizon)
                else:
                    values[h_idx, m_idx] = brier_ipcw(pi, times, events, g, horizon)
            except MetricError:
                continue
    return values


def _stratum_metrics(surv_matrix, times, events, horizons, group,
                     n_replicates, seed):
    """Estimates on the full stratum, with SEs over bootstrap resamples of
    it; each resample is drawn and scored once for all metrics."""
    estimate = _sample_metrics(surv_matrix, times, events, horizons)
    try:
        _, se, _, defined = bootstrap_se(
            lambda idx: _sample_metrics(surv_matrix[idx], times[idx], events[idx],
                                        horizons),
            len(times), n_replicates, seed)
    except MetricError:
        se, defined = np.full(estimate.shape, np.nan), np.zeros(estimate.shape, dtype=int)
    return [MetricRow(name, float(horizon), group, float(estimate[h_idx, m_idx]),
                      float(se[h_idx, m_idx]), int(defined[h_idx, m_idx]))
            for h_idx, horizon in enumerate(horizons)
            for m_idx, name in enumerate(METRIC_NAMES)]


def evaluate_by_group(surv_matrix, times, events, horizons, groups=None,
                      n_replicates=100, seed=0):
    """Every metric at every horizon for the full population and per
    group. Each estimate is computed on the full stratum; its standard
    error and n (the bootstrap replicates that define it) come from
    n_replicates resamples of the stratum, each stratum and resample with
    its own censoring fit. Groups below MIN_GROUP_SIZE records get NaN
    estimates and n=0. Returns a list of MetricRow; raises MetricError on
    a prediction that is not a probability."""
    surv_matrix = np.asarray(surv_matrix, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if surv_matrix.shape != (times.size, len(horizons)):
        raise MetricError("surv_matrix must be (n_records, n_horizons)")
    _check_predictions(surv_matrix, "surv_matrix", probabilities=True)  # before any scoring

    rows = _stratum_metrics(surv_matrix, times, events, horizons,
                            "population", n_replicates, seed)
    if groups is not None:
        groups = np.asarray(groups)
        for label in sorted(set(groups.tolist())):
            mask = groups == label
            if mask.sum() < MIN_GROUP_SIZE:
                rows.extend(MetricRow(name, float(h), str(label), np.nan, np.nan, 0)
                            for h in horizons for name in METRIC_NAMES)
                continue
            rows.extend(_stratum_metrics(
                surv_matrix[mask], times[mask], events[mask], horizons,
                str(label), n_replicates, seed))
    return rows
