"""Censoring-adjusted evaluation of survival predictions.

All metrics take the predicted survival probability pi_i(t) at a horizon t
and adjust for right censoring with inverse-probability-of-censoring
weights (IPCW) from a Kaplan-Meier estimate G of the censoring
distribution. G at an observed event time is always taken as a left limit
to avoid the event's own censoring contribution.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from coxmix.estimators import censoring_km, kaplan_meier_at

MIN_IPCW_DENOM = 1e-4   # drop records with smaller G from IPCW sums
MIN_GROUP_SIZE = 20
DEFAULT_ECE_BINS = 20


class MetricError(ValueError):
    pass


def _count_later_above(ranks_by_time, prefix, above):
    """For each query q, the number of records after the first prefix[q]
    in time order with a rank strictly above above[q], given the records'
    ranks (integers in [0, n)) in time order. Queries in prefix order keep
    each level's searchsorted local.

    Records sorted by time form a merge-sort tree: the prefix of the s
    records not later than a query splits into one aligned block of 2^k
    positions per set bit k of s. Within a level the (block, rank) keys are
    sorted once, so each block count is one searchsorted. O(n log^2 n) time
    and O(n) memory.
    """
    n = ranks_by_time.size
    span = n + 1  # ranks < n, so keys block * span + rank never collide
    # all records ranked above the query, less those in the prefix's blocks
    count = n - np.cumsum(np.bincount(ranks_by_time, minlength=n))[above]
    pos = np.arange(n)
    for k in range(int(prefix.max(initial=0)).bit_length()):
        sel = (prefix >> k) & 1 == 1
        block = (prefix[sel] >> k) - 1
        keys = np.sort((pos >> k) * span + ranks_by_time)
        # keys of block b fill positions [b * 2^k, (b + 1) * 2^k)
        count[sel] -= ((block + 1) << k) - np.searchsorted(
            keys, block * span + above[sel], side="right")
    return count


def _stable_order(x):
    """np.argsort(x, kind="stable") and the dense ranks of x (those of
    np.unique(x, return_inverse=True)). One quicksort of x gives the ranks
    and one sort of the distinct integer keys rank * n + index gives the
    stable order, several times faster than numpy's stable float sort."""
    n = x.size
    order = np.argsort(x)
    sorted_x = x[order]
    step = np.zeros(n, dtype=bool)
    step[1:] = sorted_x[1:] != sorted_x[:-1]
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = np.cumsum(step)
    return np.sort(ranks * n + np.arange(n)) % n, ranks


class _Sample:
    """One sample (a stratum or one bootstrap resample of it) as every
    metric reads it: its times, events and censoring curve, the stable time
    order, its inverse (each record's time position), the sorted times and,
    given the curve, each record's G(T-) from one searchsorted over the
    sorted times, scattered back to record order. ``at`` adds one horizon's
    predictions. A metric given ``sample=`` reads everything from it."""

    def __init__(self, times, events, g_curve=None):
        self.times = np.asarray(times, dtype=float)
        self.events = np.asarray(events, dtype=int)
        self.g_curve = g_curve
        self.time_order, _ = _stable_order(self.times)
        self.time_pos = np.empty_like(self.time_order)
        self.time_pos[self.time_order] = np.arange(self.times.size)
        self.sorted_times = self.times[self.time_order]
        if g_curve is not None:
            self.g_left = np.empty(self.times.size)
            self.g_left[self.time_order] = g_curve.eval_left(self.sorted_times)

    def at(self, surv_probs, probabilities):
        """This sample with one horizon's checked predictions pi, ordered and ranked."""
        out = copy.copy(self)
        out.pi = _check_predictions(surv_probs, "surv_probs", probabilities)
        out.pi_order, out.ranks = _stable_order(out.pi)
        return out

    def cases(self, horizon):
        """The IPCW cases: events by the horizon with G(T-) > MIN_IPCW_DENOM."""
        return (self.events == 1) & (self.times <= horizon) & (self.g_left > MIN_IPCW_DENOM)


def _check_predictions(pi, what, probabilities):
    """``pi`` as floats; MetricError unless all are finite and, if read as survival
    ``probabilities`` (Brier, calibration, the report), in [0, 1]. The rank
    metrics (concordance, AUC) take any finite score."""
    pi = np.asarray(pi, dtype=float)
    ok = (pi >= 0.0) & (pi <= 1.0) if probabilities else np.isfinite(pi)
    if not ok.all():
        problem = ("NaN predictions" if np.isnan(pi).any() else
                   "predictions outside [0, 1]" if probabilities else "infinite predictions")
        raise MetricError(f"{what} contains {problem}")
    return pi


def concordance_td(surv_probs, times, events, g_curve, horizon, *, sample=None):
    """Time-dependent concordance at a horizon, IPCW-weighted (Uno).

    Comparable pairs (i, j): i has an observed event, T_i < T_j, and
    T_i <= horizon; the pair is concordant when i is predicted at higher
    risk (lower survival probability). Ties in prediction count half; ties
    in time are excluded. Pairs are counted over time-sorted records
    (Uno et al., Stat Med 2011) without forming the n x n pairs.
    """
    if sample is None:
        sample = _Sample(times, events, g_curve).at(surv_probs, probabilities=False)
    n, cases = sample.times.size, sample.cases(horizon)
    # cases in time order, and the records not later than each
    by_time = sample.time_order[cases[sample.time_order]]
    prefix = np.searchsorted(sample.sorted_times, sample.times[by_time], side="right")
    r = sample.ranks[by_time]
    # of the later records, those predicted to survive longer, and those
    # tied in prediction, counted in the sorted (rank, time position) keys
    higher = _count_later_above(sample.ranks[sample.time_order], prefix, r)
    keys = np.sort(sample.ranks * (n + 1) + sample.time_pos)
    tied = (np.searchsorted(keys, r * (n + 1) + n, side="right")
            - np.searchsorted(keys, r * (n + 1) + prefix))
    counts = np.empty((3, n), dtype=np.intp)
    counts[:, by_time] = higher, tied, n - prefix
    higher, tied, later = counts[:, cases]
    w = 1.0 / sample.g_left[cases] ** 2
    den = float(np.sum(w * later))
    if den == 0:
        raise MetricError("no comparable pairs at this horizon")
    return float(np.sum(w * (higher + 0.5 * tied))) / den


def auc_ipcw(surv_probs, times, events, g_curve, horizon, *, sample=None):
    """IPCW-adjusted area under the ROC curve at a horizon.

    Cases are observed events with T <= horizon, weighted by
    delta / (n * G(T-)); controls are records with T > horizon
    (unweighted, per the specificity definition). The area is the weighted
    Mann-Whitney count of (case, control) pairs in which the case has the
    higher risk 1 - pi; ties in risk count half.
    """
    if sample is None:
        sample = _Sample(times, events, g_curve).at(surv_probs, probabilities=False)
    n, cases, controls = sample.times.size, sample.cases(horizon), sample.times > horizon
    if not np.any(cases) or not np.any(controls):
        raise MetricError("need at least one case and one control at this horizon")
    # dense ranks of the risk, ascending along the reversed prediction
    # order: predictions whose 1 - pi round to the same float tie
    by_risk = sample.pi_order[::-1]
    risk = 1.0 - sample.pi[by_risk]
    ranks = np.empty(n, dtype=np.intp)
    ranks[by_risk] = np.cumsum(np.r_[False, risk[1:] != risk[:-1]])
    # per risk rank, the controls below it plus half those tied with it
    tied = np.bincount(ranks[controls], minlength=n)
    wins = np.cumsum(tied) - 0.5 * tied
    r, w = ranks[cases], 1.0 / (n * sample.g_left[cases])
    return float(np.sum(w * wins[r])) / (float(np.sum(w)) * np.count_nonzero(controls))


def calibration_bins(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS, *,
                     sample=None):
    """Equal-mass quantile bins of the predicted survival probability.

    Returns one (mean_predicted, km_observed, size, defined) tuple per bin:
    the mean prediction, the bin's Kaplan-Meier survival at the horizon,
    the number of records, and whether that survival is defined there. It
    is undefined when follow-up ends before the horizon with a censored
    subject and the curve has not reached zero. Predictions that are not
    probabilities (NaN, +-inf, outside [0, 1]) raise MetricError.
    """
    if sample is None:
        sample = _Sample(times, events).at(surv_probs, probabilities=True)
    pi, times, events, order = sample.pi, sample.times, sample.events, sample.pi_order
    if pi.size < n_bins:
        raise MetricError(f"need at least {n_bins} records for {n_bins} bins")

    bins = np.array_split(order, n_bins)
    sizes = np.array([idx.size for idx in bins])
    in_bin = np.empty(pi.size, dtype=np.min_scalar_type(n_bins - 1))
    in_bin[order] = np.repeat(np.arange(n_bins), sizes)
    km = kaplan_meier_at(times, events, in_bin, horizon, time_order=sample.time_order)
    # per bin: last follow-up time and the events there
    first = np.cumsum(sizes) - sizes
    t_max = np.maximum.reduceat(times[order], first)
    last_events = np.add.reduceat(
        events[order] * (times[order] == np.repeat(t_max, sizes)), first)
    # past t_max the curve is flat, so km > 0 there means S(t_max) > 0
    undefined = (horizon > t_max) & (last_events == 0) & (km > 0)
    return [(float(pi[idx].mean()), float(km[b]), int(idx.size), not undefined[b])
            for b, idx in enumerate(bins)]


def ece(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS, *, sample=None):
    """Expected L1 calibration error at a horizon.

    Records are partitioned into equal-mass quantile bins of the predicted
    survival probability; within each bin the Kaplan-Meier survival at the
    horizon is compared to the mean prediction. Bins whose Kaplan-Meier
    estimate is undefined at the horizon (follow-up ends earlier with a
    censored subject) are skipped with a warning and the divisor reduced.
    """
    bins = calibration_bins(surv_probs, times, events, horizon, n_bins, sample=sample)
    gaps = [abs(km - mean) for mean, km, _, defined in bins if defined]
    if len(gaps) < len(bins):
        warnings.warn(f"ece: skipped {len(bins) - len(gaps)} bin(s) with undefined "
                      f"Kaplan-Meier at the horizon", stacklevel=2)
    if not gaps:
        raise MetricError("all calibration bins undefined at this horizon")
    return float(np.sum(gaps) / len(gaps))


def brier_ipcw(surv_probs, times, events, g_curve, horizon, *, sample=None):
    """IPCW Brier score at a horizon:
    mean of pi^2 * 1{T<=t, event}/G(T-) + (1-pi)^2 * 1{T>t}/G(t)."""
    if sample is None:
        sample = _Sample(times, events, g_curve).at(surv_probs, probabilities=True)
    pi, times, cases = sample.pi, sample.times, sample.cases(horizon)
    g_t = sample.g_curve(horizon)
    if g_t <= 0:
        raise MetricError("horizon beyond censoring follow-up (G(t) = 0)")
    if np.any((sample.events == 1) & (times <= horizon) & ~cases):
        warnings.warn("brier_ipcw: dropped record(s) with near-zero censoring "
                      "weight denominator", stacklevel=2)
    late = times > horizon
    terms = np.zeros_like(pi)
    terms[cases] = pi[cases] ** 2 / sample.g_left[cases]
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
    records: int


METRIC_NAMES = ("concordance_td", "auc_ipcw", "ece", "brier_ipcw")


def _sample_metrics(surv_matrix, times, events, horizons):
    """Every metric at every horizon on one sample, all sharing one
    censoring fit, one time order and one G(T-) per record, and at each
    horizon one prediction order: a (n_horizons, n_metrics) array, NaN
    where undefined."""
    g = censoring_km(times, events)
    sample = _Sample(times, events, g)
    values = np.full((len(horizons), len(METRIC_NAMES)), np.nan)
    for h_idx, horizon in enumerate(horizons):
        pi = surv_matrix[:, h_idx]
        ranked = sample.at(pi, probabilities=True)
        for m_idx, score in enumerate((  # in METRIC_NAMES order
                lambda: concordance_td(pi, times, events, g, horizon, sample=ranked),
                lambda: auc_ipcw(pi, times, events, g, horizon, sample=ranked),
                lambda: ece(pi, times, events, horizon, sample=ranked),
                lambda: brier_ipcw(pi, times, events, g, horizon, sample=ranked))):
            try:
                values[h_idx, m_idx] = score()
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
                      float(se[h_idx, m_idx]), int(defined[h_idx, m_idx]), len(times))
            for h_idx, horizon in enumerate(horizons)
            for m_idx, name in enumerate(METRIC_NAMES)]


def evaluate_by_group(surv_matrix, times, events, horizons, groups=None,
                      n_replicates=100, seed=0):
    """Every metric at every horizon for the full population and per
    group. Each estimate is computed on the full stratum; its standard
    error and n (the bootstrap replicates that define it) come from
    n_replicates resamples of the stratum, each stratum and resample with
    its own censoring fit; records is the stratum's size. Groups below
    MIN_GROUP_SIZE records get NaN estimates and n=0. Returns a list of
    MetricRow; raises MetricError on a prediction that is not a
    probability."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if np.shape(surv_matrix) != (times.size, len(horizons)):
        raise MetricError("surv_matrix must be (n_records, n_horizons)")
    surv_matrix = _check_predictions(surv_matrix, "surv_matrix", probabilities=True)

    rows = _stratum_metrics(surv_matrix, times, events, horizons,
                            "population", n_replicates, seed)
    if groups is not None:
        groups = np.asarray(groups)
        for label in sorted(set(groups.tolist())):
            mask = groups == label
            records = int(mask.sum())
            if records < MIN_GROUP_SIZE:
                rows.extend(MetricRow(name, float(h), str(label), np.nan, np.nan, 0, records)
                            for h in horizons for name in METRIC_NAMES)
                continue
            rows.extend(_stratum_metrics(
                surv_matrix[mask], times[mask], events[mask], horizons,
                str(label), n_replicates, seed))
    return rows
