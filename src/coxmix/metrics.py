"""Censoring-adjusted evaluation of survival predictions.

All metrics take the predicted survival probability pi_i(t) at a horizon t
and adjust for right censoring with inverse-probability-of-censoring
weights (IPCW) from a Kaplan-Meier estimate G of the censoring
distribution. G at an observed event time is always taken as a left limit
to avoid the event's own censoring contribution.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from coxmix.estimators import censoring_km, kaplan_meier_at

MIN_IPCW_DENOM = 1e-4   # drop records with smaller G from IPCW sums
MIN_GROUP_SIZE = 20
DEFAULT_ECE_BINS = 20


class MetricError(ValueError):
    pass


class _Pairs:
    """The comparable pairs of one sample at one horizon, for any record
    weights. For each record with an event by the horizon (a query, in
    record order), ``weights`` gives the weight of the later records (time
    above the query's) ranked above it in prediction, tied with it, and in
    all. Built once per horizon sample (``_Sample.pairs``) and shared by
    the bootstrap resamples of the sample.

    Each count is a sum of weights over intervals of the records in a few
    fixed orders, laid end to end in ``perm``, so a weighting costs one
    gather, one cumulative sum and one bincount of the interval sums per
    query. The orders are:
    - prediction order, for the records ranked above;
    - (rank, time position) order, for the later records tied in rank;
    - time order, for the later records;
    - the levels of a merge-sort tree over the time order, for the records
      ranked above that are not later. The s records not later than a query
      split into one aligned block of 2^k positions per set bit k of s;
      level k sorts the (block, rank) keys of its blocks once, so a block's
      weight ranked above the query is an interval from the query's
      searchsorted position to the block's end. A level only holds the
      positions not later than some query.
    Queries are built in time order, which keeps each searchsorted local.
    O(n log^2 n) time and O(n log n) memory to build.
    """

    def __init__(self, sample):
        n, by_time, ranks = sample.times.size, sample.time_order, sample.ranks
        due = sample.due
        self.n_queries = q = due.size
        slot = np.argsort(sample.time_pos[due])  # record-order slot of each query in time order
        # records not later than each query (ties in time are not later)
        prefix = np.searchsorted(sample.sorted_times, sample.times[due[slot]], side="right")
        above = ranks[due[slot]]
        at_or_below = np.cumsum(np.bincount(ranks, minlength=n))[above]
        # the positions not later than some query, in rank order, and the
        # tree levels that some query uses
        reach = int(prefix.max(initial=0))
        by_rank = sample.time_pos[sample.pi_order]
        by_rank = by_rank[by_rank < reach]
        levels = [(k, sel) for k in range(reach.bit_length())
                  if (sel := np.flatnonzero((prefix >> k) & 1)).size]
        # perm[0] is record n, a sentinel of weight 0, so the cumulative
        # weight at position p of perm is that of the records before p + 1
        self.perm = np.empty(1 + 3 * n + len(levels) * by_rank.size, dtype=np.intp)
        self.perm[0] = n
        self.slot, self.hi, self.lo = np.empty(
            (3, 3 * q + sum(sel.size for _, sel in levels)), dtype=np.intp)
        filled = [1, 0]  # positions in perm and in the intervals

        def add(order, at, start, stop):  # slot at += weight of order[start:stop]
            p, i = filled
            self.perm[p:p + order.size] = order
            self.slot[i:i + at.size] = at
            self.hi[i:i + at.size] = p - 1 + stop
            self.lo[i:i + at.size] = p - 1 + start
            filled[:] = p + order.size, i + at.size

        add(sample.pi_order, slot, at_or_below, n)
        span = n + 1  # ranks < n and positions <= n, so keys never collide
        keys = np.sort(ranks * span + sample.time_pos)
        add(by_time[keys % span], slot + q,
            np.searchsorted(keys, above * span + prefix), at_or_below)
        add(by_time, slot + 2 * q, prefix, n)
        ranks_by_time = ranks[by_time]
        for k, sel in levels:
            block = (prefix[sel] >> k) - 1
            # by (block, rank): a stable radix sort by block of the rank order
            order = by_rank[np.argsort((by_rank >> k).astype(np.min_scalar_type(n >> k)),
                                       kind="stable")]
            keys = (order >> k) * span + ranks_by_time[order]
            # keys of block b fill positions [b * 2^k, (b + 1) * 2^k); its
            # records ranked above the query are subtracted: the interval
            # runs backwards, from the block's end to the query's position
            add(by_time[order], slot[sel], (block + 1) << k,
                np.searchsorted(keys, block * span + above[sel], side="right"))

    def weights(self, w):
        """Per query, the weight of the later records ranked above it, tied
        with it and in all: a (3, n_queries) array, given record weights w
        (integer counts)."""
        c = np.append(w, 0)[self.perm]
        np.cumsum(c, out=c)  # in place: a fresh array is slower to fill
        sums = c[self.hi]
        sums -= c[self.lo]
        q = self.n_queries
        return np.bincount(self.slot, sums, minlength=3 * q).reshape(3, q)


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
    metric reads it: its times, events, record weights and censoring curve,
    the stable time order, its inverse (each record's time position), the
    sorted times and, given the curve, each record's G(T-) from one
    searchsorted over the sorted times, scattered back to record order. A
    record's weight w is its count in the sample: 1 in a stratum, the
    number of times it was drawn in a resample, which is scored on the
    stratum's own records. ``at`` adds one horizon and the predictions
    there. A metric given ``sample=`` reads everything from it. The inputs
    are checked here and in ``at``, once per sample: resamples copy them
    checked. A resample is a copy of its horizon sample, so it inherits the
    ``pairs`` and ``risk_ranks`` that sample has already built."""

    def __init__(self, times, events, g_curve=None):
        self.times = np.asarray(times, dtype=float)
        events = np.asarray(events)
        if events.shape != self.times.shape:
            raise MetricError(f"{events.size} events for {self.times.size} times")
        if not np.isfinite(self.times).all():
            raise MetricError("times must be finite")
        if not ((events == 0) | (events == 1)).all():
            raise MetricError("events must be 0 or 1")
        self.events = events.astype(int)
        self.time_order, _ = _stable_order(self.times)
        self.time_pos = np.empty_like(self.time_order)
        self.time_pos[self.time_order] = np.arange(self.times.size)
        self.sorted_times = self.times[self.time_order]
        self._weigh(np.ones(self.times.size, dtype=np.intp), g_curve)

    def _weigh(self, w, g_curve):
        self.w, self.g_curve = w, g_curve
        if g_curve is not None:
            self.g_left = np.empty(self.times.size)
            self.g_left[self.time_order] = g_curve.eval_left(self.sorted_times)

    def at(self, surv_probs, horizon, probabilities):
        """This sample at a checked horizon, with its checked predictions pi
        there, ordered and ranked, and, in record order, the records with an
        event by the horizon (``due``) and those with a time past it (``late``)."""
        _check_horizons(horizon)
        if np.shape(surv_probs) != self.times.shape:
            raise MetricError(f"{np.size(surv_probs)} predictions for {self.times.size} records")
        out = copy.copy(self)
        out.horizon = horizon
        out.pi = _check_predictions(surv_probs, "surv_probs", probabilities)
        out.pi_order, out.ranks = _stable_order(out.pi)
        out.due = np.flatnonzero((self.events == 1) & (self.times <= horizon))
        out.late = np.flatnonzero(self.times > horizon)
        return out

    def resampled(self, counts, like=None):
        """One bootstrap resample of this sample: record i drawn counts[i]
        times, with the censoring fit on those draws, or the fit of
        ``like``, the same resample at another horizon."""
        out = copy.copy(self)
        if like is None:
            out._weigh(counts, censoring_km(self.times, self.events, weights=counts,
                                            time_order=self.time_order))
        else:
            out.w, out.g_curve, out.g_left = like.w, like.g_curve, like.g_left
        return out

    @functools.cached_property
    def pairs(self):
        """The comparable pairs at this horizon, for any record weights."""
        return _Pairs(self)

    @functools.cached_property
    def risk_ranks(self):
        """Dense ranks of the risk 1 - pi, ascending along the reversed
        prediction order: predictions whose 1 - pi round to the same float tie."""
        by_risk = self.pi_order[::-1]
        risk = 1.0 - self.pi[by_risk]
        ranks = np.empty(risk.size, dtype=np.intp)
        ranks[by_risk] = np.cumsum(np.r_[False, risk[1:] != risk[:-1]])
        return ranks

    def cases(self):
        """The IPCW cases, as a mask over ``due``: the due records in the
        sample with G(T-) > MIN_IPCW_DENOM."""
        return (self.w[self.due] > 0) & (self.g_left[self.due] > MIN_IPCW_DENOM)


def _check_horizons(*horizons):
    """MetricError naming a horizon that is not finite; a negative one is valid."""
    for horizon in horizons:
        if not np.isfinite(horizon):
            raise MetricError(f"horizon must be finite, not {horizon}")


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
        sample = _Sample(times, events, g_curve).at(surv_probs, horizon, probabilities=False)
    cases = sample.cases()
    # of the later records, those predicted to survive longer, those tied
    # in prediction, and all of them, per case in record order
    higher, tied, later = sample.pairs.weights(sample.w)[:, cases]
    cases = sample.due[cases]
    w = sample.w[cases] / sample.g_left[cases] ** 2
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
        sample = _Sample(times, events, g_curve).at(surv_probs, horizon, probabilities=False)
    ranks = sample.risk_ranks  # built before the check, so the resamples inherit it
    cases = sample.due[sample.cases()]
    controls, w = sample.late, sample.w
    n_controls = w[controls].sum()
    if cases.size == 0 or n_controls == 0:
        raise MetricError("need at least one case and one control at this horizon")
    # per risk rank, the controls below it plus half those tied with it
    tied = np.bincount(ranks[controls], w[controls], minlength=w.size)
    wins = np.cumsum(tied) - 0.5 * tied
    weight = w[cases] / (w.sum() * sample.g_left[cases])
    return float(np.sum(weight * wins[ranks[cases]])) / (float(np.sum(weight)) * n_controls)


def calibration_bins(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS, *,
                     sample=None):
    """Equal-mass quantile bins of the predicted survival probability.

    Returns one (mean_predicted, km_observed, size, defined) tuple per bin:
    the mean prediction, the bin's Kaplan-Meier survival at the horizon,
    the number of records, and whether that survival is defined there. It
    is undefined when follow-up ends before the horizon with a censored
    subject and the curve has not reached zero. Predictions that are not
    probabilities (NaN, +-inf, outside [0, 1]), a non-finite horizon and a
    non-integer ``n_bins`` (a bool included) raise MetricError.

    Records with equal predictions are binned in record order. A weighted
    sample (a bootstrap resample) is binned as its copies: a record of
    weight w stands for w copies in a row.
    """
    if isinstance(n_bins, bool) or not isinstance(n_bins, (int, np.integer)):
        raise MetricError(f"n_bins must be an integer, not {n_bins!r}")
    if sample is None:
        sample = _Sample(times, events).at(surv_probs, horizon, probabilities=True)
    pi, times, events, w = sample.pi, sample.times, sample.events, sample.w
    n = int(w.sum())
    if not 1 <= n_bins <= n:
        raise MetricError(f"need 1 to {n} bins for {n} records, not {n_bins}")

    # np.array_split's sizes: the first n % n_bins bins hold one more
    sizes = n // n_bins + (np.arange(n_bins) < n % n_bins)
    starts = np.cumsum(sizes) - sizes
    bin_at = np.repeat(np.arange(n_bins), sizes)  # the bin of each position
    # the copies in prediction order, each bin one slice of them
    by_pi = w[sample.pi_order]
    copies = np.repeat(sample.pi_order, by_pi)
    means = pi[copies]  # a bin's mean sums its slice, in np.mean's order
    t = times[copies]
    t_max = np.maximum.reduceat(t, starts)
    last_events = np.add.reduceat(events[copies] * (t == t_max[bin_at]), starts)
    # the copies in time order, each at its rank among its record's copies;
    # those past the horizon fold into one at-risk row per bin at t = inf
    shift = np.empty_like(w)
    shift[sample.time_order] = np.cumsum(w[sample.time_order])
    shift[sample.pi_order] -= np.cumsum(by_pi)
    time_pos = shift[copies] + np.arange(n)
    by_time, in_bin = np.empty_like(copies), np.empty_like(bin_at)
    by_time[time_pos], in_bin[time_pos] = copies, bin_at
    cut = np.searchsorted(times[by_time], sample.horizon, side="right")
    by_time = by_time[:cut]
    km = kaplan_meier_at(
        np.append(times[by_time], np.full(n_bins, np.inf)),
        np.append(events[by_time], np.zeros(n_bins, dtype=int)),
        np.append(in_bin[:cut], np.arange(n_bins)).astype(np.min_scalar_type(n_bins - 1)),
        sample.horizon, time_order=np.arange(cut + n_bins), weights=np.append(
            np.ones(cut, dtype=np.intp), np.bincount(in_bin[cut:], minlength=n_bins)))
    # past t_max the curve is flat, so km > 0 there means S(t_max) > 0
    defined = ~((sample.horizon > t_max) & (last_events == 0) & (km > 0))
    return [(float(np.add.reduce(means[a:a + size]) / size), km_b, size, ok)
            for a, size, km_b, ok in zip(starts.tolist(), sizes.tolist(), km.tolist(),
                                         defined.tolist())]


def ece(surv_probs, times, events, horizon, n_bins=DEFAULT_ECE_BINS, *, sample=None,
        bins=None):
    """Expected L1 calibration error at a horizon.

    Records are partitioned into equal-mass quantile bins of the predicted
    survival probability; within each bin the Kaplan-Meier survival at the
    horizon is compared to the mean prediction. Bins whose Kaplan-Meier
    estimate is undefined at the horizon (follow-up ends earlier with a
    censored subject) are skipped and the divisor reduced.
    ``bins``, if given, are calibration_bins of the same arguments.
    """
    if bins is None:
        bins = calibration_bins(surv_probs, times, events, horizon, n_bins, sample=sample)
    gaps = [abs(km - mean) for mean, km, _, defined in bins if defined]
    if not gaps:
        raise MetricError("all calibration bins undefined at this horizon")
    return float(np.sum(gaps) / len(gaps))


def brier_ipcw(surv_probs, times, events, g_curve, horizon, *, sample=None):
    """IPCW Brier score at a horizon:
    mean of pi^2 * 1{T<=t, event}/G(T-) + (1-pi)^2 * 1{T>t}/G(t)."""
    if sample is None:
        sample = _Sample(times, events, g_curve).at(surv_probs, horizon, probabilities=True)
    pi, w, cases = sample.pi, sample.w, sample.cases()
    if not w.any():
        raise MetricError("no records")
    g_t = sample.g_curve(sample.horizon)
    if g_t <= 0:
        raise MetricError("horizon beyond censoring follow-up (G(t) = 0)")
    cases, late = sample.due[cases], sample.late
    terms = np.zeros_like(pi)
    terms[cases] = pi[cases] ** 2 / sample.g_left[cases]
    terms[late] = (1.0 - pi[late]) ** 2 / (g_t if g_t > MIN_IPCW_DENOM else np.inf)
    return float(np.sum(w * terms) / w.sum())


def bootstrap_se(metric_fn, n_records, n_replicates=100, seed=0):
    """Bootstrap mean and standard error of a metric, or of an array of them.

    Each replicate draws n_records records with replacement, and
    ``metric_fn`` receives it as a count vector: how many times each record
    was drawn (np.bincount of the draws, length n_records). It scores the
    records weighted by their counts and must recompute everything
    downstream of them, the censoring curve included. It returns a value,
    or an array of values with NaN where one is undefined on that resample.
    Replicates where it raises are dropped. Returns (mean, se, used,
    defined): the mean and SE of each value over the replicates that define
    it (the SE is NaN where fewer than two do), the number of replicates
    scored and, per value, the number that define it.
    """
    if n_records < 2:
        raise MetricError("need at least 2 records to bootstrap")
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_replicates):
        counts = np.bincount(rng.integers(0, n_records, size=n_records), minlength=n_records)
        try:
            values.append(metric_fn(counts))
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
            stats.append((col.mean(), col.std(ddof=1) if col.size > 1 else np.nan, col.size))
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
    dropped: float  # an int; NaN where the stratum is not scored


METRIC_NAMES = ("concordance_td", "auc_ipcw", "ece", "brier_ipcw")


def _stratum_samples(surv_matrix, times, events, horizons):
    """One stratum as one sample per horizon and column of surv_matrix,
    all sharing one censoring fit, one time order and one G(T-) per record."""
    sample = _Sample(times, events)
    sample._weigh(sample.w, censoring_km(times, events, time_order=sample.time_order))
    return [sample.at(pi, h, probabilities=True) for pi, h in zip(surv_matrix.T, horizons)]


def _sample_metrics(samples, counts=None, bins=None):
    """Every metric at every horizon on one sample, from its per-horizon
    samples, or on the bootstrap resample of it with record counts
    ``counts`` and one censoring fit of its own: a (n_horizons, n_metrics)
    array, NaN where undefined. ``bins`` are the sample's calibration bins
    per horizon, if already built."""
    if counts is not None:
        first = samples[0].resampled(counts)
        samples = [first] + [s.resampled(counts, like=first) for s in samples[1:]]
    values = np.full((len(samples), len(METRIC_NAMES)), np.nan)
    for h_idx, s in enumerate(samples):
        pi, times, events, g = s.pi, s.times, s.events, s.g_curve
        for m_idx, score in enumerate((  # in METRIC_NAMES order
                lambda: concordance_td(pi, times, events, g, s.horizon, sample=s),
                lambda: auc_ipcw(pi, times, events, g, s.horizon, sample=s),
                lambda: ece(pi, times, events, s.horizon, sample=s,
                            bins=None if bins is None else bins[h_idx]),
                lambda: brier_ipcw(pi, times, events, g, s.horizon, sample=s))):
            try:
                values[h_idx, m_idx] = score()
            except MetricError:
                continue
    return values


def _stratum_metrics(surv_matrix, times, events, horizons, group,
                     n_replicates, seed, calibration):
    """Estimates on the full stratum, with SEs over bootstrap resamples of
    it; each resample is drawn as record counts and scored once for all
    metrics on the stratum's records, whose sorts it shares. The
    ``calibration`` list receives the stratum's calibration bins per
    horizon, the ones its ECE is computed from. A stratum below
    MIN_GROUP_SIZE records is not scored: its estimates and dropped counts
    are NaN, with n=0."""
    if len(times) < MIN_GROUP_SIZE:
        return [MetricRow(name, float(h), group, np.nan, np.nan, 0, len(times), np.nan)
                for h in horizons for name in METRIC_NAMES]
    samples = _stratum_samples(surv_matrix, times, events, horizons)
    # a scored stratum has MIN_GROUP_SIZE >= DEFAULT_ECE_BINS records: this cannot raise
    bins = [calibration_bins(s.pi, s.times, s.events, s.horizon, sample=s) for s in samples]
    calibration.extend(bins)
    estimate = _sample_metrics(samples, bins=bins)
    # per horizon, what the estimates leave out: the events by the horizon
    # that are not IPCW cases and (at name == "ece") the undefined bins
    dropped = [(int(np.count_nonzero(~s.cases())), sum(not ok for *_, ok in b))
               for s, b in zip(samples, bins)]
    try:
        _, se, _, defined = bootstrap_se(
            lambda counts: _sample_metrics(samples, counts),
            len(times), n_replicates, seed)
    except MetricError:
        se, defined = np.full(estimate.shape, np.nan), np.zeros(estimate.shape, dtype=int)
    return [MetricRow(name, float(horizon), group, float(estimate[h_idx, m_idx]),
                      float(se[h_idx, m_idx]), int(defined[h_idx, m_idx]), len(times),
                      dropped[h_idx][name == "ece"])
            for h_idx, horizon in enumerate(horizons)
            for m_idx, name in enumerate(METRIC_NAMES)]


def evaluate_by_group(surv_matrix, times, events, horizons, groups=None,
                      n_replicates=100, seed=0, calibration=None):
    """Every metric at every horizon for the full population and per group.
    Each estimate is computed on the full stratum; its standard error and n
    (the bootstrap replicates that define it) come from n_replicates
    resamples of the stratum, each stratum and resample with its own
    censoring fit; records is the stratum's size. dropped counts what the
    estimate leaves out of the stratum: for concordance_td, auc_ipcw and
    brier_ipcw the events by the horizon with G(T-) <= MIN_IPCW_DENOM, for
    ece the calibration bins undefined at the horizon; the resamples apply
    the same rules uncounted. Every stratum below MIN_GROUP_SIZE records,
    the population included, gets NaN estimates and dropped counts, and
    n=0. Returns a list of MetricRow; raises MetricError on a prediction
    that is not a probability, a time or horizon that is not finite, an
    event other than 0 or 1, inputs of different lengths, or group labels
    whose stratum names (each label as text, and 'population') repeat. A
    ``calibration`` list receives the population's calibration_bins per
    horizon, the bins its ECE is computed from, if the population is scored."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if np.shape(surv_matrix) != (times.size, len(horizons)):
        raise MetricError("surv_matrix must be (n_records, n_horizons)")
    if groups is not None and np.shape(groups) != times.shape:
        raise MetricError(f"{np.size(groups)} group labels for {times.size} records")
    surv_matrix = _check_predictions(surv_matrix, "surv_matrix", probabilities=True)
    _check_horizons(*horizons)
    if times.size < MIN_GROUP_SIZE:
        _Sample(times, events)  # checks them: no stratum is scored, so no other sample does
    labels = [] if groups is None else sorted(set(np.asarray(groups).tolist()))
    names, counts = np.unique(["population", *map(str, labels)], return_counts=True)
    if np.any(counts > 1):  # "population" is the whole cohort's stratum
        raise MetricError(f"group labels repeat the stratum names {names[counts > 1].tolist()}")

    rows = _stratum_metrics(surv_matrix, times, events, horizons, "population",
                            n_replicates, seed, [] if calibration is None else calibration)
    for label in labels:
        mask = np.asarray(groups) == label
        rows.extend(_stratum_metrics(surv_matrix[mask], times[mask], events[mask], horizons,
                                     str(label), n_replicates, seed, []))
    return rows
