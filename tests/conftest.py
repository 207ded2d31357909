import csv
import math

import numpy as np

from coxmix.dataset import DatasetError, SurvivalDataset
from coxmix.estimators import StepSurvivalCurve
from coxmix.model import ModelError
from coxmix.objective import ObjectiveError
from coxmix.spline import (
    EPS_DENSITY, EPS_SURVIVAL, density_given_cluster, fit_spline, spline_eval,
    spline_value_and_slope,
)
from coxmix.synth import ClusterSpec, SynthConfig


# ---- independent oracles (kept free of the library code paths) ----------

def brute_force_km(times, events):
    """Product-limit estimate by direct risk-set enumeration.
    Returns (event_times, survival_values)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    out_t, out_s = [], []
    s = 1.0
    for ut in np.unique(times):
        d = int(np.sum((times == ut) & (events == 1)))
        if d == 0:
            continue
        n_at_risk = int(np.sum(times >= ut))
        s *= 1.0 - d / n_at_risk
        out_t.append(float(ut))
        out_s.append(s)
    return np.asarray(out_t), np.asarray(out_s)


def brute_force_breslow(times, events, log_hazards):
    """Baseline cumulative hazard by direct risk-set enumeration.
    Returns (event_times, cumulative_hazard)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    ef = np.exp(np.asarray(log_hazards, dtype=float))
    out_t, out_h = [], []
    h = 0.0
    for ut in np.unique(times):
        d = int(np.sum((times == ut) & (events == 1)))
        if d == 0:
            continue
        h += d / float(np.sum(ef[times >= ut]))
        out_t.append(float(ut))
        out_h.append(h)
    return np.asarray(out_t), np.asarray(out_h)


def naive_concordance(surv_probs, times, events, horizon):
    """Unweighted comparable-pair concordance (no censoring adjustment)."""
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if events[i] != 1 or times[i] > horizon:
            continue
        for j in range(n):
            if times[j] <= times[i]:
                continue
            den += 1
            if surv_probs[i] < surv_probs[j]:
                num += 1
            elif surv_probs[i] == surv_probs[j]:
                num += 0.5
    return num / den


def naive_auc(surv_probs, times, events, horizon):
    """Unweighted case/control AUC with half credit for ties."""
    risk = 1.0 - np.asarray(surv_probs, dtype=float)
    cases = (np.asarray(events) == 1) & (np.asarray(times) <= horizon)
    controls = np.asarray(times) > horizon
    num = den = 0.0
    for ri in risk[cases]:
        for rj in risk[controls]:
            den += 1
            if ri > rj:
                num += 1
            elif ri == rj:
                num += 0.5
    return num / den


def brute_force_censoring_left(times, events):
    """Censoring Kaplan-Meier just before each record's own time, G(T_i-),
    from brute_force_km with the flipped indicator."""
    cut, surv = brute_force_km(times, 1 - np.asarray(events, dtype=int))
    out = []
    for t in np.asarray(times, dtype=float):
        before = surv[cut < t]
        out.append(before[-1] if before.size else 1.0)
    return np.asarray(out)


def ipcw_pair_concordance(surv_probs, times, events, horizon, weight_floor):
    """Uno's IPCW concordance by enumerating every (case, later record) pair:
    cases are events at or before the horizon with G(T-) above the floor,
    weighted 1 / G(T-)^2; ties in time are not comparable, ties in
    prediction count half. None when there is no comparable pair."""
    g = brute_force_censoring_left(times, events)
    num = den = 0.0
    for i in range(len(times)):
        if events[i] != 1 or times[i] > horizon or g[i] <= weight_floor:
            continue
        w = 1.0 / g[i] ** 2
        for j in range(len(times)):
            if times[j] <= times[i]:
                continue
            den += w
            if surv_probs[i] < surv_probs[j]:
                num += w
            elif surv_probs[i] == surv_probs[j]:
                num += 0.5 * w
    return num / den if den > 0 else None


def ipcw_pair_auc(surv_probs, times, events, horizon, weight_floor):
    """IPCW cumulative/dynamic AUC as a weighted Mann-Whitney count over
    every (case, control) pair: cases as in ipcw_pair_concordance, weighted
    1 / G(T-); controls are records with T > horizon; risk 1 - prediction,
    ties count half. None without a case or a control."""
    g = brute_force_censoring_left(times, events)
    risk = 1.0 - np.asarray(surv_probs, dtype=float)
    controls = [j for j in range(len(times)) if times[j] > horizon]
    num = total = 0.0
    for i in range(len(times)):
        if events[i] != 1 or times[i] > horizon or g[i] <= weight_floor:
            continue
        w = 1.0 / g[i]
        total += w
        for j in controls:
            if risk[i] > risk[j]:
                num += w
            elif risk[i] == risk[j]:
                num += 0.5 * w
    if total == 0 or not controls:
        return None
    return num / (total * len(controls))


def brute_force_partial_likelihood(log_hazards, times, events):
    """Cox partial log-likelihood with Breslow ties and its gradient wrt the
    log hazards, one loop per distinct event time: the d rows failing at
    tau share the denominator sum_{t_j >= tau} exp(f_j)."""
    f = np.asarray(log_hazards, dtype=float)
    value, grad = 0.0, np.asarray(events, dtype=float).copy()
    for tau in np.unique(times[events == 1]):
        failing = (times == tau) & (events == 1)
        at_risk = times >= tau
        denom = np.sum(np.exp(f[at_risk]))
        d = failing.sum()
        value += f[failing].sum() - d * np.log(denom)
        grad[at_risk] -= d * np.exp(f[at_risk]) / denom
    return value, grad


def unstratified_partial_likelihood(log_hazards, times, events):
    """The single-stratum partial likelihood as one sort, one max shift and
    one reverse cumulative sum, in the float operations the stratified
    library call must reproduce for each stratum. Returns (value, grad)."""
    f = np.asarray(log_hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    order = np.argsort(times, kind="stable")
    t, e, fo = times[order], events[order], f[order]
    fmax = fo.max()
    w = np.exp(fo - fmax)
    tail = np.cumsum(w[::-1])[::-1]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    denom = tail[start]
    d = np.add.reduceat(e, start)
    ev = d > 0
    value = float(np.sum(fo[e == 1]) - np.sum(d[ev] * (np.log(denom[ev]) + fmax)))
    ratio_cum = np.cumsum(np.where(ev, d / denom, 0.0))
    pos = np.repeat(np.arange(start.size), np.diff(np.append(start, t.size)))
    grad = np.empty_like(f)
    grad[order] = e - w * ratio_cum[pos]
    return value, grad


def membership_partial_likelihood(log_hazards, times, events, strata=None):
    """Reference for ``objective.partial_log_likelihood``: the earlier version
    that builds the (N, K) stratum membership matrix and takes each
    stratum's max, risk-set column and event counts through it. Copied as
    it was, input checks included."""
    f = np.asarray(log_hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if not np.isfinite(f).all():
        raise ObjectiveError("non-finite log hazards")
    if events.sum() == 0:
        return 0.0, np.zeros_like(f)
    strata = np.zeros(f.size, dtype=int) if strata is None else np.asarray(strata, dtype=int)

    order = times.argsort(kind="stable")
    t, e, fo, so = times[order], events[order], f[order], strata[order]
    member = so[:, None] == np.arange(so.max() + 1)  # (N, K) stratum indicator
    fmax = np.where(member, fo[:, None], -np.inf).max(axis=0)
    w = np.exp(fo - fmax[so])
    # risk-set sums over {j in stratum k : t_j >= t_i}, shared within a tie group
    tail = np.where(member, w[:, None], 0.0)[::-1].cumsum(axis=0)[::-1]
    first = np.concatenate(([True], t[1:] != t[:-1]))  # rows that start a tie group
    start = first.nonzero()[0]
    denom = tail[start]  # (groups, K), stratum k scaled by exp(-fmax_k)
    d = np.add.reduceat(member * e[:, None], start)  # events per distinct time and stratum

    ev = d > 0
    value = float(fo[e == 1].sum()
                  - (d[ev] * (np.log(denom[ev]) + fmax[ev.nonzero()[1]])).sum())

    # gradient: delta_i - exp(f_i) * sum_{event times <= t_i} d / riskset_sum
    ratio_cum = np.divide(d, denom, out=np.zeros(denom.shape), where=ev).cumsum(axis=0)
    grad = np.empty_like(f)
    grad[order] = e - w * ratio_cum[first.cumsum() - 1, so]  # row's tie group, stratum
    return value, grad


def per_cluster_q_hat(times, events, gamma, zeta, log_hazards, gating_logits):
    """The hard-assignment objective with one unstratified likelihood per
    cluster over its assigned rows, skipping clusters with fewer than 2
    rows or no events, and the gating softmax taken on its own. Returns
    (loss, d_loss/d_log_hazards, d_loss/d_gating_logits)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    f = np.asarray(log_hazards, dtype=float)
    z = gating_logits - gating_logits.max(axis=1, keepdims=True)
    total = float(np.sum(gamma * (z - np.log(np.exp(z).sum(axis=1, keepdims=True)))))
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    d_f = np.zeros_like(f)
    for c in range(f.shape[1]):
        rows = np.flatnonzero(zeta == c)
        if rows.size < 2 or events[rows].sum() == 0:
            continue
        val, grad = unstratified_partial_likelihood(f[rows, c], times[rows], events[rows])
        total += val
        d_f[rows, c] = grad
    return -total, -d_f, -(gamma - softmax)


class PerArrayAdam:
    """Adam moments held per parameter array, updated array by array by
    ``per_array_adam_step``: the oracle for the flat-buffer update."""

    def __init__(self, arrays, lr):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step, self.lr = 0, lr


def per_array_adam_step(arrays, grads, state, beta1=0.9, beta2=0.999, eps=1e-8,
                        clip=10.0):
    """Adam with bias correction on each array in place, after clipping the
    global gradient norm (summed array by array) at ``clip``."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    scale = clip / total if total > clip else 1.0
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        g = g * scale
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        a -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def per_array_backward(params, heads, cache, rep, d_log_hazards, d_gating_logits):
    """Reference for ``neural.backward``: every product and sum in a new
    array, as ``neural._flatten`` lists the gradients (weights, biases,
    then f_w, f_b, g_w, g_b)."""
    gw, gb = [], []
    outs = [*cache[1:], rep]
    da = d_log_hazards @ heads.f_w.T + d_gating_logits @ heads.g_w.T
    for i in reversed(range(len(params.weights))):
        dz = da * (outs[i] > 0)
        gw.insert(0, cache[i].T @ dz)
        gb.insert(0, dz.sum(axis=0))
        da = dz @ params.weights[i].T
    return [*gw, *gb, rep.T @ d_log_hazards, d_log_hazards.sum(axis=0),
            rep.T @ d_gating_logits, d_gating_logits.sum(axis=0)]


def random_survival_instance(rng, n, tie_prob=0.3):
    """Times with deliberate ties, mixed censoring, random log hazards."""
    times = rng.integers(1, max(n // 2, 2), size=n).astype(float)
    if tie_prob == 0:
        times = times + rng.random(n)
    events = (rng.random(n) < 0.7).astype(int)
    f = rng.normal(0, 1, size=n)
    return times, events, f


def exp_spline(rate=1.0, t_max=6.0, step=0.1):
    """Spline fixture tracking exp(-rate * t)."""
    t = np.arange(step, t_max + step / 2, step)
    curve = StepSurvivalCurve(knot_times=t, cum_hazard=rate * t)
    return fit_spline(curve)


def per_row_log_densities(baselines, log_hazards, times, events):
    """Reference for ``model.cluster_log_densities``: no baseline table, but
    each cluster's spline evaluated, one cluster at a time, on the event
    rows alone (value and slope) and on the censored rows alone (value)."""
    f = np.asarray(log_hazards, dtype=float)
    ev = np.asarray(events) == 1
    out = np.empty(f.shape)
    for c, bl in enumerate(baselines):
        s0, ds0 = spline_value_and_slope(bl, times[ev])
        out[ev, c] = np.log(density_given_cluster(np.exp(f[ev, c]), s0, ds0))
        out[~ev, c] = np.exp(f[~ev, c]) * np.log(spline_eval(bl, times[~ev]))
    return out


def masked_spline_value_and_slope(s, t):
    """Reference for ``spline.spline_value_and_slope``: the earlier version
    that splits the points into before, past and between the knots and
    evaluates each subset on its own branch, a single knot included. Copied
    as it was, except that a single knot is told by the knot count. A NaN
    time on a single-knot curve gives the knot value here, NaN there."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    val, slope = np.empty_like(t), np.empty_like(t)
    lo, hi = s.knots[0], s.knots[-1]
    before, after = t < lo, t > hi
    mid = ~(before | after)  # a NaN time lands here and evaluates to NaN
    val[before], slope[before] = 1.0, 0.0
    if np.any(after):
        tail = max(s.values[-1], EPS_SURVIVAL) * np.exp(-s.tail_hazard * (t[after] - hi))
        val[after], slope[after] = tail, -s.tail_hazard * tail
    if np.any(mid):
        if s.knots.size == 1:  # a single knot
            val[mid], slope[mid] = s.values[-1], 0.0
        else:
            i = np.clip(np.searchsorted(s.knots, t[mid], "right") - 1, 0, s.knots.size - 2)
            x, (a, b, c, y0) = t[mid] - s.knots[i], s._coef.take(i, axis=1)
            x2 = x * x  # terms summed in scipy PPoly's order, so its bits are kept
            val[mid] = y0 + c * x + b * x2 + a * (x2 * x)
            slope[mid] = c + b * x * 2 + a * x2 * 3
    return np.clip(val, EPS_SURVIVAL, 1.0, out=val), np.minimum(slope, -EPS_DENSITY, out=slope)


def masked_cluster_log_densities(log_hazards, events, table):
    """Reference for ``model.cluster_log_densities``: the earlier version
    that gathers the event rows and the censored rows and evaluates each
    subset on its own formula. Copied as it was."""
    f = np.asarray(log_hazards, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ModelError("non-finite log hazard")
    ev = np.asarray(events, dtype=int) == 1
    s0, ds0 = table
    out = np.empty(f.shape)
    out[ev] = np.log(density_given_cluster(np.exp(f[ev]), s0[ev], ds0[ev]))
    out[~ev] = np.exp(f[~ev]) * np.log(s0[~ev])
    return out


def per_row_load_csv(path, time_col, event_col, group_col=None, drop_missing=False,
                     drop_columns=()):
    """Reference for ``dataset.load_csv``: the earlier version that parses
    each record with one float() per cell and checks it alone. Copied as it
    was, except that it opens the file as utf-8-sig."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise DatasetError(f"{path}: repeated column name(s) {repeated}")
        unknown = [c for c in drop_columns if c not in header]
        if unknown:
            raise DatasetError(f"{path}: drop_columns not in the header: {unknown}")
        for col in (time_col, event_col):
            if col not in header:
                raise DatasetError(f"{path}: missing required column {col!r}")
        if group_col is not None and group_col not in header:
            raise DatasetError(f"{path}: missing group column {group_col!r}")

        skip = {time_col, event_col, group_col, *drop_columns}
        feature_names = [c for c in header if c not in skip]
        numeric = [header.index(c) for c in (time_col, event_col, *feature_names)]
        group = None if group_col is None else header.index(group_col)

        values, groups = [], []  # values: one [time, event, *features] row per record
        for rownum, row in enumerate(reader, start=2):  # 1-based, header is row 1
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}")
            try:
                v = [float(row[i]) for i in numeric]
            except ValueError:
                v = [math.nan]  # an unparsable cell counts as a non-finite one
            if not all(map(math.isfinite, v)):
                if drop_missing:
                    continue
                raise DatasetError(
                    f"{path}: row {rownum} has a missing, non-numeric or non-finite value")
            if v[1] not in (0.0, 1.0):
                raise DatasetError(
                    f"{path}: row {rownum} event value {row[numeric[1]]!r} not in {{0,1}}")
            if v[0] < 0:
                raise DatasetError(f"{path}: row {rownum} has negative time")
            values.append(v)
            if group is not None:
                groups.append(row[group])

    if not values:
        raise DatasetError(f"{path}: no usable rows")
    values = np.asarray(values)  # rebound so the row lists are freed
    return SurvivalDataset(
        features=values[:, 2:],
        times=values[:, 0],
        events=values[:, 1].astype(int),
        feature_names=tuple(feature_names),
        groups=None if group is None else np.asarray(groups, dtype=object),
    )


def metrics_called_alone(surv_matrix, times, events, horizons):
    """Reference for ``metrics._sample_metrics``: every public metric at
    every horizon, each called alone on its arguments with one censoring
    fit, so each sorts and looks up G(T-) for itself; NaN where a metric
    raises MetricError."""
    from coxmix.estimators import censoring_km
    from coxmix.metrics import (
        METRIC_NAMES, MetricError, auc_ipcw, brier_ipcw, concordance_td, ece)
    g = censoring_km(times, events)
    calls = {"concordance_td": lambda pi, h: concordance_td(pi, times, events, g, h),
             "auc_ipcw": lambda pi, h: auc_ipcw(pi, times, events, g, h),
             "ece": lambda pi, h: ece(pi, times, events, h),
             "brier_ipcw": lambda pi, h: brier_ipcw(pi, times, events, g, h)}
    values = np.full((len(horizons), len(METRIC_NAMES)), np.nan)
    for h_idx, horizon in enumerate(horizons):
        for m_idx, name in enumerate(METRIC_NAMES):
            try:
                values[h_idx, m_idx] = calls[name](surv_matrix[:, h_idx], horizon)
            except MetricError:
                pass
    return values


def materialised_replicate(surv_matrix, times, events, horizons):
    """Reference for a bootstrap replicate of ``metrics._sample_metrics``:
    a bootstrap_se callback that scores the resample given as record counts
    on its materialised records np.sort(idx) (record i repeated counts[i]
    times, in record order, the order in which ECE bins records with equal
    predictions), each metric called alone, so each resample is sorted and
    fitted from scratch."""
    def score(counts):
        idx = np.repeat(np.arange(counts.size), counts)
        return metrics_called_alone(surv_matrix[idx], times[idx], events[idx], horizons)
    return score


# ---- shared synthetic fixtures ------------------------------------------

PH_CONFIG = SynthConfig(
    n=2000,
    clusters=(ClusterSpec(shape=1.0, scale=1.0, beta=(1.0, -0.5, 0.25)),),
    gating=((0.0, 0.0, 0.0),),
    seed=3,
)

SEPARATED_CONFIG = SynthConfig(
    n=2000,
    clusters=(ClusterSpec(shape=6.0, scale=4.0, beta=(0.0, 0.3, 0.0)),
              ClusterSpec(shape=0.8, scale=0.8, beta=(0.0, 0.0, 0.3))),
    gating=((3.0, 0.0, 0.0), (-3.0, 0.0, 0.0)),
    seed=5,
)

CROSSING_CONFIG = SynthConfig(
    n=4000,
    clusters=(ClusterSpec(shape=0.7, scale=6.0, beta=(0.0, 0.8, 0.0)),
              ClusterSpec(shape=5.0, scale=5.0, beta=(0.0, 0.0, 0.8))),
    gating=((2.5, 0.0, 0.0), (-2.5, 0.0, 0.0)),
    censoring_fraction=0.3,
    seed=11,
)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion results, one line each, at the end of
    the run (stdout from passing tests is otherwise swallowed)."""
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.line(line)
