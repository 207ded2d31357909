"""Property tests: the sorted-risk-set metrics, the vectorised estimators
and the partial likelihood against the brute-force oracles in conftest, on
random data with tied times, tied predictions and random censoring; the
range and monotonicity of the mixture's survival predictions; the
stratified partial likelihood against one likelihood per cluster; the
baseline table against direct spline evaluation; the spline's slope
outside its knots; the spline against scipy's PchipInterpolator
between them; the metrics on one shared sample against each metric
called alone; the weighted Kaplan-Meier against the records copied out;
bootstrap replicates scored as record counts against the resamples
copied out and scored from scratch; a resample's calibration bins
against those of its copies; the chunked CSV loader against the
per-row one; and the column-wise cluster reductions against numpy's own."""

import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxmix import dataset, metrics
from coxmix.dataset import DatasetError
from coxmix.estimators import (
    StepSurvivalCurve, breslow, censoring_km, kaplan_meier, kaplan_meier_at,
)
from coxmix.metrics import (
    METRIC_NAMES, MIN_IPCW_DENOM, MetricError, auc_ipcw, bootstrap_se, brier_ipcw,
    calibration_bins, concordance_td, ece,
)
from coxmix.model import DcmConfig, DcmModel, baseline_table, cluster_log_densities
from coxmix.neural import init_params, log_softmax, over_clusters
from coxmix.objective import partial_log_likelihood, q_hat
from coxmix.spline import (
    EPS_DENSITY, EPS_SURVIVAL, fit_spline, spline_eval, spline_from_dict,
    spline_value_and_slope,
)
from conftest import (
    brute_force_breslow, brute_force_km, brute_force_partial_likelihood, ipcw_pair_auc,
    ipcw_pair_concordance, masked_cluster_log_densities, masked_spline_value_and_slope,
    materialised_replicate, metrics_called_alone, per_cluster_q_hat, per_row_load_csv,
    per_row_log_densities,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def cohorts(draw, min_size=2, max_size=40):
    """Integer times from a short range (many ties), random censoring,
    predictions rounded to one or two decimals (ties across times) and a
    horizon at one of the observed times."""
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    times = rng.integers(1, draw(st.integers(2, 10)), size=n).astype(float)
    events = (rng.random(n) < draw(st.floats(0.2, 1.0))).astype(int)
    pi = np.round(rng.random(n), draw(st.integers(1, 2)))
    horizon = float(times[draw(st.integers(0, n - 1))])
    return pi, times, events, horizon, rng


def _metric_or_none(fn, *args):
    try:
        return fn(*args)
    except MetricError:
        return None


@SETTINGS
@given(cohorts())
def test_concordance_matches_pair_oracle(cohort):
    pi, times, events, horizon, _ = cohort
    got = _metric_or_none(concordance_td, pi, times, events,
                          censoring_km(times, events), horizon)
    want = ipcw_pair_concordance(pi, times, events, horizon, MIN_IPCW_DENOM)
    assert (got is None) == (want is None)
    if want is not None:
        np.testing.assert_allclose(got, want, rtol=1e-9)


@SETTINGS
@given(cohorts())
def test_auc_matches_pair_oracle(cohort):
    pi, times, events, horizon, _ = cohort
    got = _metric_or_none(auc_ipcw, pi, times, events,
                          censoring_km(times, events), horizon)
    want = ipcw_pair_auc(pi, times, events, horizon, MIN_IPCW_DENOM)
    assert (got is None) == (want is None)
    if want is not None:
        np.testing.assert_allclose(got, want, rtol=1e-9)


@SETTINGS
@given(cohorts(min_size=1))
def test_estimators_match_brute_force(cohort):
    _, times, events, _, rng = cohort
    km = kaplan_meier(times, events)
    knots, surv = brute_force_km(times, events)
    np.testing.assert_array_equal(km.knot_times, knots)
    np.testing.assert_allclose(np.exp(-km.cum_hazard), surv, rtol=1e-12, atol=1e-15)

    log_hazards = rng.normal(0, 1, times.size)
    curve = breslow(times, events, log_hazards)
    knots, cumh = brute_force_breslow(times, events, log_hazards)
    np.testing.assert_array_equal(curve.knot_times, knots)
    np.testing.assert_allclose(curve.cum_hazard, cumh, rtol=1e-12)


@SETTINGS
@given(cohorts(min_size=1), st.integers(1, 5))
def test_grouped_km_equals_one_fit_per_group(cohort, n_groups):
    _, times, events, horizon, rng = cohort
    groups = rng.integers(0, n_groups, times.size)
    got = kaplan_meier_at(times, events, groups, horizon)
    assert got.shape == (groups.max() + 1,)
    for k in range(groups.max() + 1):
        mask = groups == k
        want = kaplan_meier(times[mask], events[mask])(horizon) if mask.any() else 1.0
        assert got[k] == want
    # uint8 labels, sorted by radix rather than timsort, give the same bits,
    # also with the label 255
    assert (kaplan_meier_at(times, events, groups.astype(np.uint8), horizon).tobytes()
            == got.tobytes())
    wide = np.where(groups == groups.max(), 255, groups)
    got = kaplan_meier_at(times, events, wide.astype(np.uint8), horizon)
    assert got.tobytes() == kaplan_meier_at(times, events, wide, horizon).tobytes()


@SETTINGS
@given(cohorts(min_size=20, max_size=60))
def test_metrics_invariant_to_row_order(cohort):
    pi, times, events, horizon, rng = cohort
    pi = rng.random(times.size)  # distinct, so ECE bins do not depend on row order
    perm = rng.permutation(times.size)
    for fn, needs_g in ((concordance_td, True), (auc_ipcw, True),
                        (brier_ipcw, True), (ece, False)):
        values = []
        for p, t, e in ((pi, times, events), (pi[perm], times[perm], events[perm])):
            args = (p, t, e, censoring_km(t, e), horizon) if needs_g else (p, t, e, horizon)
            values.append(_metric_or_none(fn, *args))
        assert (values[0] is None) == (values[1] is None), fn.__name__
        if values[0] is not None:
            np.testing.assert_allclose(values[1], values[0], rtol=1e-12, atol=1e-15,
                                       err_msg=fn.__name__)


@SETTINGS
@given(cohorts(min_size=20, max_size=80), st.integers(1, 3))
def test_shared_sample_matches_metrics_called_alone(cohort, n_horizons):
    """One sample scored with one censoring fit, time order and G(T-), and
    one prediction order per horizon, gives every metric's bits of the
    metric called alone, on tied times, tied predictions and censoring.
    kaplan_meier_at keeps its bits given the time order, and the stable
    order and dense ranks are numpy's."""
    _, times, events, _, rng = cohort
    surv = np.round(rng.random((times.size, n_horizons)), rng.integers(1, 3))
    horizons = [float(t) for t in rng.choice(times, n_horizons)]
    got = metrics._sample_metrics(metrics._stratum_samples(surv, times, events, horizons))
    want = metrics_called_alone(surv, times, events, horizons)
    assert np.array_equal(got, want, equal_nan=True)

    for x in (times, surv[:, 0]):
        order, ranks = metrics._stable_order(x)
        assert np.array_equal(order, np.argsort(x, kind="stable"))
        assert np.array_equal(ranks, np.unique(x, return_inverse=True)[1])
    order = np.argsort(times, kind="stable")
    groups = rng.integers(0, 5, times.size)
    for t in horizons:
        assert (kaplan_meier_at(times, events, groups, t, time_order=order).tobytes()
                == kaplan_meier_at(times, events, groups, t).tobytes())


@SETTINGS
@given(cohorts(min_size=1, max_size=60))
def test_weighted_kaplan_meier_is_the_expanded_records(cohort):
    """Integer record weights give the bits of the fit on the records
    copied out that many times, for the curve and the per-group value."""
    _, times, events, horizon, rng = cohort
    counts = rng.integers(0, 4, times.size)
    idx = np.repeat(np.arange(times.size), counts)
    if idx.size == 0:
        return
    for fit in (kaplan_meier, censoring_km):
        got, want = fit(times, events, weights=counts), fit(times[idx], events[idx])
        assert got.knot_times.tobytes() == want.knot_times.tobytes()
        assert got.cum_hazard.tobytes() == want.cum_hazard.tobytes()
    groups = rng.integers(0, 4, times.size)
    got = kaplan_meier_at(times, events, groups, horizon, weights=counts,
                          time_order=np.argsort(times, kind="stable"))
    want = kaplan_meier_at(times[idx], events[idx], groups[idx], horizon)
    assert got[:want.size].tobytes() == want.tobytes()
    assert np.all(got[want.size:] == 1.0)  # labels drawn zero times


@SETTINGS
@given(cohorts(min_size=20, max_size=80), st.integers(1, 3), st.integers(2, 12),
       st.sampled_from([MIN_IPCW_DENOM, 0.8]))
def test_count_weighted_replicates_match_materialised_resamples(cohort, n_horizons, n_replicates,
                                                                min_denom):
    """Each bootstrap replicate, scored as record counts on the stratum's
    own records, gives the SE of the replicates materialised as np.sort(idx)
    and scored from scratch within 1e-12 relative, and the same number of
    replicates defining each value, on tied times, tied predictions and
    censoring; the estimates keep the bits of the metrics called alone.
    Every stratum's dropped counts are those of the events by the horizon
    below MIN_IPCW_DENOM on its own censoring fit and of the undefined
    calibration bins, and blank for a stratum too small to score. G(T-) is
    at least 1/n, so below 10^4 records only a raised MIN_IPCW_DENOM drops
    events."""
    _, times, events, _, rng = cohort
    surv = np.round(rng.random((times.size, n_horizons)), 2)
    horizons = [float(t) for t in rng.choice(times, n_horizons)]
    seed = int(rng.integers(2 ** 31))
    groups = rng.integers(0, 3, times.size)
    with mock.patch.object(metrics, "MIN_IPCW_DENOM", min_denom):
        rows = metrics.evaluate_by_group(surv, times, events, horizons, groups,
                                         n_replicates=n_replicates, seed=seed)
        want = metrics_called_alone(surv, times, events, horizons)
        _, want_se, used, want_n = bootstrap_se(
            materialised_replicate(surv, times, events, horizons), times.size,
            n_replicates, seed)
    assert used == n_replicates
    got = np.array([(r.estimate, r.se, r.n) for r in rows if r.group == "population"])
    got = got.reshape(*want.shape, 3)
    assert np.array_equal(got[..., 0], want, equal_nan=True)
    assert np.array_equal(got[..., 2], want_n)
    # atol: the SE of replicates that agree to many digits carries their
    # last-bit rounding, which the two summation orders do not share
    np.testing.assert_allclose(got[..., 1], want_se, rtol=1e-12, atol=1e-14)

    strata = {"population": np.full(times.size, True),
              **{str(g): groups == g for g in np.unique(groups)}}
    for i, r in enumerate(rows):  # per stratum, horizon-major
        mask = strata[r.group]
        t, e = times[mask], events[mask]
        if t.size < metrics.MIN_GROUP_SIZE:
            assert np.isnan(r.dropped)
        elif r.metric == "ece":
            pi = surv[mask, i // len(METRIC_NAMES) % n_horizons]
            assert r.dropped == sum(not ok for *_, ok in calibration_bins(pi, t, e, r.horizon))
        else:
            g = censoring_km(t, e)
            due = (e == 1) & (t <= r.horizon)
            assert r.dropped == np.count_nonzero(g.eval_left(t[due]) <= min_denom)


@SETTINGS
@given(cohorts(min_size=1, max_size=60), st.integers(1, 20), st.integers(1, 3))
def test_resampled_calibration_bins_are_the_copies(cohort, n_bins, n_horizons):
    """A resample's calibration bins equal, tuple for tuple, those of its
    records copied out, and its ECE keeps their bits, on tied times and
    predictions, censoring and counts with zeros and large repeats."""
    pi, times, events, horizon, rng = cohort
    n = times.size
    counts = rng.integers(0, 3, n)
    counts[rng.integers(0, n, 2)] += rng.integers(1, 50, 2)
    idx = np.repeat(np.arange(n), counts)
    resample = metrics._Sample(times, events, censoring_km(times, events)).at(
        pi, horizon, probabilities=True).resampled(counts)
    assert (_metric_or_none(lambda: calibration_bins(pi, times, events, horizon, n_bins,
                                                     sample=resample))
            == _metric_or_none(calibration_bins, pi[idx], times[idx], events[idx], horizon,
                               n_bins))
    surv = np.round(rng.random((n, n_horizons)), 2)
    horizons = [float(t) for t in rng.choice(times, n_horizons)]
    col = METRIC_NAMES.index("ece")
    got = metrics._sample_metrics(metrics._stratum_samples(surv, times, events, horizons),
                                  counts)
    want = materialised_replicate(surv, times, events, horizons)(counts)
    assert got[:, col].tobytes() == want[:, col].tobytes()


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 3), st.lists(st.integers(1, 5), max_size=2),
       st.lists(cohorts(min_size=1), min_size=4, max_size=4), st.floats(0.1, 10.0))
def test_predicted_survival_in_unit_interval_and_nonincreasing(
        k, d, hidden, baseline_cohorts, x_scale):
    """A random encoder and heads over K Breslow baselines fitted on random
    cohorts, evaluated on a time grid from 0 to past every last knot."""
    _, _, _, _, rng = baseline_cohorts[0]
    params, heads = init_params((d, *hidden), k, int(rng.integers(2 ** 32)))
    baselines = [fit_spline(breslow(times, events, rng.normal(size=times.size)))
                 for _, times, events, _, _ in baseline_cohorts[:k]]
    model = DcmModel(params, heads, baselines, DcmConfig(n_clusters=k, hidden_dims=tuple(hidden)))
    x = rng.normal(scale=x_scale, size=(20, d))
    grid = np.sort(np.r_[0.0, rng.uniform(0.0, 15.0, size=30), np.arange(1.0, 11.0)])
    surv = model.predict_survival(x, grid)
    assert np.all((surv >= 0) & (surv <= 1))
    assert np.all(np.diff(surv, axis=1) <= 0)


@SETTINGS
@given(cohorts(min_size=1))
def test_partial_likelihood_matches_brute_force(cohort):
    _, times, events, _, rng = cohort
    f = rng.normal(scale=2.0, size=times.size)
    value, grad = partial_log_likelihood(f, times, events)
    expect_value, expect_grad = brute_force_partial_likelihood(f, times, events)
    np.testing.assert_allclose(value, expect_value, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(grad, expect_grad, rtol=1e-10, atol=1e-10)


@st.composite
def clustered_batches(draw):
    """A minibatch hard-assigned to K in 1..6 clusters, some of them empty,
    some with a single row and some without events; times are tied and
    |f| reaches 40. Returns (times, events, gamma, zeta, log_hazards,
    gating_logits)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.permutation(k)
    n_empty = draw(st.integers(0, k - 1))
    zeta = rng.choice(labels[n_empty:], size=n)
    for c in labels[:draw(st.integers(0, n_empty))]:
        zeta[rng.integers(n)] = c  # a single-row cluster
    times = rng.integers(1, draw(st.integers(2, 12)), size=n).astype(float)
    events = (rng.random(n) < draw(st.floats(0.3, 1.0))).astype(int)
    events[np.isin(zeta, labels[:draw(st.integers(0, k - 1))])] = 0  # no events
    scale = draw(st.sampled_from([0.5, 5.0, 40.0]))
    f = np.clip(rng.normal(scale=scale, size=(n, k)), -40.0, 40.0)
    logits = rng.normal(scale=scale, size=(n, k))
    return times, events, rng.dirichlet(np.ones(k), size=n), zeta, f, logits


@SETTINGS
@given(clustered_batches())
def test_stratified_q_hat_matches_per_cluster_calls(batch):
    """One stratified likelihood call gives the gradients of one call per
    cluster bit for bit, and the loss within 1e-12 relative: only the order
    of the loss's sums differs."""
    *head, logits = batch
    loss, d_f, d_g = q_hat(*head, log_softmax(logits))
    ref_loss, ref_d_f, ref_d_g = per_cluster_q_hat(*batch)
    assert np.array_equal(d_f, ref_d_f)
    assert np.array_equal(d_g, ref_d_g)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)


@SETTINGS
@given(clustered_batches())
def test_stratified_likelihood_matches_brute_force(batch):
    """The strata= path is the sum of the brute-force likelihood over the
    strata, each on its own rows, with each stratum's gradient on its rows."""
    times, events, _, zeta, f, _ = batch
    fz = f[np.arange(zeta.size), zeta]
    value, grad = partial_log_likelihood(fz, times, events, strata=zeta)
    expect_value, expect_grad = 0.0, np.zeros_like(fz)
    for c in np.unique(zeta):
        rows = zeta == c
        v, g = brute_force_partial_likelihood(fz[rows], times[rows], events[rows])
        expect_value += v
        expect_grad[rows] = g
    np.testing.assert_allclose(value, expect_value, rtol=1e-10, atol=1e-9)
    np.testing.assert_allclose(grad, expect_grad, rtol=1e-10, atol=1e-10)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1.0, 1e300, -1e300]


@st.composite
def cluster_arrays(draw, non_finite=False):
    """An (N, K) array, K in 1..12 and N in {0, 1, 128, 1000}: normals
    scaled by powers of ten over a drawn spread, a drawn share of them
    replaced by +-0, subnormals, +-1 and +-1e300 (and NaN and +-inf when
    ``non_finite``), so some rows are all -0.0 and others round differently
    in another order."""
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([0, 1, 128, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([0, 5, 290]))
    a = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-spread, spread + 1, size=(n, k))
    pool = _SPECIAL + ([np.nan, np.inf, -np.inf] if non_finite else [])
    special = rng.random((n, k)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    a[special] = rng.choice(pool, special.sum())
    return a


def _numpy_and_column_reductions(a):
    return [(a.max(axis=1), over_clusters(np.maximum, a)),
            (a.sum(axis=1), over_clusters(np.add, a)),
            (np.cumsum(a, axis=1), over_clusters(np.add, a, accumulate=True))]


@settings(max_examples=200, deadline=None)
@given(cluster_arrays())
def test_column_reductions_keep_numpy_bits(a):
    """On finite values the column-wise max, sum and cumulative sum are
    numpy's bit for bit: -0.0 sums to +0.0 and, from 8 columns on, numpy's
    own order is kept."""
    for expect, got in _numpy_and_column_reductions(a):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


@SETTINGS
@given(cluster_arrays(non_finite=True))
def test_column_reductions_keep_numpy_values_with_nan_and_inf(a):
    with np.errstate(invalid="ignore"):  # inf - inf in a sum
        for expect, got in _numpy_and_column_reductions(a):
            assert got.shape == expect.shape
            assert np.array_equal(got, expect, equal_nan=True)


@st.composite
def baselines(draw, cohort):
    """A fitted Breslow spline (first knot at 0), a spline whose first knot
    is later than some times, or a single-knot fallback."""
    _, times, events, _, rng = cohort
    kind = draw(st.sampled_from(["fitted", "late_start", "fallback"]))
    if kind == "fitted":
        return fit_spline(breslow(times, events, rng.normal(size=times.size)))
    n_knots = 1 if kind == "fallback" else draw(st.integers(2, 6))
    knots = np.sort(rng.choice(np.arange(1, 20) / 2, size=n_knots, replace=False))
    return spline_from_dict({"knots": knots, "values": np.sort(rng.random(n_knots))[::-1]})


@SETTINGS
@given(st.data(), cohorts(min_size=1))
def test_table_log_densities_equal_direct(data, cohort):
    """Rows gathered from a baseline table (a minibatch, repeats allowed) give
    the bits of evaluating each spline on those rows alone, per cluster and
    per case: times from 0 to past every last knot, tied, events and
    censored rows."""
    _, _, _, _, rng = cohort
    bls = [data.draw(baselines(cohort)) for _ in range(data.draw(st.integers(1, 4)))]
    n = data.draw(st.integers(1, 60))
    times = rng.integers(0, 24, size=n) / 2.0
    events = (rng.random(n) < 0.6).astype(int)
    table = baseline_table(bls, times)
    rows = rng.integers(0, n, size=data.draw(st.integers(1, 40)))
    f = rng.normal(scale=2.0, size=(rows.size, len(bls)))
    direct = per_row_log_densities(bls, f, times[rows], events[rows])
    gathered = cluster_log_densities(f, events[rows], (table[0][rows], table[1][rows]))
    assert np.array_equal(gathered, direct)


@SETTINGS
@given(st.data(), cohorts(min_size=1))
def test_spline_slope_outside_knots(data, cohort):
    """Past the last knot, wherever S is above its clip, dS/dt is the tail's
    -tail_hazard * S floored at -EPS_DENSITY; before the first knot S is 1
    and dS/dt is -EPS_DENSITY. Fitted, late-start and fallback splines."""
    bl = data.draw(baselines(cohort))
    rng = cohort[4]
    after = bl.knots[-1] + rng.exponential(data.draw(st.sampled_from([0.5, 5.0, 50.0])), 30)
    s, ds = spline_value_and_slope(bl, after)
    free = s > EPS_SURVIVAL
    assert np.array_equal(ds[free], np.minimum(-bl.tail_hazard * s[free], -EPS_DENSITY))
    before = bl.knots[0] - rng.uniform(1e-6, 5.0, 30)
    assert np.all(spline_eval(bl, before) == 1.0)
    assert np.all(spline_value_and_slope(bl, before)[1] == -EPS_DENSITY)


def _with_warnings(fn, *args):
    """fn(*args) and the (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@SETTINGS
@given(st.data(), cohorts(min_size=1))
def test_spline_one_path_matches_masked_branches(data, cohort):
    """The one-path spline gives the bits and the RuntimeWarnings of the
    per-subset branches, on fitted, late-start and single-knot curves (the
    empty step curve's knot at 0 among them), at points before, at, between
    and past the knots, tied, and at +-inf; a NaN time gives NaN, except on
    a single knot, where the branches gave the knot value."""
    rng = cohort[4]
    empty = StepSurvivalCurve(knot_times=np.array([]), cum_hazard=np.array([]))
    bl = data.draw(baselines(cohort) | st.just(fit_spline(empty)))
    lo, hi = bl.knots[0], bl.knots[-1]
    mids = (bl.knots[:-1] + bl.knots[1:]) / 2
    past = hi + rng.exponential(data.draw(st.sampled_from([0.5, 5.0, 500.0])), 10)
    points = np.concatenate([bl.knots, mids, rng.uniform(lo, hi, 20), lo - rng.uniform(0, 5.0, 5),
                             lo - 10.0 ** rng.uniform(0, 6, 5), past, [-np.inf, np.inf, lo, hi]])
    if bl.knots.size > 1:
        points = np.append(points, np.nan)
    # each infinity alone too, so that a warning one of them raises shows
    for q in (rng.permutation(points), np.array([-np.inf]), np.array([np.inf])):
        (s, ds), caught = _with_warnings(spline_value_and_slope, bl, q)
        (s_ref, ds_ref), caught_ref = _with_warnings(masked_spline_value_and_slope, bl, q)
        assert np.array_equal(s, s_ref, equal_nan=True)
        assert np.array_equal(ds, ds_ref, equal_nan=True)
        assert caught == caught_ref


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["mixed", "events", "censored"]),
       st.sampled_from([0.5, 5.0, 40.0]))
def test_log_densities_one_path_matches_masked_rows(seed, kind, scale):
    """One formula over every row, picked per row, gives the bits and the
    RuntimeWarnings of gathering the event and the censored rows: S0 at 1,
    at EPS_SURVIVAL and between, slopes from -EPS_DENSITY down, |f| up to
    40, and batches of events only or censored rows only."""
    rng = np.random.default_rng(seed)
    n, k = rng.integers(1, 60), rng.integers(1, 5)
    events = {"mixed": rng.random(n) < 0.5, "events": np.ones(n),
              "censored": np.zeros(n)}[kind].astype(int)
    s0 = rng.choice([1.0, EPS_SURVIVAL, 0.5], size=(n, k))
    s0[s0 == 0.5] = 10.0 ** -rng.uniform(0, 10, np.sum(s0 == 0.5))
    ds0 = -np.where(rng.random((n, k)) < 0.3, EPS_DENSITY, 10.0 ** rng.uniform(-10, 2, (n, k)))
    f = np.clip(rng.normal(scale=scale, size=(n, k)), -40.0, 40.0)
    f[rng.random((n, k)) < 0.1] = rng.choice([-40.0, 40.0])
    out, caught = _with_warnings(cluster_log_densities, f, events, (s0, ds0))
    ref, caught_ref = _with_warnings(masked_cluster_log_densities, f, events, (s0, ds0))
    assert np.array_equal(out, ref)
    assert caught == caught_ref


@st.composite
def monotone_curves(draw):
    """Strictly increasing knots (2, 3 or up to 100, at several spacings,
    sometimes starting at 0) with non-increasing values in [0, 1]: random,
    rounded so that adjacent values tie (flat runs), or falling from 1 to
    below 1e-300, through subnormal values, often to a run of exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.sampled_from([2, 3]) | st.integers(2, 100))
    knots = np.cumsum(rng.exponential(draw(st.sampled_from([0.01, 1.0, 100.0])), m))
    if draw(st.booleans()):
        knots -= knots[0]
    kind = draw(st.sampled_from(["random", "ties", "coarse_ties", "underflow"]))
    if kind == "underflow":
        return knots, np.sort(np.r_[1.0, 10.0 ** -rng.uniform(300, 330, m - 1)])[::-1]
    values = np.sort(rng.random(m))[::-1]
    return knots, {"random": values, "ties": np.round(values, 2),
                   "coarse_ties": np.round(values, 1)}[kind]


@SETTINGS
@given(monotone_curves(), st.integers(0, 2 ** 32 - 1))
def test_spline_matches_scipy_pchip(curve, seed):
    """spline_eval and spline_value_and_slope agree with scipy's PchipInterpolator,
    clamped the same way, within 1e-12 relative to the curve's scale, at the
    knots, between them, before the first (S = 1) and past the last knot
    (the constant-hazard tail at the last interval's log-secant)."""
    pchip_cls = pytest.importorskip("scipy.interpolate").PchipInterpolator
    knots, values = curve
    bl = spline_from_dict({"knots": knots, "values": values})
    s_prev, s_last = np.maximum(values[-2:], EPS_SURVIVAL)
    tail = max((np.log(s_prev) - np.log(s_last)) / (knots[-1] - knots[-2]), 0.0)
    assert bl.tail_hazard == tail
    rng = np.random.default_rng(seed)
    lo, hi, span = knots[0], knots[-1], knots[-1] - knots[0]
    q = np.concatenate([knots, rng.uniform(lo, hi, 200), lo - rng.uniform(0, span, 10),
                        hi + rng.uniform(0, span, 10)])
    # scipy overflows on subnormal secants, as the spline does; each branch's
    # values off its own side of the knots are discarded
    with np.errstate(all="ignore"):
        pchip = pchip_cls(knots, values)
        tail_s = max(values[-1], EPS_SURVIVAL) * np.exp(-tail * (q - hi))
        s_ref = np.where(q < lo, 1.0, np.where(q > hi, tail_s, pchip(q)))
        ds_ref = np.where(q < lo, 0.0, np.where(q > hi, -tail * tail_s, pchip(q, 1)))
    s_ref = np.clip(s_ref, EPS_SURVIVAL, 1.0)
    ds_ref = np.minimum(ds_ref, -EPS_DENSITY)
    s, ds = spline_value_and_slope(bl, q)
    assert np.array_equal(spline_eval(bl, q), s)
    for got, ref in ((s, s_ref), (ds, ds_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    # every knot but the last starts its interval, where the cubic is its value
    assert np.array_equal(spline_eval(bl, knots[:-1]), np.clip(values[:-1], EPS_SURVIVAL, 1))


# cells float() parses oddly or not at all, each a separate case for the loader
EDGE_CELLS = ["1_0", " 1.5 ", "1e400", "Infinity", "١", "0x10", "", "abc", "nan",
              "-inf", "1e-400", "-0", "1,5", "\n2", 'a"b']


@st.composite
def csv_texts(draw):
    """A CSV file's text in random column order: features, time, event, and
    sometimes a group and an id column. Most cells are good values; the rest
    are the edge cells above, events 2, 0.5 and -1, negative times, ragged
    and blank rows. Fields with commas, quotes or newlines are quoted (and
    some others too); lines end in LF or CRLF; some files start with a BOM.
    Returns (text, columns to drop, group column or None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_rows = rng.integers(0, 61)
    p_edge = draw(st.sampled_from([0.0, 0.01, 0.05, 0.15]))
    p_ragged = draw(st.sampled_from([0.0, 0.01, 0.05]))
    group = draw(st.sampled_from([None, "group"]))
    drop = draw(st.sampled_from([(), ("id",)]))
    header = [f"x{j}" for j in range(draw(st.integers(0, 3)))] + ["time", "event"]
    header += [c for c in (group, *drop) if c is not None]
    header = list(rng.permutation(header))
    good = {"time": ["0", "0.5", "3", "12.25", "-0.0", "1e-300"], "event": ["0", "1", "1.0", " 0"],
            "group": ["a", "b", "c,d", "e\nf", ""], "id": ["7", "z"]}
    bad = {"time": ["-2", "-1e-9"], "event": ["2", "0.5", "-1"]}

    def cell(col):
        if col in ("group", "id"):
            return rng.choice(good[col])
        if rng.random() < p_edge:
            return rng.choice(bad[col] if col in bad and rng.random() < 0.5 else EDGE_CELLS)
        return rng.choice(good.get(col, ["0", "-1.5", "2e3", "0.1"]))

    def field(c):
        quote = any(ch in c for ch in ',"\r\n') or rng.random() < 0.1
        return '"' + c.replace('"', '""') + '"' if quote else c

    lines = [",".join(header)]
    for _ in range(n_rows):
        row = [cell(c) for c in header]
        if rng.random() < p_ragged:
            row = [[], row[:-1], row + ["9"]][rng.integers(3)]
        lines.append(",".join(map(field, row)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return ("﻿" if draw(st.booleans()) else "") + text, drop, group


def _load_or_message(fn, path, **kw):
    try:
        return fn(path, "time", "event", **kw)
    except DatasetError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(csv_texts(), st.integers(1, 8), st.booleans())
def test_chunked_load_csv_matches_per_row_loader(drawn, chunk_rows, drop_missing):
    """The chunked loader returns the arrays of the per-row loader, bytes,
    dtype and strides, and its groups, or raises its DatasetError message:
    the first offending row in file order, and within a row the field count,
    then an unparsable or non-finite cell, the event, the time. Chunks of 1
    to 8 records put bad rows on both sides of chunk boundaries."""
    text, drop, group = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        kw = {"group_col": group, "drop_missing": drop_missing, "drop_columns": drop}
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
            got = _load_or_message(dataset.load_csv, path, **kw)
        ref = _load_or_message(per_row_load_csv, path, **kw)
    assert type(got) is type(ref)
    if isinstance(ref, str):
        assert got == ref
        return
    assert got.feature_names == ref.feature_names
    for name in ("features", "times", "events"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
        assert a.tobytes() == b.tobytes()
    if group is None:
        assert got.groups is None and ref.groups is None
    else:
        assert got.groups.dtype == ref.groups.dtype == object
        assert list(got.groups) == list(ref.groups)
