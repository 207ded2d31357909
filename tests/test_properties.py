"""Property tests: the sorted-risk-set metrics, the vectorised estimators
and the partial likelihood against the brute-force oracles in conftest, on
random data with tied times, tied predictions and random censoring; the
range and monotonicity of the mixture's survival predictions; the
stratified partial likelihood against one likelihood per cluster; the
baseline table against direct spline evaluation; the spline's slope
outside its knots; and the spline against scipy's PchipInterpolator
between them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxmix.estimators import breslow, censoring_km, kaplan_meier, kaplan_meier_at
from coxmix.metrics import (
    MIN_IPCW_DENOM, MetricError, auc_ipcw, brier_ipcw, concordance_td, ece,
)
from coxmix.model import DcmConfig, DcmModel, baseline_table, cluster_log_densities
from coxmix.neural import init_params
from coxmix.objective import partial_log_likelihood, q_hat
from coxmix.spline import (
    EPS_DENSITY, EPS_SURVIVAL, fit_spline, spline_derivative, spline_eval, spline_from_dict,
)
from conftest import (
    brute_force_breslow, brute_force_km, brute_force_partial_likelihood, ipcw_pair_auc,
    ipcw_pair_concordance, per_cluster_q_hat,
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
    np.testing.assert_allclose(km.survival_values, surv, rtol=1e-12, atol=1e-15)

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
    loss, d_f, d_g = q_hat(*batch)
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
    return spline_from_dict({
        "knots": knots, "values": np.sort(rng.random(n_knots))[::-1],
        "tail_hazard": float(rng.exponential()), "is_fallback": kind == "fallback"})


@SETTINGS
@given(st.data(), cohorts(min_size=1))
def test_table_log_densities_equal_direct(data, cohort):
    """Rows gathered from a baseline table (a minibatch, repeats allowed) give
    the bits of evaluating the splines on those rows: times from 0 to past
    every last knot, tied, events and censored rows."""
    _, _, _, _, rng = cohort
    bls = [data.draw(baselines(cohort)) for _ in range(data.draw(st.integers(1, 4)))]
    n = data.draw(st.integers(1, 60))
    times = rng.integers(0, 24, size=n) / 2.0
    events = (rng.random(n) < 0.6).astype(int)
    table = baseline_table(bls, times, events)
    rows = rng.integers(0, n, size=data.draw(st.integers(1, 40)))
    f = rng.normal(scale=2.0, size=(rows.size, len(bls)))
    direct = cluster_log_densities(bls, f, times[rows], events[rows])
    gathered = cluster_log_densities(bls, f, times[rows], events[rows],
                                     table=(table[0][rows], table[1][rows]))
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
    s, ds = spline_eval(bl, after), spline_derivative(bl, after)
    free = s > EPS_SURVIVAL
    assert np.array_equal(ds[free], np.minimum(-bl.tail_hazard * s[free], -EPS_DENSITY))
    before = bl.knots[0] - rng.uniform(1e-6, 5.0, 30)
    assert np.all(spline_eval(bl, before) == 1.0)
    assert np.all(spline_derivative(bl, before) == -EPS_DENSITY)


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
@given(monotone_curves(), st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_spline_matches_scipy_pchip(curve, tail, seed):
    """spline_eval and spline_derivative agree with scipy's PchipInterpolator,
    clamped the same way, within 1e-12 relative to the curve's scale, at the
    knots, between them, before the first (S = 1) and past the last knot
    (the constant-hazard tail)."""
    pchip_cls = pytest.importorskip("scipy.interpolate").PchipInterpolator
    knots, values = curve
    bl = spline_from_dict({"knots": knots, "values": values, "tail_hazard": tail,
                           "is_fallback": False})
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
    for got, ref in ((spline_eval(bl, q), s_ref), (spline_derivative(bl, q), ds_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    # every knot but the last starts its interval, where the cubic is its value
    assert np.array_equal(spline_eval(bl, knots[:-1]), np.clip(values[:-1], EPS_SURVIVAL, 1))
