import functools
import tracemalloc

import numpy as np
import pytest

from coxmix import metrics as metrics_mod
from coxmix.estimators import StepSurvivalCurve, censoring_km
from coxmix.metrics import (
    MIN_GROUP_SIZE, MIN_IPCW_DENOM, MetricError, auc_ipcw, bootstrap_se, brier_ipcw, calibration_bins,
    concordance_td, ece, evaluate_by_group,
)
from conftest import ipcw_pair_auc, naive_auc, naive_concordance


def flat_g():
    """Censoring curve identically 1 (no censoring)."""
    return StepSurvivalCurve(knot_times=np.array([]), cum_hazard=np.array([]))


def dropped_in_report(pi, times, events, horizon):
    """{metric: (estimate, dropped)} of the population row at the horizon."""
    rows = evaluate_by_group(np.asarray(pi)[:, None], times, events, [horizon], n_replicates=0)
    return {r.metric: (r.estimate, r.dropped) for r in rows if r.group == "population"}


def uncensored_instance(seed=0, n=60, horizon=2.0):
    rng = np.random.default_rng(seed)
    times = rng.exponential(1.5, n)
    events = np.ones(n, dtype=int)
    pi = rng.random(n)
    return pi, times, events, horizon


class TestConcordance:
    def test_perfect_predictions(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 1, 1])
        pi = times / 10.0  # later event = higher survival
        assert concordance_td(pi, times, events, flat_g(), 5.0) == 1.0

    def test_reversed_predictions(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 1, 1])
        pi = 1.0 - times / 10.0
        assert concordance_td(pi, times, events, flat_g(), 5.0) == 0.0

    def test_constant_predictions_half(self):
        pi, times, events, h = uncensored_instance()
        c = concordance_td(np.full_like(pi, 0.5), times, events, flat_g(), h)
        assert c == 0.5

    def test_no_censoring_matches_naive(self):
        for seed in range(5):
            pi, times, events, h = uncensored_instance(seed)
            got = concordance_td(pi, times, events, flat_g(), h)
            np.testing.assert_allclose(got, naive_concordance(pi, times, events, h),
                                       rtol=1e-12)

    def test_horizon_restricts_cases(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        pi = np.array([0.9, 0.2, 0.5])  # subject 1 badly ranked
        # horizon 1.5: only pairs (1, *) count; both discordant except none
        c = concordance_td(pi, times, events, flat_g(), 1.5)
        assert c == 0.0

    def test_censored_rows_are_not_cases(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([0, 1, 1])
        pi = np.array([0.99, 0.3, 0.6])
        g = censoring_km(times, events)
        # only (2,3) is a comparable pair; concordant
        assert concordance_td(pi, times, events, g, 5.0) == 1.0

    def test_no_pairs_raises(self):
        with pytest.raises(MetricError):
            concordance_td([0.5, 0.5], [5.0, 6.0], [1, 1], flat_g(), 1.0)


@pytest.mark.parametrize("metric", [concordance_td, auc_ipcw])
def test_pairwise_metrics_reject_nan_predictions(metric):
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([1, 1, 1, 1])
    pi = np.array([0.2, np.nan, 0.6, 0.8])
    with pytest.raises(MetricError, match="NaN"):
        metric(pi, times, events, flat_g(), 2.5)


def _score(metric, pi, seed=8):
    rng = np.random.default_rng(seed)
    times = rng.exponential(1.0, pi.size)
    events = (rng.random(pi.size) < 0.7).astype(int)
    if metric in (ece, calibration_bins):
        return metric(pi, times, events, 1.0)
    return metric(pi, times, events, censoring_km(times, events), 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, 1.5, -0.2])
@pytest.mark.parametrize("metric", [brier_ipcw, ece, calibration_bins])
def test_probability_metrics_reject_non_probabilities(metric, bad):
    # +inf made ece and brier_ipcw inf, and 1.5 or -0.2 scored silently
    pi = np.random.default_rng(3).random(200)
    pi[17] = bad
    with pytest.raises(MetricError, match=r"infinite|outside \[0, 1\]"):
        _score(metric, pi)


@pytest.mark.parametrize("metric", [concordance_td, auc_ipcw])
def test_rank_metrics_take_any_finite_score(metric):
    # only the order of the scores counts, so an increasing map out of
    # [0, 1] scores the same; an infinite score is rejected
    pi = np.random.default_rng(3).random(200)
    assert _score(metric, 3.0 * pi - 1.0) == _score(metric, pi)
    pi[17] = np.inf
    with pytest.raises(MetricError, match="infinite"):
        _score(metric, pi)


class TestInputChecks:
    """Each bad input raises a named MetricError; before these checks, each
    scored silently or raised a bare numpy error."""

    @staticmethod
    def call(metric, pi, times, events):
        """metric on 200 records with the given inputs in place of good ones."""
        rng = np.random.default_rng(4)
        good_times = rng.exponential(1.0, 200)
        good_events = (rng.random(200) < 0.7).astype(int)
        pi = rng.random(200) if pi is None else pi
        times = good_times if times is None else times
        events = good_events if events is None else events
        if metric in (ece, calibration_bins):
            return metric(pi, times, events, 1.0)
        return metric(pi, times, events, censoring_km(good_times, good_events), 1.0)

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, brier_ipcw])
    @pytest.mark.parametrize("n_pred", [150, 250])
    def test_predictions_of_another_length(self, metric, n_pred):
        pi = np.random.default_rng(0).random(n_pred)
        with pytest.raises(MetricError, match=f"{n_pred} predictions for 200 records"):
            self.call(metric, pi, None, None)

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, brier_ipcw])
    def test_fewer_events_than_times(self, metric):
        with pytest.raises(MetricError, match="150 events for 200 times"):
            self.call(metric, None, None, np.ones(150, dtype=int))

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, brier_ipcw])
    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_events_other_than_0_or_1(self, metric, bad):
        events = (np.arange(200) % 3 == 0).astype(float)
        events[events == 1] = bad
        with pytest.raises(MetricError, match="events must be 0 or 1"):
            self.call(metric, None, None, events)

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, brier_ipcw])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_times_not_finite(self, metric, bad):
        times = np.random.default_rng(1).exponential(1.0, 200)
        times[17] = bad
        with pytest.raises(MetricError, match="times must be finite"):
            self.call(metric, None, times, None)

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, brier_ipcw])
    def test_no_records(self, metric):
        # brier_ipcw returned NaN, with a RuntimeWarning from its 0 / 0
        empty = np.empty(0)
        with pytest.raises(MetricError):
            self.call(metric, empty, empty, empty.astype(int))

    @pytest.mark.parametrize("n_bins", [0, -3])
    def test_no_bins(self, n_bins):
        pi, times, events, horizon = uncensored_instance(n=200)
        for metric in (ece, calibration_bins):
            with pytest.raises(MetricError, match="need 1 to 200 bins for 200 records"):
                metric(pi, times, events, horizon, n_bins=n_bins)

    @pytest.mark.parametrize("metric", [concordance_td, auc_ipcw, ece, calibration_bins,
                                        brier_ipcw])
    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf])
    def test_horizon_not_finite(self, metric, horizon):
        rng = np.random.default_rng(4)
        times = rng.exponential(1.0, 200)
        events = (rng.random(200) < 0.7).astype(int)
        args = () if metric in (ece, calibration_bins) else (censoring_km(times, events),)
        with pytest.raises(MetricError, match=f"horizon must be finite, not {horizon}"):
            metric(rng.random(200), times, events, *args, horizon)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_evaluate_by_group_horizon_not_finite(self, horizon):
        pi, times, events, _ = uncensored_instance(n=200)
        with pytest.raises(MetricError, match=f"horizon must be finite, not {horizon}"):
            evaluate_by_group(np.column_stack([pi, pi]), times, events, [1.0, horizon],
                              n_replicates=2)

    def test_negative_horizon_is_valid(self):
        pi, times, events, _ = uncensored_instance(n=200)
        # before any time every record survives: every bin's Kaplan-Meier is 1
        assert ece(pi, times, events, -1.0) == pytest.approx(np.mean(np.abs(1.0 - pi)))

    @pytest.mark.parametrize("n_bins", [2.5, True, np.float64(4.0)])
    def test_bins_not_an_integer(self, n_bins):
        pi, times, events, horizon = uncensored_instance(n=200)
        for metric in (ece, calibration_bins):
            with pytest.raises(MetricError, match="n_bins must be an integer"):
                metric(pi, times, events, horizon, n_bins=n_bins)

    def test_group_labels_of_another_length(self):
        pi, times, events, horizon = uncensored_instance(n=200)
        with pytest.raises(MetricError, match="150 group labels for 200 records"):
            evaluate_by_group(pi[:, None], times, events, [horizon],
                              groups=np.array(["a", "b", "c"] * 50), n_replicates=2)


@pytest.mark.parametrize("metric", [concordance_td, auc_ipcw])
def test_pairwise_metrics_never_form_all_pairs(metric):
    # an n x n boolean array at n = 20000 is 400 MB; the sorted counting
    # needs O(n) memory
    rng = np.random.default_rng(6)
    n = 20000
    times = rng.exponential(1.0, n)
    events = (rng.random(n) < 0.7).astype(int)
    pi = np.round(rng.random(n), 2)
    g = censoring_km(times, events)
    tracemalloc.start()
    try:
        metric(pi, times, events, g, float(np.median(times)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


class TestAuc:
    def test_perfect(self):
        times = np.array([1.0, 2.0, 8.0, 9.0])
        events = np.array([1, 1, 1, 1])
        pi = np.array([0.1, 0.2, 0.8, 0.9])
        np.testing.assert_allclose(auc_ipcw(pi, times, events, flat_g(), 5.0), 1.0)

    def test_no_censoring_matches_naive(self):
        for seed in range(5):
            pi, times, events, h = uncensored_instance(seed)
            got = auc_ipcw(pi, times, events, flat_g(), h)
            np.testing.assert_allclose(got, naive_auc(pi, times, events, h),
                                       rtol=1e-10)

    def test_six_record_direct_sweep(self):
        # 3 cases (T <= 2), 3 controls; weights by hand with G = 1
        pi = np.array([0.2, 0.5, 0.4, 0.7, 0.3, 0.9])
        times = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
        events = np.array([1, 1, 1, 1, 1, 1])
        got = auc_ipcw(pi, times, events, flat_g(), 2.0)
        # risks: cases {0.8, 0.5, 0.6}, controls {0.3, 0.7, 0.1}
        # pairs won: 0.8 beats all 3; 0.5 beats 0.3, 0.1; 0.6 beats 0.3, 0.1
        np.testing.assert_allclose(got, 7.0 / 9.0, rtol=1e-12)

    def test_prediction_ties_half_credit(self):
        pi = np.array([0.5, 0.5])
        times = np.array([1.0, 3.0])
        events = np.array([1, 1])
        np.testing.assert_allclose(auc_ipcw(pi, times, events, flat_g(), 2.0), 0.5)

    def test_predictions_with_equal_risk_tie(self):
        # 0, 1e-17 and 5e-324 are distinct predictions, but 1 - pi is 1.0
        # for each, so every pair among them is a tie in risk
        tiny = [0.0, 1e-17, 5e-324]
        pi = np.array(tiny + [0.4] + tiny + [0.7, 0.2] + tiny + [0.9, 0.5])
        times = np.array([1.0, 1.5, 2.0, 2.5, 2.5, 3.0, 1.2, 3.2, 4.0,
                          5.0, 6.0, 7.0, 8.0, 9.0])
        events = np.array([1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0])
        assert np.all(1.0 - pi[pi < 1e-16] == 1.0)
        g = censoring_km(times, events)
        for horizon in (3.0, 3.5, 4.0):
            np.testing.assert_allclose(
                auc_ipcw(pi, times, events, g, horizon),
                ipcw_pair_auc(pi, times, events, horizon, MIN_IPCW_DENOM), rtol=1e-12)

    def test_needs_cases_and_controls(self):
        with pytest.raises(MetricError):
            auc_ipcw([0.5, 0.4], [1.0, 2.0], [1, 1], flat_g(), 5.0)


class TestEce:
    def test_perfectly_calibrated_constant(self):
        # exponential times with rate ln 2 give S(1) = 0.5; a constant 0.5
        # prediction at horizon 1 should have small ECE
        rng = np.random.default_rng(0)
        n = 20000
        times = rng.exponential(1.0 / np.log(2.0), n)
        events = np.ones(n, dtype=int)
        pi = np.full(n, 0.5)
        assert ece(pi, times, events, horizon=1.0) < 0.03

    def test_known_gap_two_bins(self):
        # all events at t=2, predictions constant 0.4 -> KM(1) = 1
        times = np.full(10, 2.0)
        events = np.ones(10, dtype=int)
        pi = np.full(10, 0.4)
        np.testing.assert_allclose(ece(pi, times, events, horizon=1.0, n_bins=2),
                                   0.6, rtol=1e-12)

    def test_miscalibration_increases_ece(self):
        rng = np.random.default_rng(1)
        n = 2000
        times = rng.exponential(1.0 / np.log(2.0), n)
        events = np.ones(n, dtype=int)
        good = ece(np.full(n, 0.5), times, events, horizon=1.0)
        bad = ece(np.full(n, 0.9), times, events, horizon=1.0)
        assert bad > good + 0.3

    def test_undefined_bins_skipped_and_counted(self):
        # horizon beyond the follow-up of the bins holding the last 10
        # records, which ends censored; the report counts those bins
        times = np.concatenate([np.ones(30), np.full(10, 2.0)])
        events = np.concatenate([np.ones(30, dtype=int), np.zeros(10, dtype=int)])
        pi = np.linspace(0.1, 0.9, 40)
        val = ece(pi, times, events, horizon=5.0, n_bins=4)
        assert np.isfinite(val)
        estimate, dropped = dropped_in_report(pi, times, events, 5.0)["ece"]
        assert np.isfinite(estimate) and dropped == 5  # of 20 bins

    def test_too_few_records(self):
        with pytest.raises(MetricError):
            ece([0.5] * 5, [1.0] * 5, [1] * 5, horizon=0.5)

    def test_all_bins_undefined_raises(self):
        # every record is censored before the horizon, so no bin has a
        # Kaplan-Meier estimate there
        pi = np.linspace(0.1, 0.9, 40)
        times, events = np.arange(1.0, 41.0), np.zeros(40, dtype=int)
        with pytest.raises(MetricError, match="all calibration bins undefined"):
            ece(pi, times, events, horizon=50.0, n_bins=4)
        estimate, dropped = dropped_in_report(pi, times, events, 50.0)["ece"]
        assert np.isnan(estimate) and dropped == 20

    def test_rejects_nan_predictions(self):
        # a NaN has no quantile bin; the shared binning must not place it
        pi, times, events, horizon = uncensored_instance(n=200)
        pi[17] = np.nan
        with pytest.raises(MetricError, match="NaN"):
            ece(pi, times, events, horizon)
        with pytest.raises(MetricError, match="NaN"):
            calibration_bins(pi, times, events, horizon)

    def test_counts_straddling_bin_edges_split(self):
        # a resample's record stands for its copies in a row; copies across
        # a bin edge (here one record spans five bins) fall in the bins of
        # their positions, and records with equal predictions are binned in
        # record order: the bins of the copies, bit for bit
        rng = np.random.default_rng(6)
        times = rng.integers(1, 9, 30).astype(float)
        events = (rng.random(30) < 0.7).astype(int)
        pi = np.round(rng.random(30), 1)
        counts = rng.integers(0, 3, 30)
        counts[4] = 9
        idx = np.repeat(np.arange(30), counts)
        for horizon in (3.0, 6.0):
            sample = metrics_mod._Sample(times, events, censoring_km(times, events)).at(
                pi, horizon, probabilities=True)
            got = calibration_bins(pi, times, events, horizon, n_bins=12,
                                   sample=sample.resampled(counts))
            want = calibration_bins(pi[idx], times[idx], events[idx], horizon, n_bins=12)
            assert got == want


class TestBrier:
    def test_hand_no_censoring(self):
        pi = np.array([0.2, 0.9, 0.6])
        times = np.array([1.0, 5.0, 0.5])
        events = np.array([1, 1, 1])
        # horizon 2: records 0 and 2 are early events, record 1 survives
        expect = (0.2 ** 2 + (1 - 0.9) ** 2 + 0.6 ** 2) / 3
        np.testing.assert_allclose(brier_ipcw(pi, times, events, flat_g(), 2.0),
                                   expect, rtol=1e-12)

    def test_perfect_oracle_low_score(self):
        rng = np.random.default_rng(2)
        n = 500
        times = rng.exponential(1.0, n)
        events = np.ones(n, dtype=int)
        h = 1.0
        oracle = (times > h).astype(float)
        blind = np.full(n, 0.5)
        g = flat_g()
        assert brier_ipcw(oracle, times, events, g, h) == 0.0
        np.testing.assert_allclose(brier_ipcw(blind, times, events, g, h), 0.25)

    def test_censoring_weights_hand_case(self):
        # one censored at 1.5 among events at 1 and 3; horizon 2
        times = np.array([1.0, 1.5, 3.0])
        events = np.array([1, 0, 1])
        pi = np.array([0.3, 0.5, 0.8])
        g = censoring_km(times, events)
        # G(1-) = 1, G(2) = G(1.5) = 1 - 1/2 = 1/2
        expect = (0.3 ** 2 / 1.0 + 0.0 + (1 - 0.8) ** 2 / 0.5) / 3
        np.testing.assert_allclose(brier_ipcw(pi, times, events, g, 2.0),
                                   expect, rtol=1e-12)

    def test_horizon_beyond_followup(self):
        times = np.array([1.0, 2.0])
        events = np.array([1, 0])
        g = censoring_km(times, events)
        with pytest.raises(MetricError):
            brier_ipcw([0.5, 0.5], times, events, g, 10.0)

    def test_event_with_near_zero_censoring_weight_dropped_and_counted(self):
        # 10,000 records censored at t=1 leave G(2-) = 1/10001 below
        # MIN_IPCW_DENOM for the one event at t=2; the censored records
        # score 0, and so does the dropped event, which every IPCW metric
        # reports as dropped
        times = np.append(np.ones(10000), 2.0)
        events = np.append(np.zeros(10000, dtype=int), 1)
        g = censoring_km(times, events)
        assert g.eval_left(2.0) < MIN_IPCW_DENOM
        pi = np.full(10001, 0.5)
        assert brier_ipcw(pi, times, events, g, 3.0) == 0.0
        report = dropped_in_report(pi, times, events, 3.0)
        assert report["brier_ipcw"] == (0.0, 1)
        assert report["concordance_td"][1] == report["auc_ipcw"][1] == 1

    def test_rejects_nan_prediction_of_censored_row(self):
        # censored before the horizon, the row carries no weight, so the
        # NaN would otherwise drop out of a finite score
        rng = np.random.default_rng(5)
        times = rng.exponential(1.0, 200)
        events = (rng.random(200) < 0.6).astype(int)
        pi = rng.random(200)
        pi[np.flatnonzero((events == 0) & (times < 1.0))[0]] = np.nan
        with pytest.raises(MetricError, match="NaN"):
            brier_ipcw(pi, times, events, censoring_km(times, events), 1.0)


def weighted_mean(data):
    """The mean of a resample given as record counts."""
    return lambda counts: float(counts @ data) / counts.sum()


class TestBootstrap:
    def test_se_matches_analytic_mean(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, 400)
        mean, se, used, defined = bootstrap_se(weighted_mean(data),
                                               len(data), n_replicates=500, seed=0)
        analytic = data.std(ddof=1) / np.sqrt(len(data))
        assert used == defined == 500
        assert 0.8 * analytic < se < 1.2 * analytic
        assert abs(mean - data.mean()) < 3 * analytic

    def test_se_shrinks_with_n(self):
        rng = np.random.default_rng(4)
        small = rng.normal(0, 1, 100)
        big = rng.normal(0, 1, 1600)
        _, se_small, _, _ = bootstrap_se(weighted_mean(small), 100, 300, seed=1)
        _, se_big, _, _ = bootstrap_se(weighted_mean(big), 1600, 300, seed=1)
        assert 2.5 < se_small / se_big < 6.0  # expect about 4

    def test_failed_replicates_dropped(self):
        calls = {"n": 0}

        def flaky(counts):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise MetricError("bad resample")
            return 1.0

        mean, se, used, defined = bootstrap_se(flaky, 10, n_replicates=30, seed=2)
        assert used == defined == 20
        assert mean == 1.0

    def test_array_values_match_one_bootstrap_per_value(self):
        # undefined (NaN) values drop out of their own entry only
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, 50)
        mean_of = weighted_mean(data)

        def second(counts):
            if mean_of(counts) > data.mean():
                raise MetricError("undefined on this resample")
            return data[counts > 0].max()

        def both(counts):
            try:
                return np.array([mean_of(counts), second(counts)])
            except MetricError:
                return np.array([mean_of(counts), np.nan])

        mean, se, used, defined = bootstrap_se(both, 50, n_replicates=40, seed=3)
        assert used == 40
        for i, fn in enumerate((mean_of, second)):
            m, s, u, d = bootstrap_se(fn, 50, n_replicates=40, seed=3)
            assert (mean[i], se[i], defined[i]) == (m, s, u)
        assert 0 < defined[1] < 40

    def test_one_replicate_gives_no_se(self):
        # one replicate measures no spread: its SE used to read 0.0
        mean, se, used, defined = bootstrap_se(weighted_mean(np.arange(10.0)), 10,
                                               n_replicates=1, seed=0)
        assert used == defined == 1
        assert np.isfinite(mean) and np.isnan(se)

    def test_value_one_replicate_defines_gets_no_se(self):
        # the other value keeps its SE; n (defined) still says one replicate
        mean_of, calls = weighted_mean(np.arange(10.0)), []

        def values(counts):
            calls.append(1)
            return np.array([mean_of(counts), 1.0 if len(calls) == 3 else np.nan])

        mean, se, used, defined = bootstrap_se(values, 10, n_replicates=6, seed=0)
        assert used == 6 and defined.tolist() == [6, 1]
        assert se[0] > 0 and mean[1] == 1.0 and np.isnan(se[1])

    def test_all_fail_raises(self):
        def broken(counts):
            raise MetricError("nope")
        with pytest.raises(MetricError):
            bootstrap_se(broken, 10, n_replicates=5, seed=0)

    def test_needs_two_records(self):
        with pytest.raises(MetricError, match="need at least 2 records"):
            bootstrap_se(lambda counts: 0.0, 1, n_replicates=5, seed=0)

    def test_counts_are_the_index_draws(self):
        # replicate b is the multiset of the index stream drawn before
        # counts replaced index arrays: same generator, same calls
        seen = []
        bootstrap_se(lambda counts: seen.append(counts) or 0.0, 37, n_replicates=6, seed=9)
        rng = np.random.default_rng(9)
        for counts in seen:
            idx = rng.integers(0, 37, size=37)
            assert counts.dtype.kind == "i"
            assert np.array_equal(counts, np.bincount(idx, minlength=37))


def test_one_censoring_fit_and_one_g_lookup_per_sample(monkeypatch):
    """All metrics at all horizons of one sample share one censoring fit
    and one G(T-) lookup; each IPCW metric used to look it up again. A
    bootstrap resample, scored as record counts, adds one of each."""
    rng = np.random.default_rng(3)
    times = rng.integers(1, 30, 300).astype(float)
    events = (rng.random(300) < 0.7).astype(int)
    surv = np.round(rng.random((300, 3)), 2)
    calls = []
    fit, left = metrics_mod.censoring_km, StepSurvivalCurve.eval_left
    monkeypatch.setattr(metrics_mod, "censoring_km",
                        lambda *a, **k: calls.append("censoring_km") or fit(*a, **k))
    monkeypatch.setattr(StepSurvivalCurve, "eval_left",
                        lambda self, t: calls.append("eval_left") or left(self, t))
    samples = metrics_mod._stratum_samples(surv, times, events, [5.0, 10.0, 20.0])
    values = metrics_mod._sample_metrics(samples)
    assert np.isfinite(values).all()
    assert calls == ["censoring_km", "eval_left"]
    counts = np.bincount(rng.integers(0, 300, 300), minlength=300)
    values = metrics_mod._sample_metrics(samples, counts)
    assert np.isfinite(values).all()
    assert calls == ["censoring_km", "eval_left"] * 2


def test_pairs_and_risk_ranks_built_once_per_stratum_and_horizon(monkeypatch):
    """The bootstrap resamples of a stratum at a horizon are copies of its
    sample, scored after it, so they reuse its pair structure and risk
    ranks: 3 strata x 3 horizons build 9 of each, whatever the replicates."""
    built, pairs = [], metrics_mod._Pairs
    monkeypatch.setattr(metrics_mod, "_Pairs", lambda s: built.append("pairs") or pairs(s))
    ranks = metrics_mod._Sample.risk_ranks.func
    counted = functools.cached_property(lambda s: built.append("ranks") or ranks(s))
    counted.__set_name__(metrics_mod._Sample, "risk_ranks")
    monkeypatch.setattr(metrics_mod._Sample, "risk_ranks", counted)
    rng = np.random.default_rng(6)
    times = rng.integers(1, 30, 240).astype(float)
    events = (rng.random(240) < 0.7).astype(int)
    rows = evaluate_by_group(rng.random((240, 3)), times, events, [5.0, 10.0, 20.0],
                             groups=np.repeat(["a", "b"], 120), n_replicates=5, seed=1)
    assert {r.n for r in rows} == {5}
    assert built.count("pairs") == built.count("ranks") == 9


def test_rank_and_brier_metrics_never_build_the_pair_structure(monkeypatch):
    """The concordance's pair structure is built lazily: AUC and Brier
    alone, as cv --grid calls them, never build it."""
    def refuse(*args):
        raise AssertionError("pair structure built")

    monkeypatch.setattr(metrics_mod, "_Pairs", refuse)
    rng = np.random.default_rng(8)
    times = rng.integers(1, 30, 200).astype(float)
    events = (rng.random(200) < 0.7).astype(int)
    pi, g = rng.random(200), censoring_km(times, events)
    assert 0 < auc_ipcw(pi, times, events, g, 10.0) < 1
    assert 0 < brier_ipcw(pi, times, events, g, 10.0) < 1
    sample = metrics_mod._Sample(times, events, g).at(pi, 10.0, probabilities=True)
    auc_ipcw(pi, times, events, g, 10.0, sample=sample)
    brier_ipcw(pi, times, events, g, 10.0, sample=sample.resampled(np.bincount(
        rng.integers(0, 200, 200), minlength=200)))
    with pytest.raises(AssertionError, match="pair structure built"):
        concordance_td(pi, times, events, g, 10.0, sample=sample)


class TestEvaluateByGroup:
    def make_population(self, seed=0, n=600):
        rng = np.random.default_rng(seed)
        times = rng.exponential(1.0 / np.log(2.0), n)
        cens = rng.exponential(5.0, n)
        events = (times <= cens).astype(int)
        obs = np.minimum(times, cens)
        pi = np.clip(0.5 + rng.normal(0, 0.05, n), 0.01, 0.99)
        return pi, obs, events

    def test_population_and_group_rows(self):
        pi, times, events = self.make_population()
        groups = np.array(["a"] * 300 + ["b"] * 300)
        rows = evaluate_by_group(pi[:, None], times, events, [1.0],
                                 groups=groups, n_replicates=20)
        labels = {r.group for r in rows}
        assert labels == {"population", "a", "b"}
        assert len(rows) == 3 * 4  # 4 metrics x 3 strata x 1 horizon

    def test_small_group_nan(self):
        pi, times, events = self.make_population()
        groups = np.array(["big"] * (len(times) - 5) + ["tiny"] * 5)
        rows = evaluate_by_group(pi[:, None], times, events, [1.0],
                                 groups=groups, n_replicates=10)
        tiny = [r for r in rows if r.group == "tiny"]
        assert len(tiny) == 4
        assert all(np.isnan(r.estimate) and r.n == 0 and r.records == 5 for r in tiny)
        assert {r.records for r in rows if r.group == "big"} == {len(times) - 5}
        assert MIN_GROUP_SIZE == 20

    def test_small_population_nan(self):
        # the population follows the groups' rule: below MIN_GROUP_SIZE it
        # is not scored and gives no calibration bins; it used to be scored,
        # and its 20 default calibration bins raised on 15 records
        pi, times, events = self.make_population(n=15)
        calibration = []
        rows = evaluate_by_group(np.c_[pi, pi / 2], times, events, [1.0, 2.0],
                                 groups=np.array(["a"] * 10 + ["b"] * 5),
                                 n_replicates=5, calibration=calibration)
        assert len(rows) == 3 * 2 * 4
        assert all(np.isnan(r.estimate) and np.isnan(r.se) and r.n == 0 for r in rows)
        assert {(r.group, r.records) for r in rows} == {
            ("population", 15), ("a", 10), ("b", 5)}
        assert calibration == []

    @pytest.mark.parametrize("column, bad, message", [
        ("times", np.nan, "times must be finite"),
        ("events", 2, "events must be 0 or 1"),
    ])
    def test_unscored_population_still_checks_records(self, column, bad, message):
        pi, times, events = self.make_population(n=15)
        data = {"times": times, "events": events}
        data[column][3] = bad
        with pytest.raises(MetricError, match=message):
            evaluate_by_group(pi[:, None], data["times"], data["events"], [1.0],
                              n_replicates=5)
        with pytest.raises(MetricError, match="14 events for 15 times"):
            evaluate_by_group(pi[:, None], times, events[:14], [1.0], n_replicates=5)

    def test_detects_miscalibrated_group(self):
        rng = np.random.default_rng(5)
        n = 1200
        times = rng.exponential(1.0 / np.log(2.0), n)
        events = np.ones(n, dtype=int)
        pi = np.clip(0.5 + rng.normal(0, 0.03, n), 0.01, 0.99)
        pi[n // 2:] = np.clip(pi[n // 2:] + 0.35, 0.01, 0.99)  # overconfident half
        groups = np.array(["ok"] * (n // 2) + ["off"] * (n // 2))
        rows = evaluate_by_group(pi[:, None], times, events, [1.0],
                                 groups=groups, n_replicates=20)
        by = {r.group: r for r in rows if r.metric == "ece"}
        assert by["off"].estimate > by["ok"].estimate + 0.2

    def test_estimates_are_full_stratum_metrics(self):
        # without bootstrap replicates every estimate is still reported: it
        # is the metric on the full stratum, with no SE
        pi, times, events = self.make_population()
        groups = np.array(["a"] * 300 + ["b"] * 300)
        rows = evaluate_by_group(pi[:, None], times, events, [1.0],
                                 groups=groups, n_replicates=0)
        assert len(rows) == 12
        for r in rows:
            mask = np.ones(len(times), bool) if r.group == "population" else groups == r.group
            p, t, e = pi[mask], times[mask], events[mask]
            g = censoring_km(t, e)
            direct = {"concordance_td": lambda: concordance_td(p, t, e, g, 1.0),
                      "auc_ipcw": lambda: auc_ipcw(p, t, e, g, 1.0),
                      "ece": lambda: ece(p, t, e, 1.0),
                      "brier_ipcw": lambda: brier_ipcw(p, t, e, g, 1.0)}[r.metric]()
            assert np.isfinite(r.estimate) and r.estimate == direct
            assert np.isnan(r.se) and r.n == 0

    def test_nan_prediction_rejected_before_scoring(self):
        # one NaN in a 200-row stratum must not become blank estimates next
        # to a finite SE from the resamples that missed the row
        pi, times, events = self.make_population(n=400)
        pi[317] = np.nan
        groups = np.array(["a"] * 200 + ["b"] * 200)
        with pytest.raises(MetricError, match="surv_matrix contains NaN"):
            evaluate_by_group(pi[:, None], times, events, [1.0], groups=groups,
                              n_replicates=5)
        with pytest.raises(MetricError, match="surv_matrix contains NaN"):
            evaluate_by_group(pi[200:, None], times[200:], events[200:], [1.0],
                              n_replicates=5)

    @pytest.mark.parametrize("bad", [np.inf, 1.5, -0.2])
    def test_non_probability_rejected_before_scoring(self, monkeypatch, bad):
        # one such prediction in a 200-row stratum scored silently, as an
        # inf ece or as finite numbers; now no stratum is scored at all
        pi, times, events = self.make_population(n=400)
        pi[317] = bad
        groups = np.array(["a"] * 200 + ["b"] * 200)
        monkeypatch.setattr(metrics_mod, "_stratum_metrics", None)  # never reached
        with pytest.raises(MetricError, match="surv_matrix contains predictions outside"):
            evaluate_by_group(pi[:, None], times, events, [1.0], groups=groups,
                              n_replicates=5)

    def test_group_labelled_population_refused(self):
        # it was reported as a second population stratum, next to the real one
        pi, times, events = self.make_population(n=200)
        groups = np.array(["population"] * 109 + ["other"] * 91)
        with pytest.raises(MetricError, match=r"repeat the stratum names \['population'\]"):
            evaluate_by_group(pi[:, None], times, events, [1.0], groups=groups,
                              n_replicates=2)

    def test_shape_check(self):
        with pytest.raises(MetricError):
            evaluate_by_group(np.zeros((5, 2)), np.ones(5), np.ones(5, dtype=int),
                              [1.0])
