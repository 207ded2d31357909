import warnings

import numpy as np
import pytest

from coxmix.estimators import StepSurvivalCurve
from coxmix.model import ModelError, cluster_log_densities
from coxmix.spline import (
    EPS_DENSITY, EPS_SURVIVAL, density_given_cluster, fit_spline,
    spline_eval, spline_from_dict, spline_to_dict, spline_value_and_slope,
)
from conftest import exp_spline


def density(s, f, t):
    """The event density at t under baseline s for log hazard f."""
    return density_given_cluster(np.exp(f), *spline_value_and_slope(s, t))


class TestFitEval:
    def test_interpolates_knots_exactly(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0.1, 5.0, size=30))
        h = np.cumsum(rng.uniform(0.01, 0.2, size=30))
        s = fit_spline(StepSurvivalCurve(knot_times=t, cum_hazard=h))
        np.testing.assert_allclose(spline_eval(s, t), np.exp(-h), atol=1e-8)

    def test_exponential_midpoints(self):
        # knots on exp(-t): midpoint error should be well under 1e-3
        s = exp_spline(rate=1.0)
        mid = np.arange(0.15, 5.9, 0.1)
        err = np.max(np.abs(spline_eval(s, mid) - np.exp(-mid)))
        assert err < 1e-3

    def test_one_before_first_knot(self):
        s = exp_spline()
        assert spline_eval(s, -1.0) == 1.0
        assert spline_eval(s, 0.0) == 1.0

    def test_exponential_tail(self):
        s = exp_spline(rate=1.0, t_max=6.0)
        hi = s.knots[-1]
        v_hi = spline_eval(s, hi)
        np.testing.assert_allclose(spline_eval(s, hi + 2.0),
                                   v_hi * np.exp(-s.tail_hazard * 2.0), rtol=1e-12)
        # for exp(-t) knots the tail hazard is the true rate
        np.testing.assert_allclose(s.tail_hazard, 1.0, rtol=1e-6)

    def test_monotone_between_knots(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.05, 10.0, size=80))
        h = np.cumsum(rng.exponential(0.1, size=80))
        s = fit_spline(StepSurvivalCurve(knot_times=t, cum_hazard=h))
        grid = np.linspace(0, 12, 4000)
        vals = spline_eval(s, grid)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= EPS_SURVIVAL)
        assert np.all(vals <= 1.0)

    def test_knot_thinning(self):
        t = np.linspace(0.01, 10.0, 5000)
        s = fit_spline(StepSurvivalCurve(knot_times=t, cum_hazard=0.3 * t))
        assert len(s.knots) <= 100
        assert s.knots[0] == 0.0 and s.knots[-1] == t[-1]
        grid = np.linspace(0.5, 9.5, 200)
        np.testing.assert_allclose(spline_eval(s, grid), np.exp(-0.3 * grid), atol=1e-3)

    def test_degenerate_fallback(self):
        s = fit_spline(StepSurvivalCurve(knot_times=np.array([2.0]),
                                         cum_hazard=np.array([0.5])))
        assert s.knots.size == 2  # a t=0 knot is prepended
        empty = fit_spline(StepSurvivalCurve(knot_times=np.array([]),
                                             cum_hazard=np.array([])))
        assert empty.knots.size == 1 and empty.tail_hazard == 0.0
        assert spline_eval(empty, 3.0) == 1.0

    @pytest.mark.parametrize("knots, values", [([0.0], [1.0]), ([2.0], [0.4]),
                                               ([0.0, 1.0, 3.0], [1.0, 0.6, 0.2])])
    def test_nan_time_gives_nan(self, knots, values):
        # a single-knot curve gave its knot value for a NaN time
        s = spline_from_dict({"knots": knots, "values": values})
        val, slope = spline_value_and_slope(s, np.array([np.nan, knots[0]]))
        assert np.isnan(val[0]) and np.isnan(slope[0])
        assert val[1] == values[0] and np.isnan(spline_eval(s, np.nan))


class TestDerivative:
    def test_matches_finite_differences(self):
        s = exp_spline(rate=0.7, t_max=8.0)
        grid = np.arange(0.3, 7.5, 0.17)
        h = 1e-6
        fd = (spline_eval(s, grid + h) - spline_eval(s, grid - h)) / (2 * h)
        an = spline_value_and_slope(s, grid)[1]
        np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-7)

    def test_exponential_derivative_accuracy(self):
        s = exp_spline(rate=1.0)
        d = spline_value_and_slope(s, 1.0)[1]
        assert abs(d - (-np.exp(-1.0))) / np.exp(-1.0) < 1e-2

    def test_strictly_negative(self):
        s = exp_spline()
        grid = np.linspace(0.05, 10.0, 500)
        assert np.all(spline_value_and_slope(s, grid)[1] <= -EPS_DENSITY)

    def test_tail_derivative(self):
        s = exp_spline(rate=2.0, t_max=4.0)
        t = s.knots[-1] + 1.0
        np.testing.assert_allclose(spline_value_and_slope(s, t)[1],
                                   -s.tail_hazard * spline_eval(s, t), rtol=1e-10)


class TestDensity:
    def test_exponential_closed_form(self):
        # baseline exp(-t), log hazard f: density is ef * exp(-ef * t)
        s = exp_spline(rate=1.0)
        for f in (0.0, 0.5, -0.7):
            ef = np.exp(f)
            t = np.array([0.4, 1.0, 2.3])
            expect = ef * np.exp(-ef * t)
            got = density(s, f, t)
            np.testing.assert_allclose(got, expect, rtol=2e-2)

    def test_integrates_to_event_probability(self):
        # integral of the density over [0, T] should approach 1 - S(T)^ef
        s = exp_spline(rate=1.0, t_max=12.0)
        f = 0.3
        grid = np.linspace(1e-4, 10.0, 20000)
        dens = density(s, f, grid)
        integral = np.trapezoid(dens, grid)
        expect = 1.0 - spline_eval(s, 10.0) ** np.exp(f)
        assert abs(integral - expect) < 2e-2

    def test_floor(self):
        s = exp_spline()
        assert density(s, 0.0, 1e9) >= EPS_DENSITY

    def test_rejects_non_finite_hazard(self):
        table = spline_value_and_slope(exp_spline(), np.array([1.0, 2.0]))
        log_hazards = np.array([[np.nan], [0.0]])  # the NaN is in the event row
        with pytest.raises(ModelError, match="non-finite log hazard"):
            cluster_log_densities(log_hazards, np.array([1, 0]),
                                  tuple(c[:, None] for c in table))


class TestSerialization:
    def test_round_trip(self):
        s = exp_spline(rate=1.3)
        s2 = spline_from_dict(spline_to_dict(s))
        grid = np.linspace(0, 10, 300)
        np.testing.assert_allclose(spline_eval(s2, grid), spline_eval(s, grid),
                                   atol=1e-14)
        assert s2.tail_hazard == s.tail_hazard
        assert s2.knots.size == s.knots.size

    @pytest.mark.parametrize("knots, values", [
        ([0.0, 1e-320], [1.0, 0.5]),      # the secant overflows
        ([0.0, 1e-308], [1e-9, 1e-10]),   # a finite secant, an infinite tail hazard
    ])
    def test_non_finite_derived_curve_rejected_without_warning(self, knots, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                spline_from_dict({"knots": knots, "values": values})
