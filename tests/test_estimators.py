import numpy as np
import pytest

from coxmix.estimators import (
    EstimatorError, StepSurvivalCurve, breslow, censoring_km, kaplan_meier, kaplan_meier_at,
)
from conftest import brute_force_breslow, brute_force_km, random_survival_instance


class TestStepCurve:
    def test_right_continuity_and_left_limit(self):
        c = StepSurvivalCurve(knot_times=np.array([1.0, 2.0]),
                              cum_hazard=np.array([0.5, 1.5]))
        assert c(0.5) == 1.0
        np.testing.assert_allclose(c(1.0), np.exp(-0.5))
        np.testing.assert_allclose(c.eval_left(1.0), 1.0)
        np.testing.assert_allclose(c.eval_left(2.0), np.exp(-0.5))
        np.testing.assert_allclose(c(3.0), np.exp(-1.5))

    def test_vectorized(self):
        c = StepSurvivalCurve(knot_times=np.array([1.0]), cum_hazard=np.array([1.0]))
        out = c(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, np.exp(-1), np.exp(-1)])

    def test_rejects_unsorted_knots(self):
        with pytest.raises(EstimatorError):
            StepSurvivalCurve(knot_times=np.array([2.0, 1.0]),
                              cum_hazard=np.array([0.1, 0.2]))


class TestKaplanMeier:
    def test_hand_case(self):
        # 3 subjects, events at 1 and 2, censored at 3:
        # S(1) = 2/3, S(2) = 2/3 * 1/2 = 1/3, flat afterwards
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 0])
        np.testing.assert_allclose(km(1.0), 2 / 3)
        np.testing.assert_allclose(km(2.5), 1 / 3)
        np.testing.assert_allclose(km(10.0), 1 / 3)

    def test_all_events_reaches_zero(self):
        km = kaplan_meier([1.0, 2.0], [1, 1])
        assert km(2.0) == 0.0

    def test_tied_event_and_censor(self):
        # censored subject at the tied time stays in the risk set
        km = kaplan_meier([1.0, 1.0, 2.0], [1, 0, 1])
        np.testing.assert_allclose(km(1.0), 2 / 3)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            times, events, _ = random_survival_instance(rng, 60)
            km = kaplan_meier(times, events)
            ot, os_ = brute_force_km(times, events)
            np.testing.assert_allclose(km(ot), os_, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EstimatorError):
            kaplan_meier([], [])

    @pytest.mark.parametrize("weights", [[1, -1, 2, 0, 1], [1.0, 1.0, 2.0, 0.0, 1.0], [1, 2]])
    @pytest.mark.parametrize("fit", [
        kaplan_meier, censoring_km,
        lambda t, e, weights: kaplan_meier_at(t, e, np.zeros(5, dtype=int), 3.0, weights=weights)])
    def test_weights_must_be_counts_one_per_record(self, fit, weights):
        # negative counts gave an infinite then NaN hazard, float weights a
        # curve and a short list a bare broadcast error
        with pytest.raises(EstimatorError, match="non-negative integers, one per record"):
            fit([1.0, 2.0, 2.0, 3.0, 4.0], [1, 0, 1, 1, 0], weights=weights)


class TestCensoringKm:
    def test_flipped_indicator(self):
        times = [1.0, 2.0, 3.0, 4.0]
        events = [1, 0, 1, 0]
        g = censoring_km(times, events)
        ref = kaplan_meier(times, [0, 1, 0, 1])
        grid = np.linspace(0, 5, 50)
        np.testing.assert_allclose(g(grid), ref(grid))

    def test_no_censoring_is_one(self):
        g = censoring_km([1.0, 2.0], [1, 1])
        assert g(5.0) == 1.0


class TestBreslow:
    def test_hand_case_zero_hazards(self):
        # f = 0: jumps are 1/3, 1/2, 1 at times 1, 2, 3
        c = breslow([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(c.cum_hazard, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            times, events, f = random_survival_instance(rng, 50)
            if events.sum() == 0:
                continue
            c = breslow(times, events, f)
            ot, oh = brute_force_breslow(times, events, f)
            np.testing.assert_allclose(c.knot_times, ot)
            np.testing.assert_allclose(c.cum_hazard, oh, rtol=1e-10)

    def test_reduces_to_nelson_aalen_shape(self):
        # equal hazards shift: scaling all f by a constant scales H by exp(-c)
        times = [1.0, 2.0, 3.0, 4.0]
        events = [1, 1, 0, 1]
        base = breslow(times, events, [0.0] * 4)
        shifted = breslow(times, events, [1.0] * 4)
        np.testing.assert_allclose(shifted.cum_hazard, base.cum_hazard * np.exp(-1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(EstimatorError):
            breslow([1.0], [1], [np.inf])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: StepSurvivalCurve(knot_times=np.array([1.0, 2.0]),
                                           cum_hazard=np.array([0.5])),
                 "knot/hazard length mismatch", id="knot_hazard_lengths"),
    pytest.param(lambda: breslow([], [], []), "empty input", id="breslow_empty"),
])
def test_named_errors(call, message):
    with pytest.raises(EstimatorError, match=message):
        call()
