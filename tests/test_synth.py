from dataclasses import replace

import numpy as np
import pytest

from coxmix import neural
from coxmix import synth as synth_mod
from coxmix.estimators import kaplan_meier
from coxmix.model import DcmConfig, DcmModel
from coxmix.synth import (
    ClusterSpec, SynthConfig, SynthError, config_from_sidecar, generate_cohort,
    true_survival,
)
from conftest import CROSSING_CONFIG, SEPARATED_CONFIG, exp_spline

# the generators of CI's cohort, synth --n 2000 --censoring 0.3 --seed 3 with
# --preset crossing or separated; the features depend on n, d and the seed alone
CI_CONFIGS = {"crossing": replace(CROSSING_CONFIG, n=2000, seed=3),
              "separated": replace(SEPARATED_CONFIG, n=2000, seed=3, censoring_fraction=0.3)}


def exponential_cluster(rate, beta):
    return ClusterSpec(shape=1.0, scale=1.0 / rate, beta=tuple(beta))


def generator_model(cfg):
    """A DcmModel with the generator's parameters: a linear encoder, the
    clusters' betas as hazard head, the gating rows as gate head, and the
    clusters' Weibull survivals as baselines."""
    k = len(cfg.clusters)
    heads = neural.HeadParams(
        f_w=np.array([c.beta for c in cfg.clusters], dtype=float).T, f_b=np.zeros(k),
        g_w=np.array(cfg.gating, dtype=float).T, g_b=np.zeros(k))
    params = neural.MlpParams(weights=[], biases=[], layer_dims=(cfg.n_features,))
    return DcmModel(params, heads, [c.baseline_survival for c in cfg.clusters],
                    DcmConfig(n_clusters=k, hidden_dims=()))


def single_exponential(n=5000, rate=0.8, seed=0, censoring=0.0):
    return SynthConfig(
        n=n, clusters=(exponential_cluster(rate, (0.0, 0.0)),),
        gating=((0.0, 0.0),), censoring_fraction=censoring, seed=seed)


class TestGenerate:
    def test_shapes_and_sidecar(self):
        ds, sidecar = generate_cohort(single_exponential(n=100))
        assert ds.features.shape == (100, 2)
        assert len(sidecar["latent"]) == 100
        assert len(sidecar["event_times"]) == 100
        assert sidecar["clusters"][0]["shape"] == 1.0

    def test_deterministic(self):
        a, sa = generate_cohort(single_exponential(seed=4, n=200))
        b, sb = generate_cohort(single_exponential(seed=4, n=200))
        np.testing.assert_array_equal(a.times, b.times)
        assert sa["latent"] == sb["latent"]
        c, _ = generate_cohort(single_exponential(seed=5, n=200))
        assert np.any(a.times != c.times)

    def test_km_matches_analytic_survival(self):
        # rate-0.8 exponential, no covariate effect: S(t) = exp(-0.8 t)
        ds, _ = generate_cohort(single_exponential(n=5000, rate=0.8, seed=1))
        km = kaplan_meier(ds.times, ds.events)
        grid = np.linspace(0.1, 3.0, 30)
        err = np.max(np.abs(km(grid) - np.exp(-0.8 * grid)))
        assert err < 0.03

    def test_proportional_hazards_effect(self):
        # beta = (1, 0): conditioning on x0 scales the hazard by exp(x0)
        cfg = SynthConfig(
            n=60000, clusters=(ClusterSpec(shape=1.0, scale=1.0, beta=(1.0, 0.0)),),
            gating=((0.0, 0.0),), seed=2)
        ds, _ = generate_cohort(cfg)
        hi = np.abs(ds.features[:, 0] - 1.0) < 0.1
        np.testing.assert_allclose(ds.times[hi].mean(), np.exp(-1.0), rtol=0.1)

    def test_censoring_calibration(self):
        for target in (0.1, 0.3, 0.6):
            ds, _ = generate_cohort(single_exponential(n=4000, seed=3,
                                                       censoring=target))
            frac = 1.0 - ds.events.mean()
            assert abs(frac - target) <= 0.02 + 0.02  # calibration tol + draw noise

    def test_censoring_never_shifts_event_times(self):
        cfg = single_exponential(n=500, seed=6, censoring=0.4)
        ds, sidecar = generate_cohort(cfg)
        ev = np.asarray(sidecar["event_times"])
        assert np.all(ds.times <= ev + 1e-12)
        np.testing.assert_allclose(ds.times[ds.events == 1], ev[ds.events == 1])

    @pytest.mark.parametrize("n", [3, 7, 15, 18])
    def test_censoring_reaches_the_nearest_attainable_fraction(self, n):
        # below n = 25 at most one censored fraction k/n lies within 0.02
        # of a target, and for some targets none does (at n = 15 every k/n
        # is 0.033 or more from 0.1, 0.3 and 0.5); the calibration then
        # aims at the nearest k/n, where it failed with "did not converge"
        for target in (0.1, 0.3, 0.5):
            cfg = replace(CROSSING_CONFIG, n=n, seed=3, censoring_fraction=target)
            ds, _ = generate_cohort(cfg)
            k = int(n - ds.events.sum())
            assert abs(k / n - target) == min(abs(j / n - target) for j in range(n + 1))

    def test_groups_by_first_covariate(self):
        cfg = SynthConfig(
            n=200, clusters=(exponential_cluster(1.0, (0.0,)),),
            gating=((0.0,),), seed=0, with_groups=True)
        ds, _ = generate_cohort(cfg)
        np.testing.assert_array_equal(
            ds.groups == "pos", ds.features[:, 0] >= 0)

    def test_config_validation(self):
        with pytest.raises(SynthError):
            SynthConfig(n=10, clusters=(exponential_cluster(1.0, (0.0,)),),
                        gating=((0.0,),), censoring_fraction=0.99)
        with pytest.raises(SynthError):
            SynthConfig(n=10, clusters=(exponential_cluster(1.0, (0.0,)),),
                        gating=((0.0,), (0.0,)))
        with pytest.raises(SynthError, match="at least one record"):  # was a header-only cohort
            SynthConfig(n=0, clusters=(exponential_cluster(1.0, (0.0,)),),
                        gating=((0.0,),), censoring_fraction=0.3)
        # scale 0 gave all-zero times; a negative shape generated a cohort
        for shape, scale in [(1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, -2.0),
                             (np.nan, 1.0), (1.0, np.inf)]:
            with pytest.raises(SynthError, match="finite and positive"):
                ClusterSpec(shape=shape, scale=scale, beta=(0.0,))
        # mismatched widths surfaced as a numpy matmul error
        one = exponential_cluster(1.0, (0.0,))
        two = exponential_cluster(1.0, (0.0, 0.0))
        for clusters, gating in [((one, two), ((0.0,), (0.0,))),
                                 ((one,), ((0.0, 0.0),)),
                                 ((one, one), ((0.0,), (0.0, 0.0)))]:
            with pytest.raises(SynthError, match="1 entries"):
                SynthConfig(n=10, clusters=clusters, gating=gating)


class TestLatentStructure:
    def test_gating_controls_membership(self):
        cfg = SynthConfig(
            n=20000,
            clusters=(exponential_cluster(1.0, (0.0,)), exponential_cluster(2.0, (0.0,))),
            gating=((4.0,), (-4.0,)), seed=7)
        ds, sidecar = generate_cohort(cfg)
        z = np.asarray(sidecar["latent"])
        x0 = ds.features[:, 0]
        # strong gate on x0: sign should predict the latent cluster well;
        # the expected accuracy is E[sigmoid(8 |x0|)] which is about 0.93
        acc = np.mean((x0 > 0) == (z == 0))
        assert acc > 0.9

    def test_cluster_survival_curves_cross(self):
        # the two components of the crossing fixture swap order in time
        s0 = CROSSING_CONFIG.clusters[0].baseline_survival
        s1 = CROSSING_CONFIG.clusters[1].baseline_survival
        assert s0(1.0) < s1(1.0)
        assert s0(8.0) > s1(8.0)


class TestTrueSurvival:
    def test_single_cluster_closed_form(self):
        cfg = single_exponential(rate=1.0)
        x = np.array([0.3, -0.2])
        t = np.array([0.5, 1.0])
        np.testing.assert_allclose(true_survival(cfg, x, t), np.exp(-t), rtol=1e-12)

    def test_mixture_weights(self):
        cfg = SynthConfig(
            n=10,
            clusters=(exponential_cluster(1.0, (0.0,)), exponential_cluster(2.0, (0.0,))),
            gating=((np.log(3.0),), (0.0,)), seed=0)
        # at x = 1 the gate is softmax([ln 3, 0]) = [0.75, 0.25]
        got = true_survival(cfg, np.array([1.0]), 1.0)
        np.testing.assert_allclose(got, 0.75 * np.exp(-1) + 0.25 * np.exp(-2),
                                   rtol=1e-12)

    def test_round_trip_through_sidecar(self):
        ds, sidecar = generate_cohort(CROSSING_CONFIG)
        cfg2 = config_from_sidecar(sidecar)
        x = ds.features[:5]
        t = np.array([1.0, 3.0])
        np.testing.assert_allclose(true_survival(cfg2, x, t),
                                   true_survival(CROSSING_CONFIG, x, t))

    @pytest.mark.parametrize("preset", sorted(CI_CONFIGS))
    def test_at_most_one(self, preset):
        # the gate weights may sum to 1 + 1 ulp: 1.0000000000000002 at t = 0
        # for 72 crossing and 80 separated rows, which ece refused
        cfg = CI_CONFIGS[preset]
        x = generate_cohort(cfg)[0].features
        assert true_survival(cfg, x, 0.0).max() <= 1.0
        assert true_survival(cfg, x, np.array([0.0, 1e-9, 1.0])).max() <= 1.0

    @pytest.mark.parametrize("t", [1.0, np.array([1.0]), np.array([0.5, 1.0, 2.0])],
                             ids=["scalar", "one", "grid"])
    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 3)), np.zeros((4, 3))],
                             ids=["vector", "one_row", "rows"])
    def test_shape_follows_predict_survival(self, x, t):
        # a single value was a 0-d array, and one row on a grid lost its row axis
        model = generator_model(CROSSING_CONFIG)
        model.baselines = [exp_spline(), exp_spline()]  # the model's own baseline type
        got = true_survival(CROSSING_CONFIG, x, t)
        want = model.predict_survival(x, t)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == x.shape[:-1] + np.shape(t)

    def test_generator_model_predicts_the_truth(self):
        cfg = CI_CONFIGS["crossing"]
        x = generate_cohort(cfg)[0].features
        t = np.array([0.0, 0.5, 1.0, 3.0, 6.0, 12.0])
        got = generator_model(cfg).predict_survival(x, t)
        want = true_survival(cfg, x, t)
        assert got.shape == want.shape == (2000, 6)
        np.testing.assert_allclose(got, want, rtol=1e-12)  # x @ f_w is one matrix product


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: SynthConfig(n=1, clusters=(), gating=()),
                 "need at least one cluster", id="no_cluster"),
    # a refused field starts its message; the command line writes its flag there
    pytest.param(lambda: single_exponential(n=0),
                 "^n needs at least one record, got 0$", id="n"),
    pytest.param(lambda: single_exponential(censoring=0.99),
                 r"^censoring_fraction must be in \[0, 0\.95\], got 0\.99$", id="censoring"),
])
def test_named_errors(call, message):
    with pytest.raises(SynthError, match=message):
        call()


def test_calibration_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(synth_mod, "CENSORING_MAX_STEPS", 0)
    with pytest.raises(SynthError, match="did not converge to 0.300 within 0 bisection steps"):
        generate_cohort(single_exponential(n=200, censoring=0.3))
