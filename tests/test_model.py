import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxmix import model as model_mod
from coxmix import neural, objective
from coxmix import spline as spline_mod
from coxmix.dataset import DatasetError, SurvivalDataset, standardize
from coxmix.model import (
    DcmConfig, DcmModel, ModelError, e_step, expected_q_loss, fit,
    sample_assignments, update_baselines,
)
from coxmix.synth import generate_cohort
from conftest import CROSSING_CONFIG, SEPARATED_CONFIG, exp_spline


def hand_model(gate_logit_bias=(0.0, 0.0)):
    """Identity encoder on 1 feature, zero hazard heads, fixed gating bias,
    one cluster per bias with baselines exp(-t), exp(-2t), ..."""
    k = len(gate_logit_bias)
    params = neural.MlpParams(weights=[], biases=[], layer_dims=(1,))
    heads = neural.HeadParams(
        f_w=np.zeros((1, k)), f_b=np.zeros(k),
        g_w=np.zeros((1, k)), g_b=np.asarray(gate_logit_bias, dtype=float))
    cfg = DcmConfig(n_clusters=k, hidden_dims=())
    baselines = [exp_spline(rate=c + 1.0, t_max=8.0) for c in range(k)]
    return DcmModel(params, heads, baselines, cfg)


class TestEStep:
    def test_censored_hand_posterior(self):
        # censored at t=1, uniform gate, f=0: weights are the conditional
        # survivals [e^-1, e^-2], so gamma = [0.7311, 0.2689]
        m = hand_model()
        gamma = e_step(m, np.zeros((1, 1)), np.array([1.0]), np.array([0]))
        np.testing.assert_allclose(gamma, [[np.e / (np.e + 1), 1 / (np.e + 1)]],
                                   atol=2e-3)

    def test_event_hand_posterior(self):
        # event at t=1: densities [e^-1, 2 e^-2]
        m = hand_model()
        gamma = e_step(m, np.zeros((1, 1)), np.array([1.0]), np.array([1]))
        w = np.array([np.exp(-1.0), 2 * np.exp(-2.0)])
        np.testing.assert_allclose(gamma, (w / w.sum())[None, :], atol=2e-3)

    def test_gating_prior_shifts_posterior(self):
        # logits [ln 3, 0] multiply the weights by [0.75, 0.25]
        m = hand_model(gate_logit_bias=(np.log(3.0), 0.0))
        gamma = e_step(m, np.zeros((1, 1)), np.array([1.0]), np.array([0]))
        w = np.array([0.75 * np.exp(-1.0), 0.25 * np.exp(-2.0)])
        np.testing.assert_allclose(gamma, (w / w.sum())[None, :], atol=2e-3)

    def test_rows_sum_to_one(self):
        m = hand_model()
        rng = np.random.default_rng(0)
        gamma = e_step(m, rng.normal(size=(40, 1)),
                       rng.exponential(1, 40), rng.integers(0, 2, 40))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(gamma > 0)

    def test_row_with_nan_time_gets_uniform_posterior(self):
        # distinct baselines exp(-t), exp(-2t), exp(-3t): every finite row's
        # posterior is far from uniform, and a NaN time makes its row NaN
        m = hand_model(gate_logit_bias=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(3)
        x, times, events = rng.normal(size=(9, 1)), rng.exponential(1, 9), np.tile([0, 1, 1], 3)
        nan_times = times.copy()
        nan_times[4] = np.nan
        gamma = e_step(m, x, nan_times, events)
        assert np.array_equal(gamma[4], np.full(3, 1 / 3))
        rest = np.arange(9) != 4
        assert np.array_equal(gamma[rest], e_step(m, x[rest], times[rest], events[rest]))

    def test_non_finite_log_hazard_raises(self):
        # censored rows only: the density is not evaluated, the check still runs
        m = hand_model()
        m.heads.f_b[0] = np.nan
        with pytest.raises(ValueError, match="non-finite log hazard"):
            e_step(m, np.zeros((2, 1)), np.array([1.0, 2.0]), np.array([0, 0]))


class TestSampleAssignments:
    def test_marginal_frequencies(self):
        rng = np.random.default_rng(1)
        gamma = np.tile([0.2, 0.3, 0.5], (20000, 1))
        z = sample_assignments(gamma, rng)
        freq = np.bincount(z, minlength=3) / z.size
        np.testing.assert_allclose(freq, [0.2, 0.3, 0.5], atol=0.01)

    def test_draw_above_the_last_cumulative_posterior_picks_the_last_cluster(self):
        # the row sums to 1 - 2**-52, so a draw of 1 - 2**-53 exceeds every
        # cumulative posterior; it used to give cluster 2 of 0..1
        class TopDraw:
            def random(self, n):
                return np.full(n, 1 - 2 ** -53)
        gamma = np.array([[0.5, 0.5 - 2 ** -52]])
        assert sample_assignments(gamma, TopDraw()).tolist() == [1]

    def test_degenerate_posterior(self):
        rng = np.random.default_rng(2)
        gamma = np.tile([0.0, 1.0], (100, 1))
        assert np.all(sample_assignments(gamma, rng) == 1)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_count_matches_column_sums_on_boundaries(self, k):
        # draws exactly on a cumulative posterior and one ulp either side of
        # it, some on posteriors tied by a zero, against the comparisons
        # with each cumulative column summed one column at a time
        rng = np.random.default_rng(k)
        gamma = rng.dirichlet(np.full(k, 0.5), size=60)
        gamma[::4, rng.integers(k)] = 0.0
        cdf = np.cumsum(gamma[:, :-1], axis=1)
        on = cdf[np.arange(60), rng.integers(k - 1, size=60)] if k > 1 else rng.random(60)
        u = np.concatenate([on, np.nextafter(on, -1.0), np.nextafter(on, 2.0)])
        gamma, cdf = np.tile(gamma, (3, 1)), np.tile(cdf, (3, 1))

        class Draws:
            def random(self, n):
                assert n == u.size
                return u
        want = np.zeros(u.size, dtype=int)
        for j in range(k - 1):
            want += u > cdf[:, j]
        assert np.array_equal(sample_assignments(gamma, Draws()), want)


class TestPredictSurvival:
    def test_hand_mixture_value(self):
        m = hand_model(gate_logit_bias=(np.log(3.0), 0.0))
        got = m.predict_survival(np.zeros(1), 1.0)
        expect = 0.75 * np.exp(-1.0) + 0.25 * np.exp(-2.0)
        assert abs(got - expect) < 2e-3

    def test_shapes(self):
        m = hand_model()
        x = np.zeros((4, 1))
        t = np.array([0.5, 1.0, 2.0])
        assert type(m.predict_survival(np.zeros(1), 1.0)) is float
        assert m.predict_survival(np.zeros(1), t).shape == (3,)
        assert m.predict_survival(x, 1.0).shape == (4,)
        assert m.predict_survival(x, t).shape == (4, 3)
        assert m.predict_survival(np.zeros((1, 1)), t).shape == (1, 3)

    def test_predict_dataset_applies_stored_standardization(self):
        m = hand_model()
        m.heads.g_w[:] = [[1.0, -1.0]]  # the gate now depends on the feature
        m.standardization = (np.array([2.0]), np.array([4.0]))
        x = np.array([[-3.0], [2.0], [10.0]])
        ds = SurvivalDataset(features=x, times=np.ones(3), events=np.ones(3, dtype=int),
                             feature_names=("x",))
        got = m.predict_dataset(ds, [1.0, 2.0])
        np.testing.assert_array_equal(got, m.predict_survival((x - 2.0) / 4.0, [1.0, 2.0]))
        assert not np.allclose(got, m.predict_survival(x, [1.0, 2.0]))

    def test_monotone_in_time(self):
        m = hand_model()
        grid = np.linspace(0, 10, 200)
        s = m.predict_survival(np.array([[0.3]]), grid)[0]
        assert np.all(np.diff(s) <= 1e-12)
        assert s[0] <= 1.0 and s[-1] >= 0.0


class TestUpdateBaselines:
    def test_recovers_baselines_under_oracle_assignments(self):
        ds, sidecar = generate_cohort(SEPARATED_CONFIG)
        z = np.asarray(sidecar["latent"])
        m = hand_model()
        # oracle hard assignments, zero hazard heads except that the
        # generator used nonzero betas; the recovered baseline then tracks
        # the population-average survival of each cluster's members, so
        # compare against a Kaplan-Meier of the same rows
        from coxmix.estimators import kaplan_meier
        from coxmix.spline import spline_eval
        update_baselines(m, m._heads_out(ds.features[:, :1])[0], ds.times, ds.events, z)
        for k in range(2):
            rows = z == k
            km = kaplan_meier(ds.times[rows], ds.events[rows])
            grid = np.quantile(ds.times[rows], np.linspace(0.05, 0.9, 30))
            err = np.max(np.abs(spline_eval(m.baselines[k], grid) - km(grid)))
            assert err < 0.05

    def test_starved_cluster_keeps_previous(self):
        m = hand_model()
        before = m.baselines[1]
        z = np.zeros(50, dtype=int)  # nothing assigned to cluster 1
        rng = np.random.default_rng(3)
        starved = update_baselines(m, m._heads_out(rng.normal(size=(50, 1)))[0],
                                   rng.exponential(1, 50), np.ones(50, dtype=int), z)
        assert starved == 1
        assert m.baselines[1] is before

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="baselines are splined in survival space, where a large "
                              "Cox shift rounds S0 towards 1 or underflows it to 0")
    @pytest.mark.parametrize("c", [-40.0, 20.0, 35.0, 40.0])
    def test_cox_shift_leaves_predictions_unchanged(self, c):
        # adding c to every log hazard around a refresh scales each Breslow
        # cumulative hazard by exp(-c), so S0^exp(f) and the predictions
        # are unchanged in exact arithmetic
        from coxmix.dataset import event_quantiles
        from coxmix.estimators import kaplan_meier
        from coxmix.spline import fit_spline
        ds = standardize(generate_cohort(SEPARATED_CONFIG)[0].subset(np.arange(1500)))
        horizons = event_quantiles(ds, (0.25, 0.5, 0.75))
        zeta = np.arange(len(ds)) % 2  # fixed, balanced assignments
        pooled = fit_spline(kaplan_meier(ds.times, ds.events))

        def predict(shift):
            params, heads = neural.init_params((ds.features.shape[1], 8), 2, 0)
            m = DcmModel(params, replace(heads, f_b=heads.f_b + shift), [pooled] * 2,
                         DcmConfig(n_clusters=2, hidden_dims=(8,)))
            update_baselines(m, m._heads_out(ds.features)[0], ds.times, ds.events, zeta)
            return m.predict_survival(ds.features, horizons)

        np.testing.assert_allclose(predict(c), predict(0.0), rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small fitted model and the parsed contents of its saved file."""
    ds, _ = generate_cohort(SEPARATED_CONFIG)
    m = fit(standardize(ds.subset(np.arange(300))),
            DcmConfig(n_clusters=2, hidden_dims=(4,), max_epochs=2, seed=0))
    path = tmp_path_factory.mktemp("model") / "model.json"
    m.save(path)
    return m, json.loads(path.read_text())


def _dict_paths(node, prefix=()):
    """Key paths of every dict entry in a saved model."""
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _dict_paths(value, prefix + (i,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _dict_paths(value, prefix + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


_ARRAYS = [("mlp", "weights", 0), ("mlp", "biases", 0), ("heads", "f_w"),
           ("heads", "f_b"), ("heads", "g_w"), ("heads", "g_b"),
           ("standardization", "mean"), ("standardization", "std")]


def _drop_key(p, data):
    path = data.draw(st.sampled_from(list(_dict_paths(p))))
    del _at(p, path[:-1])[path[-1]]


def _unknown_config_key(p, data):
    p["config"][data.draw(st.text(min_size=1).filter(
        lambda k: k not in p["config"]
        and k not in model_mod._RETIRED_CONFIG_KEYS))] = 1


def _reshape_array(p, data):
    *owner, key = data.draw(st.sampled_from(_ARRAYS))
    arr = _at(p, owner)[key]
    how = data.draw(st.sampled_from(["drop", "append", "narrow"]))
    if how == "narrow" and isinstance(arr[0], list):
        _at(p, owner)[key] = [row[:-1] for row in arr]
    else:
        _at(p, owner)[key] = arr[:-1] if how != "append" else arr + arr[-1:]


def _change_dims(p, data):
    if data.draw(st.booleans()):
        p["config"]["n_clusters"] = data.draw(st.sampled_from([1, 3, 4]))
    else:
        dims = p["config"]["hidden_dims"]
        dims[data.draw(st.integers(0, len(dims) - 1))] += data.draw(st.sampled_from([-1, 1]))


def _spline_knots(p, data):
    s = p["splines"][data.draw(st.integers(0, len(p["splines"]) - 1))]
    j = data.draw(st.integers(1, len(s["knots"]) - 1))
    s["knots"][j] = s["knots"][j - 1] - data.draw(st.floats(0, 1))


def _spline_values(p, data):
    s = p["splines"][data.draw(st.integers(0, len(p["splines"]) - 1))]
    j = data.draw(st.integers(1, len(s["values"]) - 1))
    s["values"][j] = data.draw(st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, -1e-12, 1.5]),
        st.floats(1e-9, 1).map(lambda step: s["values"][j - 1] + step)))


class TestPersistence:
    def test_retired_config_keys_still_load(self, saved_model, tmp_path):
        # files written before the E-step prior switch, baseline smoothing,
        # knot cap and validation share became fixed carry those keys at
        # their defaults
        m, payload = saved_model
        payload = json.loads(json.dumps(payload))
        payload["config"].update(use_prior_in_estep=True, baseline_smoothing=0.0,
                                 max_spline_knots=100, val_fraction=0.1)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        old = DcmModel.load(path)
        x = np.random.default_rng(0).normal(size=(30, 3))
        grid = np.array([0.0, 0.5, 1.0, 2.0, 50.0])
        np.testing.assert_array_equal(old.predict_survival(x, grid),
                                      m.predict_survival(x, grid))
        assert old.config == m.config

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([_drop_key, _unknown_config_key, _reshape_array, _change_dims,
                            _spline_knots, _spline_values]), st.data())
    def test_corrupted_file_raises_model_error(self, saved_model, tmp_path_factory,
                                               corrupt, data):
        _, payload = saved_model
        payload = json.loads(json.dumps(payload))
        corrupt(payload, data)
        path = tmp_path_factory.mktemp("corrupt") / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError):
            DcmModel.load(path)

    @pytest.mark.parametrize("path, change, message", [
        (("mlp", "biases"), lambda v: [], "one weight matrix and one bias per hidden layer"),
        (("standardization", "std"), lambda v: [0.0, *v[1:]], "std must be positive"),
        (("feature_names",), lambda v: v[:-1], "feature_names disagree with the input width"),
        (("splines",), lambda v: v[:-1], "baseline count must equal n_clusters"),
        # these used to load and predict: True acts as 1, and a fraction as its value
        (("config", "n_clusters"), lambda v: True, "n_clusters must be an integer"),
        (("config", "patience"), lambda v: True, "patience must be an integer"),
        (("config", "batch_size"), lambda v: 12.5, "batch_size must be an integer"),
        (("config", "max_epochs"), lambda v: 2.5, "max_epochs must be an integer"),
        (("config", "seed"), lambda v: 1.5, "seed must be an integer"),
    ], ids=["layer_count", "std", "feature_names", "spline_count", "bool_n_clusters",
            "bool_patience", "fractional_batch_size", "fractional_max_epochs",
            "fractional_seed"])
    def test_inconsistent_file_names_its_fault(self, saved_model, tmp_path, path, change,
                                               message):
        _, payload = saved_model
        payload = json.loads(json.dumps(payload))
        *owner, key = path
        _at(payload, owner)[key] = change(_at(payload, owner)[key])
        p = tmp_path / "model.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match=message):
            DcmModel.load(p)

    def test_subnormal_knot_spacing_raises_model_error(self, saved_model, tmp_path):
        # the knots pass the increasing check, but the derived tail hazard
        # and coefficient table used to be inf and NaN
        _, payload = saved_model
        payload = json.loads(json.dumps(payload))
        payload["splines"][0] = {"knots": [0.0, 1e-320], "values": [1.0, 0.5]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="not finite"):
                DcmModel.load(path)

    def test_round_trip(self, tmp_path):
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        cfg = DcmConfig(n_clusters=2, hidden_dims=(16,), max_epochs=3, seed=0)
        m = fit(ds, cfg)
        path = tmp_path / "model.json"
        m.save(path)
        m2 = DcmModel.load(path)
        x = ds.features[:10]
        grid = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(m2.predict_survival(x, grid),
                                   m.predict_survival(x, grid), atol=1e-12)
        assert m2.config == m.config
        assert m.training_log and m2.training_log == []  # training_log.csv holds it

    def test_corrupt_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ModelError, match="corrupt"):
            DcmModel.load(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "old.json"
        p.write_text('{"format_version": 99}\n')
        with pytest.raises(ModelError, match="version"):
            DcmModel.load(p)

    @pytest.mark.parametrize("version", [0, 4, "3", None, True, 1.0, 2.0, 3.0])
    def test_only_formats_1_to_3_load(self, saved_model, tmp_path, version):
        _, payload = saved_model
        p = tmp_path / "model.json"
        p.write_text(json.dumps({**payload, "format_version": version}))
        with pytest.raises(ModelError, match="version .* expected 1 to 3"):
            DcmModel.load(p)

    def test_saved_file_stores_no_derived_field(self, saved_model):
        # each spline's tail follows from its knots and values, and the
        # encoder's widths from the weights and config.hidden_dims; the
        # per-epoch log is training_log.csv's, not the model's
        _, payload = saved_model
        assert payload["format_version"] == 3
        assert "training_log" not in payload
        assert set(payload["mlp"]) == {"weights", "biases"}
        for s in payload["splines"]:
            assert set(s) == {"knots", "values"}

    def test_saved_bytes_are_those_of_streaming_json_dump(self, saved_model, tmp_path):
        m, payload = saved_model
        path = tmp_path / "model.json"
        m.save(path)
        buf = io.StringIO()
        json.dump(payload, buf, sort_keys=True)
        assert path.read_bytes() == (buf.getvalue() + "\n").encode("utf-8")

    def test_format_1_file_loads_and_predicts_the_same(self, saved_model, tmp_path):
        # format 1 also stored each spline's tail hazard and fallback flag
        # and the encoder's layer widths
        m, payload = saved_model
        old = json.loads(json.dumps(payload))
        old["format_version"] = 1
        old["mlp"]["layer_dims"] = list(m.params.layer_dims)
        for s, bl in zip(old["splines"], m.baselines):
            s.update(tail_hazard=bl.tail_hazard, is_fallback=bl.knots.size < 2)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(old, sort_keys=True))
        m1 = DcmModel.load(path)
        x = np.random.default_rng(1).normal(size=(30, 3))
        grid = np.array([0.0, 0.5, 1.0, 2.0, 50.0])
        assert np.array_equal(m1.predict_survival(x, grid), m.predict_survival(x, grid))
        assert m1.params.layer_dims == m.params.layer_dims

    def test_format_2_file_loads_and_predicts_the_same(self, saved_model, tmp_path):
        # format 2 also stored the per-epoch training log; it is ignored
        m, payload = saved_model
        old = {**payload, "format_version": 2,
               "training_log": [{"epoch": 0, "train_q": 1.5, "val_q": 1.25,
                                 "batch_loss": 1.75, "starved_clusters": 0}]}
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(old, sort_keys=True))
        m2 = DcmModel.load(path)
        x = np.random.default_rng(2).normal(size=(30, 3))
        grid = np.array([0.0, 0.5, 1.0, 2.0, 50.0])
        assert np.array_equal(m2.predict_survival(x, grid), m.predict_survival(x, grid))
        assert m2.config == m.config and m2.training_log == []


class TestFit:
    def test_non_finite_objective_raises(self, monkeypatch):
        # a NaN validation objective stops training by name before it is logged
        monkeypatch.setattr(model_mod, "expected_q_loss", lambda *args: np.nan)
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        with pytest.raises(ModelError, match="^non-finite objective at epoch 0$"):
            fit(ds.subset(np.arange(200)), DcmConfig(n_clusters=2, hidden_dims=(8,)))

    def test_deterministic_given_seed(self):
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        sub = ds.subset(np.arange(400))
        cfg = DcmConfig(n_clusters=2, hidden_dims=(8,), max_epochs=4, seed=9)
        m1 = fit(sub, cfg)
        m2 = fit(sub, cfg)
        x = sub.features[:20]
        np.testing.assert_array_equal(m1.predict_survival(x, 1.0),
                                      m2.predict_survival(x, 1.0))
        assert m1.training_log == m2.training_log

    def test_training_log_fields(self):
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        cfg = DcmConfig(n_clusters=2, hidden_dims=(8,), max_epochs=3,
                        patience=10, seed=0)
        m = fit(ds.subset(np.arange(500)), cfg)
        assert len(m.training_log) == 3
        for entry in m.training_log:
            assert set(entry) == {"epoch", "train_q", "val_q", "batch_loss",
                                  "starved_clusters"}
            assert np.isfinite(entry["val_q"]) and np.isfinite(entry["batch_loss"])

    def test_one_encoder_pass_per_phase(self, monkeypatch):
        # per epoch: one pass per minibatch, shared by its E-step and M-step
        # (one pass over the train rows), one full pass for the baseline
        # refresh and the train objective, one pass over the validation rows
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        rows, forward = [], neural.forward
        monkeypatch.setattr(neural, "forward",
                            lambda params, x: rows.append(len(x)) or forward(params, x))
        m = fit(ds.subset(np.arange(200)), DcmConfig(
            n_clusters=2, hidden_dims=(8,), max_epochs=3, patience=10, seed=0))
        n_val = 20
        n_train = 200 - n_val
        assert sum(rows) == len(m.training_log) * (n_train + n_train + n_val)

    @pytest.mark.parametrize("batch_size", [16, 64])
    def test_spline_eval_per_table_build_not_per_minibatch(self, monkeypatch, batch_size):
        # one interval lookup per curve: one for the start-up table (every
        # cluster starts at the pooled spline), then per epoch K for the
        # training table and K for the validation objective's; none in the
        # minibatch E-steps, so the count does not depend on the batch size
        calls, lookup = [], spline_mod.spline_value_and_slope
        counting = lambda s, t: calls.append(1) or lookup(s, t)
        monkeypatch.setattr(spline_mod, "spline_value_and_slope", counting)
        monkeypatch.setattr(model_mod, "spline_value_and_slope", counting)
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        m = fit(ds.subset(np.arange(200)), DcmConfig(
            n_clusters=3, hidden_dims=(8,), batch_size=batch_size, max_epochs=3,
            patience=10, seed=0))
        assert len(calls) == 1 + 2 * 3 * len(m.training_log)

    @pytest.mark.parametrize("k", [3, 6])
    def test_one_likelihood_call_per_trained_minibatch(self, monkeypatch, k):
        # all K clusters' partial likelihoods in one stratified call; the
        # 4-row remainder of each epoch's 180 training rows is below 2K and
        # is not trained
        calls, pll = [], objective.partial_log_likelihood
        monkeypatch.setattr(objective, "partial_log_likelihood",
                            lambda *a, **kw: calls.append(1) or pll(*a, **kw))
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        m = fit(ds.subset(np.arange(200)), DcmConfig(
            n_clusters=k, hidden_dims=(8,), batch_size=16, max_epochs=2,
            patience=10, seed=0))
        assert len(calls) == 11 * len(m.training_log)

    def test_one_gate_per_encoder_pass(self, monkeypatch):
        # a minibatch's E-step and M-step share its gate, and the refresh's
        # two posteriors share theirs: per epoch one softmax for each of the
        # 11 trained minibatches of 16 rows, one for the refresh and one for
        # validation, so one per encoder pass
        gates, passes = [], []
        log_softmax, forward = neural.log_softmax, neural.forward
        monkeypatch.setattr(neural, "log_softmax", lambda g: gates.append(1) or log_softmax(g))
        monkeypatch.setattr(neural, "forward",
                            lambda params, x: passes.append(1) or forward(params, x))
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        m = fit(ds.subset(np.arange(200)), DcmConfig(
            n_clusters=3, hidden_dims=(8,), batch_size=16, max_epochs=2,
            patience=10, seed=0))
        assert len(gates) == len(passes) == (11 + 2) * len(m.training_log)

    def test_predictions_do_not_depend_on_feature_units(self):
        # standardize's constant-column test is relative to the column's
        # scale: at x 1e-14 the spread used to fall below an absolute 1e-12,
        # the column went unscaled and predictions moved by 0.15. A spread
        # that overflows (x 1e160) or underflows to 0 (x 1e-300) is refused.
        ds, _ = generate_cohort(replace(CROSSING_CONFIG, n=300, seed=8))
        cfg = DcmConfig(n_clusters=3, hidden_dims=(20,), lr=1e-2, max_epochs=3,
                        patience=3, seed=3)
        horizons = np.quantile(ds.times, [0.25, 0.5, 0.75])

        def predictions(scale):
            scaled = replace(ds, features=ds.features * scale)
            return fit(standardize(scaled), cfg).predict_dataset(scaled, horizons)

        reference = predictions(1.0)
        for scale in (2.0, 1e-6, 1e-14):
            np.testing.assert_allclose(predictions(scale), reference, rtol=0, atol=1e-8)
        for scale in (1e160, 1e-300):
            with pytest.raises(DatasetError, match="^feature 'x0': its standard deviation"):
                predictions(scale)

    def test_best_epoch_restore_equals_shorter_fit(self):
        # the restored best epoch b < last epoch must be exactly the model
        # that training stopped after b gives: the snapshot shares no
        # memory with the parameters or the baseline list trained on
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        data = ds.subset(np.arange(200))
        cfg = DcmConfig(n_clusters=2, hidden_dims=(8,), lr=0.01, max_epochs=6,
                        patience=10, seed=4)
        long = fit(data, cfg)
        val = [e["val_q"] for e in long.training_log]
        best = int(np.argmin(val))
        assert best < len(val) - 1
        short = fit(data, replace(cfg, max_epochs=best + 1))
        for a, b in zip(neural._flatten(long.params, long.heads),
                        neural._flatten(short.params, short.heads), strict=True):
            assert np.array_equal(a, b)
        assert [spline_mod.spline_to_dict(b) for b in long.baselines] == [
            spline_mod.spline_to_dict(b) for b in short.baselines]

    def test_non_finite_log_hazard_in_minibatch_raises(self, monkeypatch):
        # the first heads are the first minibatch's, whose E-step reads the
        # baseline table; the log-hazard check still runs there
        heads_forward = neural.heads_forward

        def poisoned(heads, rep):
            f, g = heads_forward(heads, rep)
            f[-1, 0] = np.inf
            return f, g

        monkeypatch.setattr(neural, "heads_forward", poisoned)
        monkeypatch.setattr(model_mod, "update_baselines", None)  # never reached
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        with pytest.raises(ModelError, match="non-finite log hazard"):
            fit(ds.subset(np.arange(200)), DcmConfig(n_clusters=2, hidden_dims=(8,), seed=0))

    def test_expected_q_loss_finite(self):
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        cfg = DcmConfig(n_clusters=2, hidden_dims=(8,), max_epochs=2, seed=1)
        m = fit(ds.subset(np.arange(300)), cfg)
        q = expected_q_loss(m, ds.features[300:400], ds.times[300:400],
                            ds.events[300:400])
        assert np.isfinite(q)

    def test_no_events_in_the_training_split_raises(self):
        # fit (seed 0) holds out the first 2 rows of a permutation of 20 to
        # validate on; those 2 are the only events
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        events = np.zeros(20, dtype=int)
        events[np.random.default_rng(0).permutation(20)[:2]] = 1
        bad = SurvivalDataset(features=ds.features[:20], times=ds.times[:20],
                              events=events, feature_names=ds.feature_names)
        with pytest.raises(ModelError, match="no events left in the training split"):
            fit(bad, DcmConfig(n_clusters=2, seed=0))

    @pytest.mark.parametrize("n, n_val", [(15, 0), (40, 4)])
    def test_monitors_the_training_rows_without_validation_events(self, n, n_val):
        # below 20 records fit holds no row out; at 40 it holds out the first
        # 4 of its (seed 0) permutation, all censored here. Either way it
        # monitors the training rows: the refresh's rows against the
        # refresh's table, so each epoch's val_q is its train_q
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        events = ds.events[:n].copy()
        events[np.random.default_rng(0).permutation(n)[:n_val]] = 0
        sub = SurvivalDataset(features=ds.features[:n], times=ds.times[:n],
                              events=events, feature_names=ds.feature_names)
        m = fit(sub, DcmConfig(n_clusters=2, hidden_dims=(8,), max_epochs=3, patience=10,
                               seed=0))
        assert len(m.training_log) == 3
        assert [e["val_q"] for e in m.training_log] == [e["train_q"] for e in m.training_log]

    def test_no_events_raises(self):
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        from coxmix.dataset import SurvivalDataset
        bad = SurvivalDataset(features=ds.features[:50], times=ds.times[:50],
                              events=np.zeros(50, dtype=int),
                              feature_names=ds.feature_names)
        with pytest.raises(ModelError):
            fit(bad, DcmConfig(n_clusters=2))

    def test_config_validation(self):
        with pytest.raises(ModelError):
            DcmConfig(n_clusters=0)
        with pytest.raises(ModelError):
            DcmConfig(n_clusters=10, batch_size=12)

    @pytest.mark.parametrize("bad", [
        {"max_epochs": 0}, {"patience": 0}, {"lr": -0.01}, {"lr": 0.0}, {"lr": np.nan},
        {"lr": np.inf}, {"n_clusters": True}, {"patience": True}, {"batch_size": 12.5},
        {"max_epochs": 2.5}, {"seed": 1.5}, {"seed": np.bool_(True)}, {"seed": -1},
        {"hidden_dims": (2.5,)}, {"hidden_dims": (0,)}, {"hidden_dims": (4, True)},
        {"lr": True}, {"lr": "0.01"}])
    def test_config_rejects_untrainable_values(self, bad):
        # max_epochs 0 used to fit nothing, patience 0 to act as 1, and a
        # non-positive or non-finite lr to train anyway; a bool acted as 0 or
        # 1, a fractional width or epoch count died in fit with a bare
        # TypeError, a width of 0 failed only in neural.init_params, and a
        # negative seed only in numpy's generator
        (field,) = bad
        with pytest.raises(ModelError, match=f"^{field} "):
            DcmConfig(**bad)

    def test_config_accepts_numpy_integers(self):
        cfg = DcmConfig(n_clusters=np.int64(2), hidden_dims=(np.int32(4),), lr=np.float32(0.01),
                        batch_size=np.int64(8), max_epochs=np.int8(2), patience=np.int16(1),
                        seed=np.uint8(3))
        ds, _ = generate_cohort(SEPARATED_CONFIG)
        assert len(fit(ds.subset(np.arange(100)), cfg).training_log) == 2
