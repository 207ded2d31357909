"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (bypassing pytest capture) with the measured values.

All thresholds here are release criteria; do not loosen them to make a
failing build green.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from coxmix import neural, objective
from coxmix.cli import main as cli_main
from coxmix.dataset import event_quantiles, k_fold_split, load_csv, standardize
from coxmix.estimators import breslow, censoring_km, kaplan_meier
from coxmix.metrics import auc_ipcw, brier_ipcw, concordance_td, ece
from coxmix.model import DcmConfig, e_step, fit
from coxmix.synth import generate_cohort, true_survival
from conftest import (
    CROSSING_CONFIG, PH_CONFIG, SEPARATED_CONFIG, brute_force_breslow,
    brute_force_km, naive_auc, naive_concordance,
)

FLCHAIN_PATH = os.environ.get(
    "COXMIX_FLCHAIN", os.path.join(os.path.dirname(__file__), "..", "data", "flchain.csv"))


# one line per criterion, echoed in the terminal summary by conftest
RESULT_LINES = []


def report(num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def flat_g():
    from coxmix.estimators import StepSurvivalCurve
    return StepSurvivalCurve(knot_times=np.array([]), cum_hazard=np.array([]))


def test_criterion_01_gradient_exactness():
    """Full-objective gradients match central finite differences."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 21))
        d = 3
        k = int(rng.choice([1, 2, 3]))
        hidden = int(rng.integers(2, 5))
        params, heads = neural.init_params((d, hidden), k, seed=trial)
        x = rng.normal(size=(n, d))
        times = rng.integers(1, 6, n).astype(float)  # ties on purpose
        events = (rng.random(n) < 0.7).astype(int)
        if events.sum() == 0:
            events[0] = 1
        gamma = rng.dirichlet(np.ones(k), size=n)
        zeta = rng.integers(0, k, n)

        def loss():
            rep, cache = neural.forward(params, x)
            f, g = neural.heads_forward(heads, rep)
            val, d_f, d_g = objective.q_hat(times, events, gamma, zeta, f, neural.log_softmax(g))
            return val, cache, rep, d_f, d_g

        val, cache, rep, d_f, d_g = loss()
        mg, hg = neural.backward(params, heads, cache, rep, d_f, d_g)

        arrs = [(params.weights[0], mg.weights[0]), (params.biases[0], mg.biases[0]),
                (heads.f_w, hg.f_w), (heads.f_b, hg.f_b),
                (heads.g_w, hg.g_w), (heads.g_b, hg.g_b)]
        eps = 1e-6
        diffs, scales = [], []
        for arr, grad in arrs:
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss()[0]
                arr[idx] = orig - eps
                dn = loss()[0]
                arr[idx] = orig
                fd[idx] = (up - dn) / (2 * eps)
                it.iternext()
            diffs.append(np.max(np.abs(grad - fd)))
            scales.append(np.max(np.abs(fd)))
        # relative to the instance's overall gradient scale: components with
        # an exactly zero gradient (the hazard bias, by shift invariance of
        # the partial likelihood) would otherwise divide finite-difference
        # noise by itself
        worst = max(worst, float(np.max(diffs) / max(np.max(scales), 1e-12)))
    elapsed = time.time() - start
    report(1, "gradient exactness", worst < 1e-4 and elapsed < 10,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_estimator_oracles():
    """Kaplan-Meier and Breslow match brute-force enumeration exactly."""
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 51))
        times = rng.integers(1, max(n // 2, 2), n).astype(float)
        events = (rng.random(n) < 0.7).astype(int)
        if events.sum() == 0:
            events[rng.integers(0, n)] = 1
        f = rng.normal(0, 1, n)
        km = kaplan_meier(times, events)
        kt, ks = brute_force_km(times, events)
        finite = np.isfinite(ks) & (ks > 0)
        worst = max(worst, float(np.max(np.abs(km(kt) - ks))))
        bc = breslow(times, events, f)
        bt, bh = brute_force_breslow(times, events, f)
        worst = max(worst, float(np.max(np.abs(bc.knot_times - bt))))
        worst = max(worst, float(np.max(np.abs(bc.cum_hazard - bh))))
    elapsed = time.time() - start
    report(2, "estimator oracles", worst <= 1e-12 and elapsed < 5,
           f"worst abs err {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_criterion_03_single_cluster_collapse():
    """K=1 linear model recovers Cox coefficients and matches a reference
    fit of the same partial likelihood under an independent optimizer."""
    start = time.time()
    ds, _ = generate_cohort(PH_CONFIG)
    cfg = DcmConfig(n_clusters=1, hidden_dims=(), lr=0.02, max_epochs=300,
                    patience=300, seed=0)
    model = fit(ds, cfg)
    beta_hat = model.heads.f_w[:, 0]
    truth = np.array([1.0, -0.5, 0.25])
    beta_err = float(np.max(np.abs(beta_hat - truth)))

    def negpl(beta):
        v, g = objective.partial_log_likelihood(ds.features @ beta, ds.times, ds.events)
        return -v, -(ds.features.T @ g)

    res = minimize(negpl, np.zeros(3), jac=True, method="BFGS")
    h75 = event_quantiles(ds, [0.75])[0]
    g = censoring_km(ds.times, ds.events)
    ctd_dcm = concordance_td(model.predict_survival(ds.features, h75),
                             ds.times, ds.events, g, h75)
    ctd_ref = concordance_td(-(ds.features @ res.x), ds.times, ds.events, g, h75)
    ctd_gap = abs(ctd_dcm - ctd_ref)
    elapsed = time.time() - start
    report(3, "single-cluster collapse",
           beta_err <= 0.1 and ctd_gap <= 0.005 and elapsed < 120,
           f"max |beta err| {beta_err:.3f}, C-td gap {ctd_gap:.5f}, {elapsed:.1f}s")


def test_criterion_04_crossing_curves_advantage():
    """The 2-component mixture beats a single Cox model on data whose
    cluster survival curves cross (a proportional-hazards violation)."""
    start = time.time()
    ds, _ = generate_cohort(CROSSING_CONFIG)
    h75 = event_quantiles(ds, [0.75])[0]
    g = censoring_km(ds.times, ds.events)

    cfg1 = DcmConfig(n_clusters=1, hidden_dims=(), lr=0.02, max_epochs=150,
                     patience=150, seed=0)
    m1 = fit(ds, cfg1)
    pi1 = m1.predict_survival(ds.features, h75)
    ctd1 = concordance_td(pi1, ds.times, ds.events, g, h75)
    ece1 = ece(pi1, ds.times, ds.events, h75)

    ctds, eces = [], []
    for seed in range(5):
        cfg2 = DcmConfig(n_clusters=2, hidden_dims=(50,), lr=1e-2,
                         max_epochs=60, patience=10, seed=seed)
        m2 = fit(ds, cfg2)
        pi2 = m2.predict_survival(ds.features, h75)
        ctds.append(concordance_td(pi2, ds.times, ds.events, g, h75))
        eces.append(ece(pi2, ds.times, ds.events, h75))
    ctd2 = float(np.median(ctds))
    ece2 = float(np.median(eces))
    elapsed = time.time() - start
    report(4, "crossing-curves advantage",
           ctd2 >= ctd1 + 0.02 and ece2 <= ece1 and elapsed < 600,
           f"C-td {ctd2:.4f} vs {ctd1:.4f}+0.02, ECE {ece2:.4f} vs {ece1:.4f}, "
           f"{elapsed:.0f}s")


def test_criterion_05_cluster_recovery():
    """Posterior hard assignments recover the generator's latent clusters
    on the well-separated fixture."""
    ds, sidecar = generate_cohort(SEPARATED_CONFIG)
    z = np.asarray(sidecar["latent"])
    accs = []
    for seed in range(5):
        cfg = DcmConfig(n_clusters=2, hidden_dims=(50,), lr=1e-2,
                        max_epochs=60, patience=10, seed=seed)
        model = fit(ds, cfg)
        hard = e_step(model, ds.features, ds.times, ds.events).argmax(axis=1)
        accs.append(max(float(np.mean(hard == z)), float(np.mean(hard == 1 - z))))
    med = float(np.median(accs))
    report(5, "cluster recovery", med >= 0.8,
           "median acc %.3f (all: %s)" % (med, [round(a, 3) for a in accs]))


def test_criterion_06_metric_collapse_no_censoring():
    """With zero censoring the IPCW metrics reduce to their unweighted
    counterparts."""
    worst = {"ctd": 0.0, "auc": 0.0, "brier": 0.0}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = 500
        times = rng.exponential(1.5, n)
        events = np.ones(n, dtype=int)
        pi = rng.random(n)
        h = float(np.quantile(times, 0.6))
        g = flat_g()
        worst["ctd"] = max(worst["ctd"], abs(
            concordance_td(pi, times, events, g, h)
            - naive_concordance(pi, times, events, h)))
        worst["auc"] = max(worst["auc"], abs(
            auc_ipcw(pi, times, events, g, h) - naive_auc(pi, times, events, h)))
        mse = float(np.mean(np.where(times > h, (1 - pi) ** 2, pi ** 2)))
        worst["brier"] = max(worst["brier"], abs(
            brier_ipcw(pi, times, events, g, h) - mse))
    ok = all(v <= 1e-12 for v in worst.values())
    report(6, "metric collapse, zero censoring", ok,
           "max diffs ctd %.1e auc %.1e brier %.1e"
           % (worst["ctd"], worst["auc"], worst["brier"]))


def test_criterion_07_calibration_oracle():
    """The generator's true conditional survival is well calibrated; a
    deliberately distorted predictor is strictly worse at every horizon."""
    from coxmix.synth import SynthConfig
    cfg = SynthConfig(n=5000, clusters=PH_CONFIG.clusters,
                      gating=PH_CONFIG.gating, seed=21)
    ds, _ = generate_cohort(cfg)
    horizons = event_quantiles(ds, [0.25, 0.5, 0.75])
    true_vals, bad_vals = [], []
    for h in horizons:
        pi = true_survival(cfg, ds.features, h)
        true_vals.append(ece(pi, ds.times, ds.events, h))
        bad_vals.append(ece(pi ** 2, ds.times, ds.events, h))
    ok = all(v < 0.02 for v in true_vals) and all(
        b > v for b, v in zip(bad_vals, true_vals))
    report(7, "calibration oracle", ok,
           "true ECE %s, distorted %s"
           % ([round(v, 4) for v in true_vals], [round(v, 4) for v in bad_vals]))


def test_criterion_08_monte_carlo_unbiasedness():
    """The sampled hard-assignment objective is an unbiased estimate of
    its exact posterior expectation (verified by full enumeration over all
    2^12 assignments of a fixed 12-record instance)."""
    rng = np.random.default_rng(8)
    n, k = 12, 2
    times = rng.integers(1, 6, n).astype(float)
    events = (rng.random(n) < 0.7).astype(int)
    events[0] = 1
    gamma = rng.dirichlet(np.ones(k), size=n)
    f = rng.normal(0, 1, (n, k))
    logits = rng.normal(0, 1, (n, k))

    def q(zeta):
        return objective.q_hat(times, events, gamma, zeta, f, neural.log_softmax(logits))[0]

    exact = 0.0
    for zeta in itertools.product(range(k), repeat=n):
        zeta = np.asarray(zeta)
        prob = float(np.prod(gamma[np.arange(n), zeta]))
        exact += prob * q(zeta)

    draws = 10000
    u = rng.random((draws, n))
    cdf = np.cumsum(gamma, axis=1)
    samples = (u[:, :, None] > cdf[None, :, :]).sum(axis=2)
    vals = np.array([q(samples[s]) for s in range(draws)])
    mc_mean = float(vals.mean())
    mc_se = float(vals.std(ddof=1) / np.sqrt(draws))
    gap = abs(mc_mean - exact)
    report(8, "Monte Carlo unbiasedness", gap <= 3 * mc_se,
           f"enumerated {exact:.6f}, sampled {mc_mean:.6f} +- {mc_se:.6f}, "
           f"gap/se {gap / mc_se:.2f}")


def test_criterion_09_training_dynamics():
    """The 5-epoch moving average of the held-out objective never
    increases and ends below where it started."""
    runs = [
        ("ph K=1", PH_CONFIG,
         DcmConfig(n_clusters=1, hidden_dims=(), lr=1e-3, batch_size=128,
                   max_epochs=50, patience=3, seed=0)),
        ("separated K=2", SEPARATED_CONFIG,
         DcmConfig(n_clusters=2, hidden_dims=(50,), lr=1e-3, batch_size=128,
                   max_epochs=50, patience=3, seed=0)),
    ]
    details = []
    ok = True
    for name, synth_cfg, cfg in runs:
        ds, _ = generate_cohort(synth_cfg)
        model = fit(ds, cfg)
        vq = np.array([e["val_q"] for e in model.training_log])
        window = min(5, len(vq))
        ma = np.convolve(vq, np.ones(window) / window, mode="valid")
        max_inc = float(np.max(np.diff(ma))) if len(ma) > 1 else 0.0
        decreasing = max_inc <= 0.0 and ma[-1] < ma[0]
        ok = ok and decreasing
        details.append(f"{name}: {len(vq)} epochs, max MA step {max_inc:+.4f}")
    report(9, "training dynamics", ok, "; ".join(details))


def test_criterion_10_flchain_band():
    """Data-gated check against the published operating band; skipped
    unless the preprocessed FLCHAIN export is present."""
    if not os.path.exists(FLCHAIN_PATH):
        RESULT_LINES.append(
            "criterion 10 flchain band: SKIPPED (no dataset at "
            f"{FLCHAIN_PATH}; see README for the expected preprocessing)")
        pytest.skip("flchain export not available")
    ds = load_csv(FLCHAIN_PATH, time_col="time", event_col="event")
    h75 = event_quantiles(ds, [0.75])[0]
    split = k_fold_split(ds, 5, seed=0)
    surv = np.full(len(ds), np.nan)
    for fold in range(5):
        tr, te = split != fold, split == fold
        train_ds = standardize(ds.subset(tr))
        stats = train_ds.standardization
        model = fit(train_ds, DcmConfig(n_clusters=3, hidden_dims=(100,), seed=fold))
        xte = (ds.features[te] - stats[0]) / stats[1]
        surv[te] = model.predict_survival(xte, h75)
    g = censoring_km(ds.times, ds.events)
    ctd = concordance_td(surv, ds.times, ds.events, g, h75)
    cal = ece(surv, ds.times, ds.events, h75)
    report(10, "flchain band", 0.77 <= ctd <= 0.81 and cal <= 0.03,
           f"C-td {ctd:.4f} (band [0.77, 0.81]), ECE {cal:.4f} (<= 0.03)")


def test_criterion_11_cv_determinism(tmp_path):
    """Cross-validation with a fixed seed writes byte-identical reports."""
    synth_dir = tmp_path / "synth"
    assert cli_main(["synth", "--n", "300", "--preset", "separated",
                     "--censoring", "0.2", "--seed", "3",
                     "--out", str(synth_dir)]) == 0
    argv = ["cv", "--data", str(synth_dir / "cohort.csv"), "--k", "2",
            "--layers", "8", "--epochs", "2", "--folds", "2",
            "--horizons", "q50", "--bootstrap", "10", "--seed", "5"]
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("report.csv", "report.json"))
    report(11, "cv determinism", same, "report.csv and report.json byte-identical")
